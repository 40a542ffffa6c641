"""The couple tree against the flat couples it replaced.

``acting`` keeps each couple's direct members and the couples below it;
``couple_reference`` keeps every couple's full pursued set, with the flat
operations on them.  Along every edge ``reachable`` takes, the reference's
couples are built from its own predecessor's, and at every configuration the
two must agree on the pursued sets, the replacements offered with their
complete and jump flags, whether the trace is blocked, the export's couple
lines and the couples after an observation.  The tree also makes an action
touch only the couples that mention its binding, relinking the ancestors of
the couple it acts in without scanning them, and keying a configuration
computes no couple's view, however deep the recursion.  A relinked couple
carries what the plain constructor would compute for it.
"""
from __future__ import annotations

from dataclasses import replace as dc_replace

import couple_reference
from htnact import acting, model, reduction
from htnact import trace as trace_module
from htnact.acting import (
    INITIAL,
    ReductionCouple,
    OBSERVATION,
    Choice,
    Step,
    apply,
    exec_all,
    exec_via_replacement,
    initial_configuration,
    is_successful,
    is_trace_blocked,
    make_context,
    successor,
)
from htnact.corpus import corpus
from htnact.export import render_trace
from htnact.model import LabelledTask, Task, cached_view
from htnact.syntax import parse_domain, parse_problem
from htnact.trace import (
    DefaultStrategy,
    Trace,
    canonical_key,
    parse_directives,
    reachable,
    run,
)
from test_blocked import UNBOUNDED_DOMAIN, counter_problem

OBSERVED = frozenset({LabelledTask("obs", Task("nop"))})


def rebuilt(couple):
    """An equal tree with nothing cached, every couple made by the plain
    constructor, children first."""
    built: dict = {}
    order, pending = [], [couple]
    while pending:
        order.append(pending.pop())
        pending += order[-1].children
    for c in reversed(order):
        built[id(c)] = ReductionCouple(
            c.origin, c.members, c.alternatives, tuple(built[id(x)] for x in c.children)
        )
    return built[id(couple)]


def pursued(couples) -> dict:
    return {c.origin: (c.pursued, c.alternatives) for c in couples}


def agree(cfg, flat, ctx) -> tuple:
    """Assert that ``cfg``'s couple tree behaves as its flat couples ``flat``;
    returns how many replacements were offered and whether it is blocked."""
    assert len(cfg.couples) == len(flat)
    assert pursued(cfg.couples) == pursued(flat)
    offered = [(c.label, c.body, c.complete, c.jump) for c in exec_via_replacement(cfg, ctx)]
    assert offered == couple_reference.replacements(cfg, flat, ctx)
    blocked = is_trace_blocked(cfg, ctx)
    assert blocked == couple_reference.is_trace_blocked(cfg, flat, ctx)
    lines = render_trace(Trace([Step(INITIAL, config=cfg)], ctx)).splitlines()
    assert lines[lines.index("  couples:") + 1:] == couple_reference.couple_lines(flat, "  ")
    observed = apply(cfg, Choice(OBSERVATION, observed=OBSERVED)).config
    assert pursued(observed.couples) == pursued(couple_reference.with_observed(flat, OBSERVED))
    return len(offered), blocked


def walked(cfg0, monkeypatch, edges):
    """Each configuration ``reachable`` explores from ``cfg0``, with its context
    and the flat couples built along the edge the walk took to it; each edge
    the walk builds is appended to ``edges``."""
    flats = {id(cfg0): (cfg0, couple_reference.initial(cfg0))}

    def recording(cfg, choice, ctx=None):
        nxt = successor(cfg, choice, ctx)
        flat = couple_reference.after(flats[id(cfg)][1], cfg, choice)
        flats[id(nxt)] = (nxt, flat)  # kept alive: ids stay unique
        edges.append(choice)
        return nxt

    monkeypatch.setattr(trace_module, "successor", recording)
    ctx = make_context(cfg0.domain, cfg0)
    for cfg, *_ in reachable(cfg0, ctx):
        yield cfg, flats[id(cfg)][1], ctx


def test_the_tree_behaves_as_the_flat_couples_everywhere_reachable(
    rover, rover_problem, rover_nocali, monkeypatch
):
    starts = [
        initial_configuration(p.network, p.state, rover)
        for p in (rover_problem, rover_nocali)
    ]
    starts += [
        initial_configuration(case.network, case.state, case.domain)
        for case in corpus(200, 0) + corpus(100, 100000)
    ]
    problem, domain = counter_problem(8)
    starts.append(initial_configuration(problem.network, problem.state, domain))
    configurations = replacements = blocked = 0
    edges = []
    for cfg0 in starts:
        for cfg, flat, ctx in walked(cfg0, monkeypatch, edges):
            offered, stuck = agree(cfg, flat, ctx)
            configurations += 1
            replacements += offered
            blocked += stuck
    assert configurations > 4000 and replacements > 1500 and blocked > 300
    # the hook saw the walk: every configuration but a start was built by it
    assert len(edges) >= configurations - len(starts)


CHAIN_DOMAIN = """\
domain chain

operator go
  pre: p
  add:
  del:

operator alt
  pre: p
  add:
  del:

method ma top
  tasks:
    1: mid

method mb top
  tasks:
    2: alt

method mc mid
  tasks:
    3: go

method md mid
  tasks:
    4: go
    5: go
"""


def test_a_replacement_keeps_a_chain_of_couples_with_equal_pursued_sets():
    """A body of one task makes a couple and the one below it pursue the same
    set, so replacing the upper one rewrites the lower one too: couple 1
    survives pursuing ``mb``'s task, and a body for ``mid`` can then replace
    it.  The flat couples did so; the tree must do the same."""
    domain = parse_domain(CHAIN_DOMAIN, "chain").value
    problem = parse_problem("problem chain\nstate:\ntasks:\n  T: top\n", domain).value
    cfg = initial_configuration(problem.network, problem.state, domain)
    flat = couple_reference.initial(cfg)
    for directive in parse_directives("reduce T with ma\nreduce 1 with mc\nreplace T with mb"):
        ctx = make_context(domain, cfg)
        choice = next(c for c in exec_all(cfg, ctx) if directive.matches(c))
        cfg, flat = apply(cfg, choice).config, couple_reference.after(flat, cfg, choice)
        agree(cfg, flat, make_context(domain, cfg))
    assert (choice.complete, choice.jump) == (True, False)
    assert {str(c) for c in cfg.couples} == {
        "<top: 2:alt | ->", "<T: 2:alt | ->", "<1: 2:alt | md>"
    }
    offered = exec_via_replacement(cfg, make_context(domain, cfg))
    assert [(c.label, c.body.method, c.complete, c.jump) for c in offered] == [
        ("1", "md", True, False)
    ]


# -- costs the tree bounds ----------------------------------------------------------

def path_to(top, label) -> list:
    """The couples from ``top`` down to the one holding ``label``."""
    pending = [[top]]
    while pending:
        path = pending.pop()
        if any(lt.label == label for lt in path[-1].members):
            return path
        pending += [path + [child] for child in path[-1].children]
    raise KeyError(label)


def counting(monkeypatch, cls, name="substitute") -> list:
    """``(object, binding)`` for each call of ``cls.name`` from now, in call
    order."""
    calls, real = [], getattr(cls, name)

    def counted(self, theta):
        calls.append((self, theta))
        return real(self, theta)

    monkeypatch.setattr(cls, name, counted)
    return calls


def test_an_action_substitutes_into_one_couple(monkeypatch):
    """Each ``dec`` binds the variables of one task, which the deepest couple
    holds: at most two members are rebuilt per action, one in the network and
    one in that couple, however deep the recursion (flat couples rebuilt it
    in every ancestor: 860 calls).  The couples above it are relinked: each
    keeps its members and alternatives objects, which are not even handed to
    ``substitute``, and no alternative body is substituted, as none mentions
    a variable a ``dec`` binds (820 calls when every ancestor substituted its
    alternatives)."""
    problem, domain = counter_problem(40)
    cfg0 = initial_configuration(problem.network, problem.state, domain)
    tasks = counting(monkeypatch, model.LabelledTask)
    bodies = counting(monkeypatch, reduction.Body)
    values = counting(monkeypatch, acting, "substitute")
    trace = run(cfg0, DefaultStrategy())
    substituted = {(id(value), theta) for value, theta in values}
    decs = 0
    for before, step in zip(trace.steps, trace.steps[1:]):
        if step.kind != "action" or step.task.symbol != "dec":
            continue
        decs += 1
        after = {c.origin: c for c in step.config.couples}
        above = path_to(before.config.couples, step.label)[:-1]
        assert len(above) == decs
        for old in above:
            new = after[old.origin]
            assert new is not old
            assert new.members is old.members and new.alternatives is old.alternatives
            for value in (old.members, old.alternatives):
                assert (id(value), step.binding) not in substituted
    assert decs == 40 and len(tasks) <= 2 * decs
    assert bodies == []


def same_tree(couples) -> tuple[int, int]:
    """Assert that ``couples`` carries, couple by couple, what the plain
    constructor computes for an equal tree; returns how many couples, and
    how many of them hold variables of their own and a couple below."""
    pairs, seen, holding = [(couples, rebuilt(couples))], 0, 0
    while pairs:
        a, b = pairs.pop()
        assert (a.size, a.variables, a.own_variables) == (b.size, b.variables, b.own_variables)
        assert hash(a) == hash(b) and a.members_text == b.members_text
        pairs += zip(a.children, b.children)
        seen += 1
        holding += bool(a.own_variables and a.children)
    assert couples == rebuilt(couples)
    return seen, holding


RELINK_DOMAIN = """\
domain relink

operator pick(X)
  pre: item(X)
  add: held(X)
  del: item(X)

operator go
  pre:
  add:
  del:

method m1 top
  tasks:
    1: pick(X)
    2: mid

method m2 top
  tasks:
    3: go

method m3 mid
  tasks:
    4: low

method m4 low
  tasks:
    5: pick(Y)

method m5 low
  tasks:
    6: go
"""


def test_relinked_couples_carry_what_the_constructor_computes(rover, rover_problem, rover_nocali):
    """After every step of a deep recursion and of both rover runs, and at
    every configuration a walk over a corpus reaches, each couple's label
    count, variables, own variables, hash and members text are those of the
    same tree built by the plain constructor.  In none of these does a
    couple relinked above a changed one hold a variable, so a walk over a
    domain whose couple 1 keeps ``pick(X)`` unbound while ``low`` is
    reduced and ``pick(Y)`` acts below it checks that case."""
    problem, domain = counter_problem(40)
    starts = [initial_configuration(problem.network, problem.state, domain)]
    starts += [initial_configuration(p.network, p.state, rover) for p in (rover_problem, rover_nocali)]
    checked = holding = 0
    for cfg0 in starts:
        trace = run(cfg0, DefaultStrategy())
        assert is_successful(trace.final)
        for step in trace.steps:
            checked += same_tree(step.config.couples)[0]
    relink = parse_domain(RELINK_DOMAIN, "relink").value
    problem = parse_problem(
        "problem relink\nstate: item(c1), item(c2)\ntasks:\n  T: top\n", relink
    ).value
    walks = [(case.network, case.state, case.domain) for case in corpus(40, 0)]
    for network, state, domain in walks + [(problem.network, problem.state, relink)]:
        cfg0 = initial_configuration(network, state, domain)
        for cfg, *_ in reachable(cfg0, make_context(domain, cfg0)):
            counts = same_tree(cfg.couples)
            checked, holding = checked + counts[0], holding + counts[1]
    assert checked > 4800 and holding > 0


def test_keying_a_deep_configuration_computes_no_couple_view():
    """The unbounded loop adds a couple per reduction.  A key is the couple
    tree itself, so keying the tree 200 steps deep, hashing the key and
    comparing it with an equal key compute no couple's view."""
    domain = parse_domain(UNBOUNDED_DOMAIN, "unbounded").value
    problem = parse_problem("problem open\nstate:\ntasks:\n  L: loop\n", domain).value
    cfg0 = initial_configuration(problem.network, problem.state, domain)
    cfg = run(cfg0, DefaultStrategy(), budget=200).final
    assert len(cfg.couples) > 100

    fresh, other = rebuilt(cfg.couples), rebuilt(cfg.couples)
    key = canonical_key(dc_replace(cfg, couples=fresh))
    assert hash(key) == hash(canonical_key(dc_replace(cfg, couples=other)))
    assert key == canonical_key(dc_replace(cfg, couples=other))
    views = {name for name, v in vars(ReductionCouple).items() if isinstance(v, cached_view)}
    assert {"pursued", "labels", "members_text", "below"} <= views
    pending = [fresh, other]
    while pending:
        couple = pending.pop()
        assert not views & set(vars(couple))
        pending += couple.children
