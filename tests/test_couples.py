"""The couple tree against the flat couples it replaced.

``acting`` keeps each couple's direct members and the couples below it;
``couple_reference`` keeps every couple's full pursued set, with the flat
operations on them.  Along every edge ``reachable`` takes, the reference's
couples are built from its own predecessor's, and at every configuration the
two must agree on the pursued sets, the replacements offered with their
complete and jump flags, whether the trace is blocked, the export's couple
lines and the couples after an observation.  The tree also makes an action
touch only the couples that mention its binding, and keying a
configuration computes no couple's view, however deep the recursion.
"""
from __future__ import annotations

from dataclasses import replace as dc_replace
from functools import cached_property

import couple_reference
from htnact import model
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
    is_trace_blocked,
    make_context,
)
from htnact.corpus import corpus
from htnact.export import render_trace
from htnact.model import LabelledTask, Task
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


def walked(cfg0, monkeypatch):
    """Each configuration ``reachable`` explores from ``cfg0``, with its context
    and the flat couples built along the edge the walk took to it."""
    flats = {id(cfg0): (cfg0, couple_reference.initial(cfg0))}

    def recording(cfg, choice, ctx=None):
        step = apply(cfg, choice, ctx)
        flat = couple_reference.after(flats[id(cfg)][1], cfg, choice)
        flats[id(step.config)] = (step.config, flat)  # kept alive: ids stay unique
        return step

    monkeypatch.setattr(trace_module, "apply", recording)
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
    for cfg0 in starts:
        for cfg, flat, ctx in walked(cfg0, monkeypatch):
            offered, stuck = agree(cfg, flat, ctx)
            configurations += 1
            replacements += offered
            blocked += stuck
    assert configurations > 4000 and replacements > 1500 and blocked > 300


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

def test_an_action_substitutes_into_one_couple(monkeypatch):
    """Each ``dec`` binds the variables of one task, which the deepest couple
    holds: at most two members are rebuilt per action, one in the network and
    one in that couple, however deep the recursion (flat couples rebuilt it
    in every ancestor: 860 calls)."""
    problem, domain = counter_problem(40)
    cfg0 = initial_configuration(problem.network, problem.state, domain)
    calls = []
    real = model.LabelledTask.substitute

    def counted(self, theta):
        calls.append(self)
        return real(self, theta)

    monkeypatch.setattr(model.LabelledTask, "substitute", counted)
    trace = run(cfg0, DefaultStrategy())
    decs = sum(1 for s in trace.steps if s.kind == "action" and s.task.symbol == "dec")
    assert decs == 40 and len(calls) <= 2 * decs


def test_keying_a_deep_configuration_computes_no_couple_view():
    """The unbounded loop adds a couple per reduction.  A key is the couple
    tree itself, so keying the tree 200 steps deep, hashing the key and
    comparing it with an equal key compute no couple's view."""
    domain = parse_domain(UNBOUNDED_DOMAIN, "unbounded").value
    problem = parse_problem("problem open\nstate:\ntasks:\n  L: loop\n", domain).value
    cfg0 = initial_configuration(problem.network, problem.state, domain)
    cfg = run(cfg0, DefaultStrategy(), budget=200).final
    assert len(cfg.couples) > 100

    def rebuilt(couple):  # an equal tree with nothing cached, children first
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

    fresh, other = rebuilt(cfg.couples), rebuilt(cfg.couples)
    key = canonical_key(dc_replace(cfg, couples=fresh))
    assert hash(key) == hash(canonical_key(dc_replace(cfg, couples=other)))
    assert key == canonical_key(dc_replace(cfg, couples=other))
    views = {name for name, v in vars(ReductionCouple).items() if isinstance(v, cached_property)}
    assert {"pursued", "labels", "members_text", "below"} <= views
    pending = [fresh, other]
    while pending:
        couple = pending.pop()
        assert not views & set(vars(couple))
        pending += couple.children
