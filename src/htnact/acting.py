"""Operational semantics of acting over task networks.

A configuration couples a task network with a state, a set of reduction
couples and the domain.  Three kinds of execution rewrite configurations:

* execution via reduction refines a primary non-primitive task with a
  relevant method body and records the untried alternatives;
* execution via action performs an applicable primary action, updating the
  state and realising the constraints that are settled by it;
* execution via replacement swaps a blocked pursued set for an untried
  alternative body, recovering from failure.

``exec_via_*`` and ``exec_all`` enumerate the legal executions from a
configuration as light ``Choice`` values; ``successor`` performs one choice,
or the observation step of a dynamic trace, and is the one place a successor
configuration is built.  A trace ``Step``, built by ``apply``, is the choice
performed plus its result: the configuration reached and the labels removed
and added.  A search keeps no steps and builds configurations alone.

All values are immutable; the only mutable collaborators are a run
lineage's fresh-name generator and table of reductions, and the component
tables (``ComponentTables``), all held by a run context (``RunContext``).
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Optional

from .constraints import (
    After,
    Before,
    Between,
    Ordering,
    TaskNetwork,
    holds,
)
from .domain import Domain
from .model import (
    Atom,
    Constant,
    EMPTY_SUBSTITUTION,
    LabelledTask,
    Literal,
    NameGenerator,
    Substitution,
    Task,
    Variable,
    cached_hash,
    cached_view,
    constants_of,
    label_key,
    labelled_task_key,
    substitute,
)
from .reduction import Body, has_relevant_method, reduce_task, relevant_method_bodies

INITIAL = "initial"
REDUCTION = "reduction"
ACTION = "action"
REPLACEMENT = "replacement"
OBSERVATION = "observation"


@dataclass(frozen=True, eq=False, init=False)
class ReductionCouple:
    """What one reduced task pursues, plus its untried alternatives.

    ``origin`` is the label of the task whose reduction created this couple;
    the top-level couple has no origin.  A couple keeps its direct
    ``members``, the tasks of its body not yet reduced (live or executed),
    and in ``children`` the couple each reduced one created, in origin order.
    A configuration's couples are thus one tree under the top-level couple:
    iterating a couple yields it and every couple below it, parents first,
    and ``len`` counts them.  Alternatives are sorted by the declaring
    method's position so couple equality is syntactic.

    What a couple pursues, its members and those of every couple below it,
    is a view (``pursued``, ``labels``, ``members_text``) cached on the
    couple, so a couple whose subtree did not change keeps it.  A tree's
    label count (``size``), variables and hash are taken from its
    children's at construction, and its views and equality are computed
    with a stack: a deep tree costs no Python stack.  A couple above a
    changed one is ``relinked`` to its new children: it keeps its members,
    alternatives and their variables (``own_variables``), unscanned.
    """

    origin: Optional[str]
    members: frozenset[LabelledTask]
    alternatives: tuple[Body, ...] = ()
    children: tuple["ReductionCouple", ...] = ()

    __hash__ = cached_hash

    def __init__(self, origin, members, alternatives=(), children=(), own=None) -> None:
        if own is None:
            own = frozenset().union(*(x.variables for x in (*members, *alternatives)))
        self.__dict__.update(
            origin=origin, members=members, alternatives=alternatives, children=children,
            size=len(members) + sum(c.size for c in children), own_variables=own,
            variables=own.union(*(c.variables for c in children)),
            # model.cached_hash's value, from the children's cached hashes
            _hash=hash((origin, members, alternatives, children)),
        )

    def relinked(self, children: tuple) -> "ReductionCouple":
        """This couple over ``children``, its own parts taken unscanned."""
        return ReductionCouple(
            self.origin, self.members, self.alternatives, children, self.own_variables
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, ReductionCouple):
            return NotImplemented
        pairs = [(self, other)]
        while pairs:
            a, b = pairs.pop()
            if a is b:
                continue
            if a._hash != b._hash or len(a.children) != len(b.children) or (
                a.origin, a.members, a.alternatives
            ) != (b.origin, b.members, b.alternatives):
                return False
            pairs.extend(zip(a.children, b.children))
        return True

    def __iter__(self):
        return itertools.chain((self,), self.below)

    @cached_view
    def below(self) -> tuple["ReductionCouple", ...]:
        """Every couple below this one, parents first."""
        found, pending = [], list(self.children)
        while pending:
            couple = pending.pop()
            found.append(couple)
            pending += couple.children
        return tuple(found)

    def __len__(self) -> int:
        return 1 + len(self.below)

    def substitute(self, theta: Substitution) -> "ReductionCouple":
        """The tree under ``theta``: only the couples whose subtree mentions a
        variable ``theta`` binds are rebuilt, children first: relinked, unless
        their own members or alternatives mention one."""
        bound = theta.domain
        touched, pending = [], [self]
        while pending:
            couple = pending.pop()
            if not couple.variables.isdisjoint(bound):
                touched.append(couple)
                pending.extend(couple.children)
        new: dict = {}
        for couple in reversed(touched):
            children = tuple(new.get(c, c) for c in couple.children)
            if couple.own_variables.isdisjoint(bound):
                new[couple] = couple.relinked(children)
            else:
                new[couple] = ReductionCouple(
                    couple.origin, substitute(couple.members, theta),
                    substitute(couple.alternatives, theta), children,
                )
        return new.get(self, self)

    @cached_view
    def pursued(self) -> frozenset[LabelledTask]:
        _fill_below(self, "pursued")
        return self.members.union(*(c.pursued for c in self.children))

    @cached_view
    def labels(self) -> frozenset[str]:
        _fill_below(self, "labels")
        return self.member_labels.union(*(c.labels for c in self.children))

    @cached_view
    def ordered(self) -> list[tuple[int, str, str]]:
        """``(label length, label, text)`` of each pursued task, in label order,
        merged from the children's.  Only ``members_text`` reads it."""
        _fill_below(self, "ordered")
        own = [(len(lt.label), lt.label, lt.text) for lt in self.members]
        return sorted(itertools.chain(own, *(c.ordered for c in self.children)))

    @cached_view
    def member_labels(self) -> frozenset[str]:
        return frozenset(lt.label for lt in self.members)

    @cached_view
    def members_text(self) -> str:
        """The pursued tasks' texts in label order, rendered once per couple."""
        return " ".join(map(itemgetter(2), self.ordered))

    def sort_key(self) -> tuple:
        return (self.origin is not None, label_key(self.origin or ""))

    def __str__(self) -> str:
        alts = ",".join(b.method for b in self.alternatives)
        origin = self.origin or "top"
        return f"<{origin}: {self.members_text} | {alts or '-'}>"


def _fill_below(couple: ReductionCouple, view: str) -> None:
    """Compute ``view`` for the couples below ``couple`` that lack it, each
    after those below it: each then reads its children's from the cache, and
    a deep tree costs no Python stack."""
    below, pending = [], list(couple.children)
    while pending:
        child = pending.pop()
        if view not in vars(child):
            below.append(child)
            pending.extend(child.children)
    for child in reversed(below):
        getattr(child, view)


def _rewritten(couples: ReductionCouple, found, rewrite) -> ReductionCouple:
    """The tree ``couples`` with the first couple ``found`` accepts replaced
    by ``rewrite(couple)``: the couples above it are rebuilt over their new
    child, the rest is shared.  ``couples`` itself when none is found."""
    path: list = []
    pending = [(couples, 0)]
    while pending:
        couple, depth = pending.pop()
        del path[depth:]
        path.append(couple)
        if found(couple):
            new = rewrite(couple)
            for parent, old in zip(path[-2::-1], path[::-1]):
                new = parent.relinked(
                    tuple(new if c is old else c for c in parent.children)
                )
            return new
        depth += 1
        pending += [(child, depth) for child in couple.children]
    return couples


def with_alternatives(couples: ReductionCouple, origin: str, alternatives) -> ReductionCouple:
    """The tree ``couples`` with the couple from ``origin``, if any, holding
    ``alternatives``."""
    return _rewritten(
        couples,
        lambda c: c.origin == origin,
        lambda c: ReductionCouple(c.origin, c.members, alternatives, c.children),
    )


def ordered_alternatives(bodies) -> tuple[Body, ...]:
    return tuple(sorted(bodies, key=Body.sort_key))


@dataclass(frozen=True, init=False)
class Configuration:
    """One node of an execution trace: a task network, a state, the couple
    tree and the domain.  It keeps no binding: an action's binding is applied
    to the whole configuration, so no variable it binds occurs here.

    Its constructor, like ``Choice``'s and ``Step``'s, writes every field in
    one update of the instance dict, where the generated frozen one makes a
    call per field; a search builds one per edge."""

    network: TaskNetwork
    state: frozenset
    couples: ReductionCouple  # the top-level couple, and the tree under it
    domain: Domain = field(repr=False)

    def __init__(self, network, state, couples, domain) -> None:
        self.__dict__.update(network=network, state=state, couples=couples, domain=domain)

    def sorted_couples(self) -> list[ReductionCouple]:
        return sorted(self.couples, key=ReductionCouple.sort_key)

    @cached_view
    def primary(self) -> frozenset:
        """``primary_tasks`` of the network, computed once per configuration."""
        return primary_tasks(self.network, self.domain)


@dataclass
class ComponentTables:
    """The parts successors are built from, each computed once per context.

    A table maps the values a part reads to the part; with the domain and
    the universe, which the contexts of one lineage share, that decides it.
    ``action_result`` assembles an action's successor from three lookups:

    * ``states``: the state after it, per (state, ground task);
    * ``networks``: the network after it, per (network, label, binding,
      state), where the state is None unless the network holds a negated
      between-constraint (``TaskNetwork.has_negated_between``), whose
      discharge is the one rewrite that reads it;
    * ``couples``: the couple tree under the binding, per (tree, binding).
      The binding reaches only the couples whose subtree mentions one of
      its variables (``ReductionCouple.substitute``), and of those only the
      ones whose own members or alternatives mention one substitute them;
      the others are relinked to their new children.  A search applies one
      binding to one tree from many configurations, and the table hands
      out one tree for all of them, with its cached views.

    ``actions`` keeps ``exec_via_action``'s choices per (network, state,
    all_bindings, label); ``relevant`` keeps ``relevant_constraints`` per
    (network, label), which extracted literals and realised constraints
    both read; ``applicable`` keeps ``applicable_substitutions`` per (task,
    extracted literals, state, limit).  A configuration's key
    (``trace.canonical_key``) is its network, state and couples themselves,
    so a search keys through no table.

    ``make_context`` starts empty tables and ``RunContext.fresh_tables``
    starts fresh ones: ``extend_universe`` does, and
    ``trace.validate_trace`` at each step.  A replaying context of a lineage
    (``trace.validate_trace``, ``trace.eliminate_complete_replacements``)
    builds through tables of its own, never the producer's: a trace
    validates in the lineage that produced it, but no part its producer
    built is looked up.  Nothing is shared between searches but each
    method's renaming plan (``domain.Method.plan``), which holds no drawn
    name and no part of a configuration.  ``successor``
    builds through them: for ``trace.run`` and replay by way of ``apply``,
    and for the searches' walk (``trace.reachable``), which keeps no step.
    """

    states: dict = field(default_factory=dict)
    networks: dict = field(default_factory=dict)
    couples: dict = field(default_factory=dict)
    actions: dict = field(default_factory=dict)
    relevant: dict = field(default_factory=dict)
    applicable: dict = field(default_factory=dict)


def _memo(table: dict, key, compute, *args):
    """``table[key]``, computed as ``compute(*args)`` on the first request."""
    found = table.get(key)
    if found is None:
        found = table[key] = compute(*args)
    return found


@dataclass
class RunContext:
    """Mutable per-run collaborators: fresh names, the table of reductions,
    the constant universe and the component tables.

    A run lineage, a run or a search and every trace it yields, has one
    ``gen``, built by ``make_context`` from the initial configuration's
    names, and one ``reductions`` table, mapping a ``(label, task)`` to that
    task's relevant bodies.  The first time a task is offered for reduction,
    ``absorb`` renames its bodies with ``gen`` and the table records them;
    every later offer of the task, on any branch of the lineage, in replay or
    in an elimination rebuild, returns the recorded bodies.  So a reduction
    is named once per lineage, and a trace validates in the lineage that
    produced it (``Trace.ctx``), choices compared by equality.

    ``tables`` are the component tables (``ComponentTables``); a replaying
    context of a lineage takes its own.
    """

    domain: Domain
    universe: tuple[Constant, ...]
    gen: NameGenerator = field(repr=False, compare=False)
    reductions: dict = field(default_factory=dict, repr=False, compare=False)
    tables: ComponentTables = field(
        default_factory=ComponentTables, repr=False, compare=False
    )

    def absorb(self, task: Task) -> tuple[Body, ...]:
        """The relevant bodies of ``task``, renamed with the lineage's
        generator, which commits their names to the lineage.  Called on a
        task's first offer only; ``exec_via_reduction`` records the result.
        Every body's names are drawn here, in declaration order, whether or
        not it is ever taken, so a lineage's names do not depend on which
        bodies are taken; a body's network is built only when it is
        (``reduction.Body``)."""
        return relevant_method_bodies(task, self.domain, self.gen)

    def extend_universe(self, constants) -> None:
        """Add ``constants`` to the universe and start fresh tables: residual
        variables now range over more constants."""
        merged = set(self.universe) | set(constants)
        self.universe = tuple(sorted(merged))
        self.fresh_tables()

    def fresh_tables(self) -> None:
        """Start empty tables, for this context and those it passes them to."""
        self.tables = ComponentTables()


def initial_configuration(
    network: TaskNetwork, state: frozenset, domain: Domain
) -> Configuration:
    return Configuration(network, state, ReductionCouple(None, network.tasks), domain)


def make_context(domain: Domain, config: Configuration) -> RunContext:
    """The context of a new lineage from ``config``: its generator avoids
    every label and variable name ``config`` mentions."""
    universe = tuple(
        sorted(
            constants_of(config.network)
            | constants_of(config.state)
            | domain.constants
        )
    )
    # a couple pursues network tasks and executed ones, which are ground, so
    # its variables are the network's
    labels = set(config.network.labels)
    variables = set(config.network.variables)
    for couple in config.couples:
        labels |= couple.member_labels
        if couple.origin is not None:
            labels.add(couple.origin)
        for body in couple.alternatives:
            labels |= body.labels
            variables |= body.variables
    return RunContext(domain, universe, NameGenerator(labels, (v.name for v in variables)))


@dataclass(frozen=True, init=False)
class Choice:
    """One legal execution from a configuration, not yet performed.

    It holds everything a strategy, a choice directive or an explorer matches
    on; ``successor`` performs it, and ``apply`` records it as a ``Step``.
    A reduction keeps the bodies it leaves untried in ``alternatives``; a
    replacement names the couple it swaps out.
    """

    kind: str
    label: Optional[str] = None
    task: Optional[Task] = None
    binding: Optional[Substitution] = None
    body: Optional[Body] = None
    alternatives: tuple[Body, ...] = ()
    couple: Optional[ReductionCouple] = None
    complete: Optional[bool] = None
    jump: Optional[bool] = None
    observed: frozenset = frozenset()

    def __init__(
        self, kind, label=None, task=None, binding=None, body=None, alternatives=(),
        couple=None, complete=None, jump=None, observed=frozenset(),
    ) -> None:
        self.__dict__.update(
            kind=kind, label=label, task=task, binding=binding, body=body,
            alternatives=alternatives, couple=couple, complete=complete, jump=jump,
            observed=observed,
        )

    def describe(self) -> str:
        if self.kind == ACTION:
            return f"action {self.label}:{self.task}"
        if self.kind == REDUCTION:
            return f"reduction {self.label} with {self.body.method}"
        if self.kind == REPLACEMENT:
            mode = "complete" if self.complete else "partial"
            jump = " jump" if self.jump else ""
            return f"replacement {self.label} with {self.body.method} ({mode}{jump})"
        if self.kind == OBSERVATION:
            tasks = " ".join(
                str(lt) for lt in sorted(self.observed, key=labelled_task_key)
            )
            return f"observation {tasks}"
        return self.kind


@dataclass(frozen=True, kw_only=True, init=False)
class Step(Choice):
    """One trace element: the choice performed, the configuration it reached,
    and the labels it removed from and added to the network."""

    config: Configuration
    removed: frozenset = frozenset()
    added: frozenset = frozenset()

    def __init__(
        self, kind, label=None, task=None, binding=None, body=None, alternatives=(),
        couple=None, complete=None, jump=None, observed=frozenset(), *,
        config, removed=frozenset(), added=frozenset(),
    ) -> None:
        self.__dict__.update(
            kind=kind, label=label, task=task, binding=binding, body=body,
            alternatives=alternatives, couple=couple, complete=complete, jump=jump,
            observed=observed, config=config, removed=removed, added=added,
        )


# -- primary tasks -------------------------------------------------------------

def primary_tasks(d: TaskNetwork, domain: Domain) -> frozenset:
    """Tasks with no other task required to precede them.

    A task is excluded when its label occurs on the right of a positive
    ordering constraint, or when it is an action deferred by a negated
    ordering of the form not(n < x) or not(last[{n}] < x).
    """
    excluded: set[str] = set()
    deferred: set[str] = set()
    for c in d.formula:
        if not isinstance(c.body, Ordering):
            continue
        if not c.negated:
            after = c.body.after
            if after.plain:
                excluded.add(after.label)
            else:
                excluded |= after.labels
        else:
            left = c.body.before
            if left.plain:
                deferred.add(left.label)
            else:
                deferred.update(label for label in left.labels if left.ends_at(label))
    out = set()
    for lt in d.tasks:
        if lt.label in excluded:
            continue
        if lt.label in deferred and domain.is_primitive(lt.task.symbol):
            continue
        out.add(lt)
    return frozenset(out)


# -- relevant constraints and applicability ------------------------------------

def relevant_constraints(label: str, d: TaskNetwork) -> frozenset:
    """Constraints that must be evaluated just before executing ``label``.

    Reads each body's reference slots through the reference methods
    (``constraints``, where the slot table lives): possibly negated
    before-constraints whose reference ``label`` starts, after- and
    between-constraints whose left reference is done, and negated
    between-constraints that survived to the start of their right reference.
    """
    live = d.labels
    out = set()
    for c in d.formula:
        b = c.body
        if isinstance(b, Before):
            if b.ref.starts_at(label):
                out.add(c)
        elif isinstance(b, After):
            if b.ref.is_done(live):
                out.add(c)
        elif isinstance(b, Between):
            if b.start.is_done(live) and (not c.negated or b.end.starts_at(label)):
                out.add(c)
    return frozenset(out)


def _relevant(label: str, d: TaskNetwork, tables: ComponentTables) -> frozenset:
    """``relevant_constraints``, once per (network, label) of ``tables``."""
    return _memo(tables.relevant, (d, label), relevant_constraints, label, d)


def _unify_literal(literal: Literal, atom: Atom, binding: dict) -> Optional[dict]:
    if literal.atom.symbol != atom.symbol or len(literal.atom.args) != len(atom.args):
        return None
    out = dict(binding)
    for pat, val in zip(literal.atom.args, atom.args):
        pat = out.get(pat, pat) if isinstance(pat, Variable) else pat
        if isinstance(pat, Variable):
            out[pat] = val
        elif pat != val:
            return None
    return out


def applicable_substitutions(
    label: str,
    d: TaskNetwork,
    state: frozenset,
    ctx: RunContext,
    limit: Optional[int] = 1,
) -> tuple[Substitution, ...]:
    """Ground substitutions under which ``label`` is applicable in ``state``.

    The action's precondition and the literals its relevant constraints
    extract (negation folded in) must all hold.  Positive
    literals are matched against the state first; residual unbound variables
    (including any left in the task's own arguments) range over the constant
    universe.  Enumeration order is deterministic, so the first result is the
    canonical binding.

    Results are kept in ``ctx``'s tables (``ComponentTables.applicable``).
    """
    task = d.task_of(label).task
    extracted = frozenset(
        c.body.literal.negated() if c.negated else c.body.literal
        for c in _relevant(label, d, ctx.tables)
    )
    return _memo(
        ctx.tables.applicable, (task, extracted, state, limit),
        _ground, task, extracted, state, ctx, limit,
    )


def _ground(
    task: Task,
    extracted: frozenset,
    state: frozenset,
    ctx: RunContext,
    limit: Optional[int],
) -> tuple[Substitution, ...]:
    """``applicable_substitutions`` computed afresh."""
    pre = ctx.domain.operator_for(task).precondition_for(task)
    literals = set(pre) | extracted
    if task.is_ground and all(lit.is_ground for lit in literals):
        # nothing to bind: the empty binding, if every literal holds
        return (EMPTY_SUBSTITUTION,) if all(holds(lit, state) for lit in literals) else ()
    literals = sorted(literals, key=str)
    positives = [l for l in literals if l.positive]
    # equalities matching could not bind are checked with the negative
    # literals, once every variable is bound
    checked = [l for l in literals if not l.positive or l.atom.symbol == "="]
    terms = itertools.chain(task.args, *(l.atom.args for l in literals))
    variables = sorted(
        {t for t in terms if isinstance(t, Variable)}, key=lambda v: v.name
    )
    results: list[Substitution] = []
    seen: set[Substitution] = set()
    for binding in _positive_matches(positives, 0, {}, sorted(state, key=str), state):
        free = [v for v in variables if not isinstance(binding.get(v, v), Constant)]
        for values in itertools.product(ctx.universe, repeat=len(free)):
            extended = dict(binding)
            extended.update(zip(free, values))
            theta = Substitution(extended)
            if theta in seen or not all(
                holds(lit.substitute(theta), state) for lit in checked
            ):
                continue
            seen.add(theta)
            results.append(theta)
            if limit is not None and len(results) >= limit:
                return tuple(results)
    return tuple(results)


def _positive_matches(
    positives: list, index: int, binding: dict, atoms: list, state: frozenset
):
    """Bindings, depth first, under which ``positives[index:]`` all hold in
    ``state``, an equality between two unbound variables left to the caller;
    ``atoms`` is the state in a fixed order."""
    if index == len(positives):
        yield binding
        return
    literal = positives[index].substitute(Substitution(binding))
    if literal.is_ground:
        if holds(literal, state):
            yield from _positive_matches(positives, index + 1, binding, atoms, state)
        return
    if literal.atom.symbol == "=" and len(literal.atom.args) == 2:
        left, right = literal.atom.args
        if isinstance(left, Variable) and isinstance(right, Constant):
            binding = {**binding, left: right}
        elif isinstance(right, Variable) and isinstance(left, Constant):
            binding = {**binding, right: left}
        yield from _positive_matches(positives, index + 1, binding, atoms, state)
        return
    for atom in atoms:
        unified = _unify_literal(literal, atom, binding)
        if unified is not None:
            yield from _positive_matches(positives, index + 1, unified, atoms, state)


def is_applicable(
    label: str, d: TaskNetwork, state: frozenset, ctx: RunContext
) -> Optional[Substitution]:
    found = applicable_substitutions(label, d, state, ctx, limit=1)
    return found[0] if found else None


# -- realised constraints and action results -----------------------------------

def realised_constraints(label: str, d: TaskNetwork) -> frozenset:
    """Constraints settled by executing ``label`` and removable afterwards.

    An ordering is settled when ``label`` ends its left reference, or, negated,
    starts its right one; a relevant constraint is settled unless it is a
    between-constraint whose right reference ``label`` does not start.  The
    references answer through their methods (``constraints``' slot table).
    """
    return _realised(label, d, relevant_constraints(label, d))


def _realised(label: str, d: TaskNetwork, relevant: frozenset) -> frozenset:
    """``realised_constraints`` given the ``relevant`` constraints of ``label``."""
    realised = set()
    for c in d.formula:
        b = c.body
        if isinstance(b, Ordering) and (
            b.after.starts_at(label) if c.negated else b.before.ends_at(label)
        ):
            realised.add(c)
    for c in relevant:
        if not isinstance(c.body, Between) or c.body.end.starts_at(label):
            realised.add(c)
    return frozenset(realised)


def action_result(
    label: str,
    state: frozenset,
    d: TaskNetwork,
    theta: Substitution,
    couples: ReductionCouple,
    domain: Domain,
    tables: Optional[ComponentTables] = None,
) -> tuple[TaskNetwork, frozenset, ReductionCouple]:
    """Result of executing the applicable action ``label`` under ``theta``.

    The action leaves the task set, its effects rewrite the state, realised
    constraints disappear, the label is dropped from last[] expressions,
    between-constraints that became trivial are pruned, and negated
    between-constraints whose escape literal now holds are discharged.  The
    binding is applied to the whole resulting triple.

    Each of the three parts is looked up in ``tables`` (``ComponentTables``),
    fresh ones when none are given, and computed on a miss.
    """
    if tables is None:
        tables = ComponentTables()
    ground_task = d.task_of(label).task.substitute(theta)
    if not ground_task.is_ground:
        raise ValueError(f"executing non-ground task {ground_task}")
    new_state = _memo(
        tables.states, (state, ground_task), _state_after, state, ground_task, domain
    )
    read = new_state if d.has_negated_between else None
    network = _memo(
        tables.networks, (d, label, theta, read),
        _network_after, label, d, theta, new_state, tables,
    )
    couples = _memo(tables.couples, (couples, theta), couples.substitute, theta)
    return network, new_state, couples


def _state_after(state: frozenset, ground_task: Task, domain: Domain) -> frozenset:
    add, delete = domain.operator_for(ground_task).effects_for(ground_task)
    return frozenset((state - frozenset(delete)) | frozenset(add))


def _network_after(
    label: str,
    d: TaskNetwork,
    theta: Substitution,
    new_state: frozenset,
    tables: ComponentTables,
) -> TaskNetwork:
    # set algebra on the network's own sets hashes only the members it
    # drops or rewrites; a constraint that does not name the label comes back
    # unchanged unless it is a negated between, which its escape may discharge
    realised = _realised(label, d, _relevant(label, d, tables))
    dropped = set(realised)
    rewritten = []
    live_after = d.labels - {label}
    for old in d.formula - realised:
        if not (old.mentions(label) or old.negated and isinstance(old.body, Between)):
            continue
        c = old.rewrite_refs(lambda ref: ref.without(label))
        b = c.body
        if isinstance(b, Between):
            if b.end.starts_at(label):
                dropped.add(old)
                continue  # right endpoint reached first: holds trivially
            if c.negated and b.start.is_done(live_after):
                escaped = holds(b.literal.negated().substitute(theta), new_state)
                if escaped:
                    dropped.add(old)
                    continue
        if c is not old:
            dropped.add(old)
            rewritten.append(c)

    formula = (d.formula - dropped) | frozenset(rewritten)
    return substitute(TaskNetwork(d.tasks - {d.task_of(label)}, formula), theta)


# -- the three kinds of execution ----------------------------------------------

def _candidates(cfg: Configuration, label: Optional[str]) -> list[LabelledTask]:
    """The primary tasks of ``cfg`` in label order, or only ``label``'s."""
    if label is None:
        return sorted(cfg.primary, key=labelled_task_key)
    return [lt for lt in cfg.primary if lt.label == label]


def exec_via_action(
    cfg: Configuration,
    ctx: RunContext,
    all_bindings: bool = False,
    label: Optional[str] = None,
) -> tuple[Choice, ...]:
    """Applicable primary actions, of ``label`` alone when it is given.

    The choices are kept in ``ctx``'s tables (``ComponentTables.actions``).
    """
    return _memo(
        ctx.tables.actions, (cfg.network, cfg.state, all_bindings, label),
        _action_choices, cfg, ctx, all_bindings, label,
    )


def _action_choices(
    cfg: Configuration, ctx: RunContext, all_bindings: bool, label: Optional[str]
) -> tuple[Choice, ...]:
    choices = []
    limit = None if all_bindings else 1
    for lt in _candidates(cfg, label):
        if not cfg.domain.is_primitive(lt.task.symbol):
            continue
        for theta in applicable_substitutions(
            lt.label, cfg.network, cfg.state, ctx, limit=limit
        ):
            choices.append(
                Choice(ACTION, lt.label, lt.task.substitute(theta), binding=theta)
            )
    return tuple(choices)


def exec_via_reduction(
    cfg: Configuration, ctx: RunContext, label: Optional[str] = None
) -> tuple[Choice, ...]:
    """Reductions of primary non-primitive tasks, of ``label`` alone if given.

    A task's bodies are named once per lineage: its first offer renames them
    (``RunContext.absorb``) and ``ctx.reductions`` records them, and every
    later offer of the same ``(label, task)`` reuses them.  The names are
    fresh where the task is offered, since the lineage's generator never
    draws a name twice.
    """
    choices = []
    for lt in _candidates(cfg, label):
        if not cfg.domain.is_nonprimitive(lt.task.symbol):
            continue
        bodies = _memo(ctx.reductions, (lt.label, lt.task), ctx.absorb, lt.task)
        for body in bodies:
            remaining = ordered_alternatives(b for b in bodies if b is not body)
            choices.append(
                Choice(REDUCTION, lt.label, lt.task, body=body, alternatives=remaining)
            )
    return tuple(choices)


def _progresses(lt: LabelledTask, can_act, domain: Domain) -> bool:
    """The one test behind "blocked": a primary task makes progress when it is
    an action for which ``can_act(label)`` holds, or a non-primitive task with
    a relevant method.  A couple is blocked when none of its primary members
    makes progress."""
    if domain.is_primitive(lt.task.symbol):
        return can_act(lt.label)
    return has_relevant_method(lt.task, domain)


def _none_progresses(
    members, d: TaskNetwork, state: frozenset, ctx: RunContext
) -> bool:
    """No task of ``members`` makes progress, applicability computed here at
    most once per action.  Members are tried in label order, so which checks
    run does not depend on string hashing."""
    def can_act(label: str) -> bool:
        return is_applicable(label, d, state, ctx) is not None

    return not any(
        _progresses(lt, can_act, ctx.domain)
        for lt in sorted(members, key=labelled_task_key)
    )


def is_blocked(
    pursued: frozenset, d: TaskNetwork, state: frozenset, ctx: RunContext
) -> bool:
    """Is every primary member of ``pursued`` unable to make progress?

    Applicability is computed here, at most once per primary action.
    """
    members = primary_tasks(d, ctx.domain) & pursued
    if not members:
        raise ValueError("pursued set shares no primary task with the network")
    return _none_progresses(members, d, state, ctx)


def replace_tasks(pursued: frozenset, body: TaskNetwork, d: TaskNetwork) -> TaskNetwork:
    """Swap the still-present part of ``pursued`` for the tasks of ``body``.

    Constraint occurrences of the replaced labels inside first[]/last[]
    expressions are redirected to the body's labels, then every constraint
    still mentioning any pursued label (executed members included) is dropped.
    """
    pursued_labels = frozenset(lt.label for lt in pursued)
    present = frozenset(lt for lt in d.tasks if lt.label in pursued_labels)
    old = frozenset(lt.label for lt in present)
    redirected = (c.rewrite_refs(lambda ref: ref.redirect(old, body.labels)) for c in d.formula)
    kept = frozenset(c for c in redirected if not c.labels() & pursued_labels)
    tasks = (d.tasks - present) | body.tasks
    return TaskNetwork(frozenset(tasks), kept | body.formula)


def update_couples(
    replaced_labels: frozenset,
    couple: ReductionCouple,
    body: Body,
    couples: ReductionCouple,
) -> ReductionCouple:
    """Propagate a replacement through the couple tree ``couples``.

    The chosen alternative is consumed.  The replaced couple, the couples
    above it and the chain of couples below it that pursue exactly its labels
    (a body of one task reduced in turn) come to pursue the new tasks in
    place of ``replaced_labels``: the new tasks join the last couple of that
    chain.  Below it, a couple still pursuing a replaced task is dropped and
    its executed members join that couple; a couple pursuing none stays,
    under it.
    """
    last = couple
    while same := [c for c in last.children if c.size == couple.size]:
        last = same[0]
    members, kept, pending = set(body.network.tasks), [], [last]
    while pending:
        dropped = pending.pop()
        members.update(lt for lt in dropped.members if lt.label not in replaced_labels)
        for child in dropped.children:
            (kept if child.labels.isdisjoint(replaced_labels) else pending).append(child)
    kept.sort(key=ReductionCouple.sort_key)
    spent = tuple(b for b in couple.alternatives if b != body)
    new = ReductionCouple(
        last.origin, frozenset(members),
        spent if last is couple else last.alternatives, tuple(kept),
    )
    couples = _rewritten(couples, lambda c: c.origin == last.origin, lambda c: new)
    return couples if last is couple else with_alternatives(couples, couple.origin, spent)


def smallest_replaceable(couples: ReductionCouple) -> frozenset:
    """Couples with alternatives left that no smaller replaceable couple
    undercuts.  Couples that share a label lie on one path of the tree, so
    the undercutting ones are those below, pursuing some of its labels but
    not all, with alternatives left."""
    return frozenset(
        c for c in couples if c.alternatives and not any(
            below.alternatives and 0 < below.size < c.size for below in c
        )
    )


def exec_via_replacement(
    cfg: Configuration, ctx: RunContext, actions: Optional[tuple[Choice, ...]] = None
) -> tuple[Choice, ...]:
    """Replacements of blocked couples with alternatives left.

    Which primary actions can act is read off ``actions``, the choices
    ``exec_via_action`` offers at ``cfg``: ``exec_all`` passes its own, and
    when none are given they are computed here the same way.
    """
    if actions is None:
        actions = exec_via_action(cfg, ctx)
    can_act = frozenset(choice.label for choice in actions).__contains__
    progressing = frozenset(
        lt.label for lt in cfg.primary if _progresses(lt, can_act, cfg.domain)
    )
    # a couple meeting a primary task is blocked when it meets a stuck one
    # and no progressing one
    stuck = frozenset(lt.label for lt in cfg.primary) - progressing
    if not stuck:
        return ()
    blocked = [
        couple
        for couple in cfg.couples
        if couple.alternatives
        and not couple.labels.isdisjoint(stuck)
        and couple.labels.isdisjoint(progressing)
    ]
    if not blocked:
        return ()
    # replacing a couple outside the smallest replaceable ones is a jump
    smallest = smallest_replaceable(cfg.couples)
    return tuple(
        Choice(
            REPLACEMENT,
            couple.origin,
            body=body,
            couple=couple,
            complete=couple.labels <= cfg.network.labels,
            jump=couple not in smallest,
        )
        for couple in sorted(blocked, key=ReductionCouple.sort_key)
        for body in couple.alternatives
    )


def exec_all(
    cfg: Configuration,
    ctx: RunContext,
    all_bindings: bool = False,
    *,
    replacements: bool = True,
) -> tuple[Choice, ...]:
    """Every execution possible from ``cfg``: actions, reductions, replacements.

    A search that follows no replacement passes ``replacements=False`` and
    is offered none: they are never built.
    """
    if not cfg.network.tasks:
        return ()
    actions = exec_via_action(cfg, ctx, all_bindings)
    choices = actions + exec_via_reduction(cfg, ctx)
    if replacements:
        choices += exec_via_replacement(cfg, ctx, actions)
    return choices


def with_observed(cfg: Configuration, observed: frozenset) -> Configuration:
    """``cfg`` with ``observed`` added to its network and its top-level couple."""
    network = TaskNetwork(cfg.network.tasks | observed, cfg.network.formula)
    top = cfg.couples
    couples = ReductionCouple(top.origin, top.members | observed, top.alternatives, top.children)
    return Configuration(network, cfg.state, couples, cfg.domain)


def successor(
    cfg: Configuration, choice: Choice, ctx: Optional[RunContext] = None
) -> Configuration:
    """The configuration that performing ``choice`` from ``cfg`` reaches.

    Every successor configuration is built here, for the three kinds of
    execution and for observations; an action's from ``ctx``'s tables, or
    fresh ones without a context.  Legality is the caller's concern:
    ``exec_*`` offer only legal choices, and replay applies a recorded step
    only once it has found it among them.  A search reads no more of an
    edge than this (``trace.reachable``); ``apply`` makes it a ``Step``.
    """
    kind, label, body = choice.kind, choice.label, choice.body
    if kind == ACTION:
        network, state, couples = action_result(
            label, cfg.state, cfg.network, choice.binding, cfg.couples, cfg.domain,
            ctx.tables if ctx is not None else None,
        )
        return Configuration(network, state, couples, cfg.domain)
    if kind == REDUCTION:
        # the couple holding the task holds the new couple in its place
        target = cfg.network.task_of(label)
        created = ReductionCouple(label, body.network.tasks, choice.alternatives)

        def holding(holder: ReductionCouple) -> ReductionCouple:
            children = sorted(holder.children + (created,), key=ReductionCouple.sort_key)
            return ReductionCouple(
                holder.origin, holder.members - {target},
                holder.alternatives, tuple(children),
            )

        return Configuration(
            reduce_task(cfg.network, label, body.network), cfg.state,
            _rewritten(cfg.couples, lambda c: target in c.members, holding), cfg.domain,
        )
    if kind == REPLACEMENT:
        couple = choice.couple
        return Configuration(
            replace_tasks(couple.pursued, body.network, cfg.network), cfg.state,
            update_couples(couple.labels & cfg.network.labels, couple, body, cfg.couples),
            cfg.domain,
        )
    if kind == OBSERVATION:
        return with_observed(cfg, choice.observed)
    raise ValueError(f"cannot apply a {kind} choice")


def apply(
    cfg: Configuration, choice: Choice, ctx: Optional[RunContext] = None
) -> Step:
    """The step that performs ``choice`` from ``cfg``: the configuration
    ``successor`` builds, and the labels the choice removes and adds."""
    config = successor(cfg, choice, ctx)
    kind, label, body = choice.kind, choice.label, choice.body
    removed = added = frozenset()
    if kind == ACTION:
        removed = frozenset((label,))
    elif kind == REDUCTION:
        removed, added = frozenset((label,)), body.labels
    elif kind == REPLACEMENT:
        removed, added = choice.couple.labels & cfg.network.labels, body.labels
    return Step(
        kind,
        label=label,
        task=choice.task,
        binding=choice.binding,
        body=body,
        alternatives=choice.alternatives,
        couple=choice.couple,
        complete=choice.complete,
        jump=choice.jump,
        observed=choice.observed,
        config=config,
        removed=removed,
        added=added,
    )


def is_successful(cfg: Configuration) -> bool:
    return not cfg.network.tasks


def is_trace_blocked(cfg: Configuration, ctx: RunContext) -> bool:
    """Every couple meeting a primary task is blocked with nothing left to try.

    Applicability is computed here, not taken from the choices at ``cfg``, at
    most once per primary action: the couples are all blocked exactly when
    none of the primary tasks they pursue can make progress.
    """
    primary = cfg.primary
    primary_labels = frozenset(lt.label for lt in primary)
    pursued: set[str] = set()
    for couple in cfg.couples:
        met = couple.labels & primary_labels
        if met and couple.alternatives:
            return False
        pursued |= met
    members = [lt for lt in primary if lt.label in pursued]
    return _none_progresses(members, cfg.network, cfg.state, ctx)
