"""Planning semantics by forward search: completions and bounded solution sets.

A completion of a primitive task network is a total ordering of one of its
ground instances that is executable from the initial state and satisfies
every constraint, evaluated positionally over the simulated state sequence.
The solution set is the union of the completions of every network reachable
by a bounded number of reductions.  ``reachable_networks`` names each task's
relevant bodies once per search, so reductions taken in any order meet in
equal networks, and it deduplicates networks by equality.

Completions are found by progression over task indices, per grounding of the
network's variables.  A task is placed when its precondition holds in the
state the placed prefix reaches.  Each constraint is compiled once per network
into label bit masks and decided at the placement that settles it.  A task
reference's before-time is reached with its label, ``first[S]`` with the
first member of ``S`` placed and ``last[S]`` with the last; then:

* an ordering is decided when either side is first reached, and is false when
  both are reached by the same placement;
* ``before`` is checked on the state at its reference, ``after`` on the state
  right after it;
* a positive ``between`` checks each state as it enters the window;
* a negated ``between`` sets an escaped bit when ``!literal`` holds in a
  window state, and fails if its end is reached with the bit unset; an empty
  window always passes.

A branch is dropped at the first failed check, so what is left of the search
from a node depends only on the placed tasks, the current state and the
escaped bits of the windows still open.  The suffix set of each such node is
memoised and folded into its predecessors', so orders that meet share their
suffixes.  Each check decides exactly what the positional evaluation of the
full ordering decides, so the result is the set of every grounding times
every permutation that simulates and satisfies the formula; that makes this
module the ground truth the acting semantics is verified against.
"""
from __future__ import annotations

import itertools
from typing import Iterable, Optional

from .constraints import (
    After,
    Before,
    FirstRef,
    Ordering,
    TaskNetwork,
    TaskRef,
    holds,
)
from .domain import Domain, run_generator
from .model import Constant, Substitution, Task, constants_of
from .reduction import Body, reduce_task, relevant_method_bodies


def constant_universe(network: TaskNetwork, state: frozenset, domain: Domain) -> tuple[Constant, ...]:
    universe = constants_of(network) | constants_of(state) | domain.constants
    return tuple(sorted(universe))


def _groundings(
    network: TaskNetwork, universe: tuple[Constant, ...]
) -> Iterable[Substitution]:
    free = sorted(network.variables, key=lambda v: v.name)
    if not free:
        yield Substitution()
        return
    for values in itertools.product(universe, repeat=len(free)):
        yield Substitution(dict(zip(free, values)))


# A compiled task reference is (mask, first): the bits of its labels, and
# whether it is reached with its first member placed rather than its last.
# This reach rule reads only a reference's labels and class, so the ground
# truth shares no predicate with acting's reference methods.
_Ref = tuple[int, bool]


def _reached(ref: _Ref, placed: int) -> bool:
    mask, first = ref
    return placed & mask != 0 if first else placed & mask == mask


def _newly(ref: _Ref, placed: int, after: int) -> bool:
    return _reached(ref, after) and not _reached(ref, placed)


_BEFORE, _AFTER, _CLOSE = range(3)


class _Plan:
    """A network's constraints compiled once for the search of every grounding.

    ``orders[i]`` and ``checks[i]`` hold the constraints that placing task
    ``i`` can settle, each keyed by the reference whose reaching settles it.
    Ground tasks are numbered across groundings in order of first meeting,
    and each is instantiated once; completions are folded as tuples of these
    numbers, which hash without calling into the task dataclasses.
    """

    def __init__(self, network: TaskNetwork, domain: Domain):
        self.tasks = network.sorted_tasks()
        self.domain = domain
        self.numbers: dict[Task, int] = {}
        # (task, precondition, add set, delete set) per ground task number
        self.ground: list[tuple] = []
        bits = {lt.label: 1 << i for i, lt in enumerate(self.tasks)}

        def ref(r: TaskRef) -> _Ref:
            mask = 0
            for label in r.labels:
                mask |= bits[label]
            return mask, isinstance(r, FirstRef)

        n = len(self.tasks)
        # (trigger, other, strict): the placement that newly reaches
        # ``trigger`` needs ``other`` reached before it, or by it too
        self.orders: list[list] = [[] for _ in range(n)]
        # (trigger, kind, a, b): _BEFORE/_AFTER with literal index ``a`` and
        # the negation flag ``b``; _CLOSE with start reference ``a`` and the
        # escaped bit ``b`` of a negated between
        self.checks: list[list] = [[] for _ in range(n)]
        # (start, end, literal index, escaped bit, or 0 for a positive between)
        self.windows: list[tuple] = []
        self.literals: list = []

        def on(trigger: _Ref, table: list, entry: tuple) -> None:
            for i in range(n):
                if trigger[0] >> i & 1:
                    table[i].append(entry)

        escapes = 0
        for c in network.formula:
            body = c.body
            if isinstance(body, Ordering):
                left, right = ref(body.before), ref(body.after)
                if c.negated:
                    on(left, self.orders, (left, right, False))
                else:
                    on(right, self.orders, (right, left, True))
                continue
            k = len(self.literals)
            self.literals.append(body.literal)
            if isinstance(body, Before):
                r = ref(body.ref)
                on(r, self.checks, (r, _BEFORE, k, c.negated))
            elif isinstance(body, After):
                r = ref(body.ref)
                on(r, self.checks, (r, _AFTER, k, c.negated))
            else:
                start, end = ref(body.start), ref(body.end)
                bit = 0
                if c.negated:
                    bit = 1 << escapes
                    escapes += 1
                    on(end, self.checks, (end, _CLOSE, start, bit))
                self.windows.append((start, end, k, bit))

    def number(self, task: Task) -> int:
        """The number of ground ``task``, instantiated on first sight."""
        k = self.numbers.get(task)
        if k is None:
            k = self.numbers[task] = len(self.ground)
            pre, add, delete = self.domain.operator_for(task).instantiate(task)
            self.ground.append((task, pre, frozenset(add), frozenset(delete)))
        return k

    def sequences(self, theta: Substitution, state: frozenset) -> frozenset:
        """Every completion of the grounding ``theta``, as ground task numbers."""
        ids = [self.number(lt.task.substitute(theta)) for lt in self.tasks]
        effects = [self.ground[k][1:] for k in ids]
        literals = [l.substitute(theta) for l in self.literals]
        orders, checks, windows = self.orders, self.checks, self.windows

        def place(i: int, placed: int, current: frozenset, escaped: int):
            after = placed | 1 << i
            for trigger, other, strict in orders[i]:
                if _newly(trigger, placed, after) and not _reached(
                    other, placed if strict else after
                ):
                    return None
            pre, add, delete = effects[i]
            if not all(holds(l, current) for l in pre):
                return None
            following = (current - delete) | add
            for trigger, kind, a, b in checks[i]:
                if not _newly(trigger, placed, after):
                    continue
                if kind == _BEFORE:
                    if holds(literals[a], current) == b:
                        return None
                elif kind == _AFTER:
                    if holds(literals[a], following) == b:
                        return None
                else:
                    if _reached(a, placed) and not escaped & b:
                        return None
                    escaped &= ~b
            for start, end, k, bit in windows:
                if _reached(start, after) and not _reached(end, after):
                    if holds(literals[k], following):
                        continue
                    if not bit:
                        return None
                    escaped |= bit
            return after, following, escaped

        full = (1 << len(ids)) - 1
        root = (0, state, 0)
        # (node, None) expands a node and (node, edges) folds it; every child
        # places one more task, so it is memoised before its parent folds
        memo: dict[tuple, frozenset] = {}
        stack: list = [(root, None)]
        while stack:
            node, edges = stack.pop()
            if edges is not None:
                memo[node] = frozenset(
                    (ids[i],) + s for i, child in edges for s in memo[child]
                )
                continue
            if node in memo:
                continue
            placed = node[0]
            if placed == full:
                memo[node] = frozenset({()})
                continue
            edges = []
            for i in range(len(ids)):
                if not placed >> i & 1:
                    child = place(i, *node)
                    if child is not None:
                        edges.append((i, child))
            stack.append((node, edges))
            stack.extend((child, None) for _, child in edges if child not in memo)
        return memo[root]


def completions(
    network: TaskNetwork, state: frozenset, domain: Domain,
    universe: Optional[tuple[Constant, ...]] = None,
) -> frozenset:
    """All executable, constraint-satisfying total orderings of ``network``.

    Empty when the network mentions a non-primitive task.  Each result is the
    performed ground task sequence, labels dropped.
    """
    if any(not domain.is_primitive(lt.task.symbol) for lt in network.tasks):
        return frozenset()
    if universe is None:
        universe = constant_universe(network, state, domain)
    plan = _Plan(network, domain)
    found: set[tuple[int, ...]] = set()
    for theta in _groundings(network, universe):
        found |= plan.sequences(theta, state)
    return frozenset(tuple(plan.ground[k][0] for k in s) for s in found)


def reachable_networks(
    network: TaskNetwork, domain: Domain, depth: int
) -> list[TaskNetwork]:
    """Networks reachable from ``network`` by at most ``depth`` reductions.

    A task's relevant bodies are renamed once per search, on the task's first
    offer, from the search's one generator; every later offer of the same
    ``(label, task)``, in any network, reduces it to the same bodies.  So the
    same reductions taken in any order give equal networks, and the search
    deduplicates by equality.  A label enters with one body and leaves when
    it is reduced, so a recorded body's names never meet a network that
    still holds its task.
    """
    gen = run_generator(network.labels, (network,))
    bodies: dict[tuple[str, Task], tuple[Body, ...]] = {}
    seen = {network}
    frontier = [network]
    out = [network]
    for _ in range(depth):
        next_frontier = []
        for net in frontier:
            for lt in net.sorted_tasks():
                if not domain.is_nonprimitive(lt.task.symbol):
                    continue
                key = (lt.label, lt.task)
                if key not in bodies:
                    bodies[key] = relevant_method_bodies(lt.task, domain, gen)
                for body in bodies[key]:
                    reduced = reduce_task(net, lt.label, body.network)
                    if reduced in seen:
                        continue
                    seen.add(reduced)
                    next_frontier.append(reduced)
                    out.append(reduced)
        if not next_frontier:
            break
        frontier = next_frontier
    return out


def solutions_bounded(
    network: TaskNetwork, state: frozenset, domain: Domain, depth: int
) -> frozenset:
    """Completions of every network reachable by at most ``depth`` reductions."""
    if depth < 1:
        raise ValueError("depth must be at least 1")
    universe = constant_universe(network, state, domain)
    solutions: set = set()
    for net in reachable_networks(network, domain, depth):
        solutions |= completions(net, state, domain, universe)
    return frozenset(solutions)
