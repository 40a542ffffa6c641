"""Planning semantics by forward search: completions and bounded solution sets.

A completion of a primitive task network is a total ordering of one of its
ground instances that is executable from the initial state and satisfies
every constraint, evaluated positionally over the simulated state sequence.
The solution set is the union of the completions of every network reachable
by a bounded number of reductions.

Completions are found by depth-first progression, per grounding of the
network's variables: a task is placed once every task guaranteed to precede
it is placed and its precondition holds in the state the placed prefix
reaches, so orderings that share a prefix share its simulation.  Every full
ordering is then checked against every constraint.  The pruning only drops
orderings that a guaranteed precedence or a precondition already rules out,
so the result is exactly the set of every grounding times every permutation
that simulates and satisfies the formula; that makes this module the ground
truth the acting semantics is verified against.
"""
from __future__ import annotations

import itertools
from typing import Iterable, Iterator, Optional

from .constraints import (
    After,
    Before,
    Between,
    FirstRef,
    LabelRef,
    LastRef,
    Ordering,
    TaskNetwork,
    holds,
    network_fingerprint,
    ordering_edges,
)
from .domain import Domain, run_generator
from .model import (
    Constant,
    Substitution,
    Task,
    constants_of,
)
from .reduction import reduce_task, relevant_method_bodies


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


def _start_position(ref, position: dict) -> int:
    """Index of the state reached once the referenced task has been done."""
    if isinstance(ref, LabelRef):
        return position[ref.label] + 1
    if isinstance(ref, LastRef):
        return max(position[l] for l in ref.labels) + 1
    return min(position[l] for l in ref.labels) + 1


def _before_position(ref, position: dict) -> int:
    """Index of the state just before the referenced task is done."""
    if isinstance(ref, LabelRef):
        return position[ref.label]
    if isinstance(ref, FirstRef):
        return min(position[l] for l in ref.labels)
    return max(position[l] for l in ref.labels)


def _ordering_holds(body, position: dict) -> bool:
    return _before_position(body.before, position) < _before_position(
        body.after, position
    )


def _satisfied(constraint, position: dict, states: list) -> bool:
    body = constraint.body
    if isinstance(body, Before):
        value = holds(body.literal, states[_before_position(body.ref, position)])
        return not value if constraint.negated else value
    if isinstance(body, After):
        value = holds(body.literal, states[_start_position(body.ref, position)])
        return not value if constraint.negated else value
    if isinstance(body, Between):
        start = _start_position(body.start, position)
        end = _before_position(body.end, position)
        window = states[start : end + 1]
        if not constraint.negated:
            return all(holds(body.literal, s) for s in window)
        # Escape semantics: the negated literal must be observed in some state
        # of the window; an empty window (endpoint done first) never traps.
        if not window:
            return True
        return any(holds(body.literal.negated(), s) for s in window)
    if isinstance(body, Ordering):  # pragma: no cover - orderings are prefiltered
        value = _ordering_holds(body, position)
        return not value if constraint.negated else value
    raise TypeError(type(body))


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
    base_tasks = network.sorted_tasks()
    index = {lt.label: i for i, lt in enumerate(base_tasks)}
    predecessors = [0] * len(base_tasks)
    for a, b in ordering_edges(network.formula):
        predecessors[index[b]] |= 1 << index[a]
    found: set[tuple[Task, ...]] = set()
    for theta in _groundings(network, universe):
        tasks = [lt.substitute(theta).task for lt in base_tasks]
        formula = [c.substitute(theta) for c in network.formula]
        orderings = [c for c in formula if isinstance(c.body, Ordering)]
        others = [c for c in formula if not isinstance(c.body, Ordering)]
        effects = [domain.operator_for(t).instantiate(t) for t in tasks]
        for order, states in _executable_orders(effects, predecessors, state):
            position = {base_tasks[i].label: k for k, i in enumerate(order)}
            if all(
                (not c.negated) == _ordering_holds(c.body, position)
                for c in orderings
            ) and all(_satisfied(c, position, states) for c in others):
                found.add(tuple(tasks[i] for i in order))
    return frozenset(found)


def _executable_orders(
    effects: list[tuple], predecessors: list[int], state: frozenset
) -> Iterator[tuple[tuple[int, ...], tuple]]:
    """Every executable order of the tasks that respects ``predecessors``.

    ``effects[i]`` holds task ``i``'s instantiated precondition, add and
    delete lists.  Task ``i`` is placed once every task in the bit mask
    ``predecessors[i]`` is placed and its precondition holds in the state the
    placed prefix reaches.  Yields each full order, as task indices, with its
    state sequence s0..sk; orders that share a prefix share its states.
    """
    full = (1 << len(effects)) - 1
    stack: list = [((), 0, (state,))]
    while stack:
        order, placed, states = stack.pop()
        if placed == full:
            yield order, states
            continue
        current = states[-1]
        for i in range(len(effects)):
            bit = 1 << i
            if placed & bit or predecessors[i] & ~placed:
                continue
            pre, add, delete = effects[i]
            if all(holds(l, current) for l in pre):
                after = (current - frozenset(delete)) | frozenset(add)
                stack.append((order + (i,), placed | bit, states + (after,)))


def reachable_networks(
    network: TaskNetwork, domain: Domain, depth: int
) -> list[TaskNetwork]:
    """Networks reachable from ``network`` by at most ``depth`` reductions."""
    gen = run_generator(network.labels, (network,))
    seen = {network_fingerprint(network)}
    frontier = [network]
    out = [network]
    for _ in range(depth):
        next_frontier = []
        for net in frontier:
            for lt in net.sorted_tasks():
                if not domain.is_nonprimitive(lt.task.symbol):
                    continue
                for body in relevant_method_bodies(lt.task, domain, gen):
                    reduced = reduce_task(net, lt.label, body.network)
                    key = network_fingerprint(reduced)
                    if key in seen:
                        continue
                    seen.add(key)
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
