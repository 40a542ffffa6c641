"""Brute-force planning semantics: completions and bounded solution sets.

A completion of a primitive task network is a total ordering of one of its
ground instances that is executable from the initial state and satisfies
every constraint, evaluated positionally over the simulated state sequence.
The solution set is the union of the completions of every network reachable
by a bounded number of reductions.  This module trades efficiency for
obviousness; it is the ground truth the acting semantics is verified against.
"""
from __future__ import annotations

import itertools
from typing import Iterable, Optional

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
)
from .domain import Domain, run_generator
from .model import (
    Constant,
    LabelledTask,
    Substitution,
    Task,
    constants_of,
    variables_of,
)
from .reduction import reduce_task, relevant_method_bodies


def constant_universe(network: TaskNetwork, state: frozenset, domain: Domain) -> tuple[Constant, ...]:
    universe = constants_of(network) | constants_of(state) | domain.constants
    return tuple(sorted(universe))


def _groundings(
    network: TaskNetwork, universe: tuple[Constant, ...]
) -> Iterable[Substitution]:
    free = sorted(variables_of(network), key=lambda v: v.name)
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
    found: set[tuple[Task, ...]] = set()
    base_tasks = network.sorted_tasks()
    for theta in _groundings(network, universe):
        tasks = [lt.substitute(theta) for lt in base_tasks]
        formula = [c.substitute(theta) for c in network.formula]
        orderings = [c for c in formula if isinstance(c.body, Ordering)]
        others = [c for c in formula if not isinstance(c.body, Ordering)]
        for perm in itertools.permutations(tasks):
            position = {lt.label: i for i, lt in enumerate(perm)}
            if not all(
                (not c.negated) == _ordering_holds(c.body, position)
                for c in orderings
            ):
                continue
            states = _simulate(perm, state, domain)
            if states is None:
                continue
            if all(_satisfied(c, position, states) for c in others):
                found.add(tuple(lt.task for lt in perm))
    return frozenset(found)


def _simulate(
    sequence: tuple[LabelledTask, ...], state: frozenset, domain: Domain
) -> Optional[list]:
    """State sequence s0..sk for an executable run, or None if one step fails."""
    states = [state]
    current = state
    for lt in sequence:
        op = domain.operator_for(lt.task)
        pre, add, delete = op.instantiate(lt.task)
        if not all(holds(l, current) for l in pre):
            return None
        current = frozenset((current - frozenset(delete)) | frozenset(add))
        states.append(current)
    return states


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
