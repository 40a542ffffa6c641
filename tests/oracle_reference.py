"""Brute-force completions: the differential reference for ``htnact.oracle``.

Every grounding times every permutation of the tasks, each ordering checked
and simulated from the initial state on its own, then every constraint
evaluated positionally over the whole state sequence.  Exponential in the
number of tasks, and obviously right: the forward search in ``htnact.oracle``
must return exactly these sets.  The grounding and the positional evaluation
are this module's own, so a fault in the oracle's constraint semantics cannot
cancel out.

The reachable networks are this module's own too: a breadth-first search
that renames a task's bodies afresh at every offer and deduplicates networks
by ``key_reference.network_fingerprint``, invariant under renamings that keep
label order.  So a network the oracle's equality search misses is not missed
here as well.
"""
from __future__ import annotations

import itertools
from typing import Iterable, Optional

from htnact.constraints import (
    After,
    Before,
    Between,
    FirstRef,
    LabelRef,
    LastRef,
    Ordering,
    TaskNetwork,
    holds,
)
from htnact.domain import Domain, run_generator
from htnact.model import Constant, LabelledTask, Substitution, Task
from htnact.oracle import constant_universe
from htnact.reduction import reduce_task, relevant_method_bodies
from key_reference import network_fingerprint


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
    """All executable, constraint-satisfying total orderings of ``network``."""
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
    """Networks reachable from ``network`` by at most ``depth`` reductions,
    one per fingerprint."""
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
                    if key not in seen:
                        seen.add(key)
                        next_frontier.append(reduced)
                        out.append(reduced)
        frontier = next_frontier
    return out


def solutions_bounded(
    network: TaskNetwork, state: frozenset, domain: Domain, depth: int
) -> frozenset:
    """Brute-force completions of every network reachable in ``depth`` reductions."""
    universe = constant_universe(network, state, domain)
    solutions: set = set()
    for net in reachable_networks(network, domain, depth):
        solutions |= completions(net, state, domain, universe)
    return frozenset(solutions)
