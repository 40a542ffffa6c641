"""Brute-force completions: the differential reference for ``htnact.oracle``.

Every grounding times every permutation of the tasks, each ordering checked
and simulated from the initial state on its own.  Exponential in the number
of tasks, and obviously right: the forward search in ``htnact.oracle`` must
return exactly these sets.
"""
from __future__ import annotations

import itertools
from typing import Optional

from htnact.constraints import Ordering, TaskNetwork, holds
from htnact.domain import Domain
from htnact.model import Constant, LabelledTask, Task
from htnact.oracle import (
    _groundings,
    _ordering_holds,
    _satisfied,
    constant_universe,
    reachable_networks,
)


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


def solutions_bounded(
    network: TaskNetwork, state: frozenset, domain: Domain, depth: int
) -> frozenset:
    """Brute-force completions of every network reachable in ``depth`` reductions."""
    universe = constant_universe(network, state, domain)
    solutions: set = set()
    for net in reachable_networks(network, domain, depth):
        solutions |= completions(net, state, domain, universe)
    return frozenset(solutions)
