"""Brute-force grounding: the differential reference for
``acting.applicable_substitutions``.

An action is applicable under a binding when its precondition and the
literals its relevant constraints extract all hold.  Here every assignment
of the constant universe to the action's variables is tried, in the order of
``itertools.product`` over the variables sorted by name, and those under
which every literal holds are kept.  No literal is matched against the
state, no variable-free action is answered early: the reference shares only
``holds`` and ``relevant_constraints`` with ``acting``, and extracts the
literals itself.
"""
from __future__ import annotations

import itertools

from htnact.acting import relevant_constraints
from htnact.constraints import TaskNetwork, holds
from htnact.domain import Domain
from htnact.model import Substitution, Variable, variables_of


def extracted_literals(label: str, d: TaskNetwork) -> frozenset:
    """Literals the relevant constraints require to hold, negation folded in."""
    return frozenset(
        c.body.literal.negated() if c.negated else c.body.literal
        for c in relevant_constraints(label, d)
    )


def literals(label: str, d: TaskNetwork, domain: Domain) -> set:
    """The precondition of the action ``label`` and its extracted literals."""
    task = d.task_of(label).task
    pre, _, _ = domain.operator_for(task).instantiate(task)
    return set(pre) | extracted_literals(label, d)


def variables(label: str, d: TaskNetwork, domain: Domain) -> list[Variable]:
    """The variables a binding of the action ``label`` grounds, by name."""
    found = variables_of((d.task_of(label).task, tuple(literals(label, d, domain))))
    return sorted(found, key=lambda v: v.name)


def substitutions(
    label: str, d: TaskNetwork, state: frozenset, domain: Domain, universe: tuple
) -> list[Substitution]:
    """Every ground binding of ``label``'s variables under which it is
    applicable in ``state``."""
    required = literals(label, d, domain)
    free = variables(label, d, domain)
    found = []
    for values in itertools.product(universe, repeat=len(free)):
        theta = Substitution(dict(zip(free, values)))
        if all(holds(lit.substitute(theta), state) for lit in required):
            found.append(theta)
    return found
