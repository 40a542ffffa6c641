"""Unfiltered network rewrites: the differential reference for the network
an action or a reduction leaves in ``htnact.acting`` and
``htnact.reduction``.

Both rewrites here visit every constraint of the network, as they did before
``acting`` and ``reduction`` came to rewrite only the constraints that name
the executed or reduced label (and, after an action, the negated
between-constraints its escape literal may discharge).  The filtered
rewrites must build the same networks.
"""
from __future__ import annotations

from htnact.acting import realised_constraints
from htnact.constraints import Between, TaskNetwork, holds
from htnact.domain import Domain
from htnact.model import Substitution, Task, substitute


def state_after(state: frozenset, ground_task: Task, domain: Domain) -> frozenset:
    _, add, delete = domain.operator_for(ground_task).instantiate(ground_task)
    return (state - frozenset(delete)) | frozenset(add)


def network_after(
    label: str, d: TaskNetwork, theta: Substitution, new_state: frozenset
) -> TaskNetwork:
    """The network once the action ``label`` ran under ``theta`` into
    ``new_state``: realised constraints go, ``label`` leaves every last[]
    set, between-constraints whose right reference it starts hold
    trivially, and negated ones whose start is done and whose escape literal
    holds are discharged."""
    realised = realised_constraints(label, d)
    live_after = d.labels - {label}
    formula = set()
    for old in d.formula - realised:
        c = old.rewrite_refs(lambda ref: ref.without(label))
        b = c.body
        if isinstance(b, Between):
            if b.end.starts_at(label):
                continue
            if c.negated and b.start.is_done(live_after) and holds(
                b.literal.negated().substitute(theta), new_state
            ):
                continue
        formula.add(c)
    tasks = d.tasks - {d.task_of(label)}
    return substitute(TaskNetwork(tasks, frozenset(formula)), theta)


def reduced_network(d: TaskNetwork, label: str, body: TaskNetwork) -> TaskNetwork:
    """``d`` with the task ``label`` reduced to ``body``, every constraint
    passed through ``Constraint.reduced``."""
    rewritten = frozenset(c.reduced(label, body.labels) for c in d.formula)
    tasks = (d.tasks - {d.task_of(label)}) | body.tasks
    return TaskNetwork(frozenset(tasks), body.formula | rewritten)
