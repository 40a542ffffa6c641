"""Eager renaming: the differential reference for ``reduction.Body``.

``fresh_rename`` here is the renaming as it was before a body came to hold
only the names it was drawn with: it draws every fresh name and builds the
renamed network at once, rewriting each task and constraint of the
template.  ``relevant_method_bodies`` renames every relevant body this way,
the untried alternatives included.  A body drawn by ``htnact`` from a
generator in the same state must carry the same names, and its network,
built when read, must equal the one built here.
"""
from __future__ import annotations

from htnact.constraints import TaskNetwork
from htnact.domain import Domain
from htnact.model import (
    EMPTY_SUBSTITUTION,
    LabelledTask,
    NameGenerator,
    Substitution,
    Task,
    match_task,
)


def fresh_rename(
    body: TaskNetwork,
    gen: NameGenerator,
    keep: frozenset = frozenset(),
    bound: Substitution = EMPTY_SUBSTITUTION,
) -> TaskNetwork:
    """An isomorphic copy of ``body`` with fresh labels and fresh variables:
    labels drawn in sorted order, then the variables outside ``keep`` in
    sorted order; a kept variable takes its term in ``bound``."""
    label_map = {lab: gen.label(lab) for lab in sorted(body.labels)}
    fresh = {v: gen.variable(v.name) for v in sorted(body.variables) if v not in keep}
    theta = Substitution({**fresh, **bound})

    def rename_ref(ref):
        return ref.relabel(lambda label: label_map.get(label, label))

    tasks = frozenset(
        LabelledTask(label_map[lt.label], lt.task.substitute(theta)) for lt in body.tasks
    )
    formula = frozenset(c.substitute(theta).rewrite_refs(rename_ref) for c in body.formula)
    return TaskNetwork(tasks, formula)


def relevant_method_bodies(
    task: Task, domain: Domain, gen: NameGenerator
) -> tuple[tuple[str, int, TaskNetwork], ...]:
    """``(method name, index, renamed network)`` of every method body
    relevant for ``task``, in declaration order, each renamed at once."""
    out = []
    for index, method in domain.methods_for(task.symbol):
        theta = match_task(task, method.head)
        if theta is not None:
            renamed = fresh_rename(method.body, gen, keep=method.head.variables, bound=theta)
            out.append((method.name, index, renamed))
    return tuple(out)
