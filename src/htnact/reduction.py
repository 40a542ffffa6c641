"""Method relevance and the reduction rewriting of task networks."""
from __future__ import annotations

from dataclasses import dataclass

from .constraints import TaskNetwork
from .domain import Domain, fresh_rename
from .model import NameGenerator, Task, cached_hash, match_task


@dataclass(frozen=True)
class Body:
    """A fresh-renamed relevant method-body, tagged with its source method.

    ``index`` is the declaring method's position in the domain, used as the
    canonical order for alternative bodies.
    """

    method: str
    index: int
    network: TaskNetwork

    __hash__ = cached_hash

    @property
    def variables(self):
        """The network's: ``model.substitute`` skips a body a binding misses."""
        return self.network.variables

    def substitute(self, theta) -> "Body":
        network = self.network.substitute(theta)
        if network is self.network:
            return self
        return Body(self.method, self.index, network)

    def sort_key(self) -> int:
        """The bodies a couple holds come from distinct methods, so the
        declaring method's position orders them."""
        return self.index


def has_relevant_method(task: Task, domain: Domain) -> bool:
    return any(
        match_task(task, m.head) is not None for _, m in domain.methods_for(task.symbol)
    )


def relevant_method_bodies(task: Task, domain: Domain, gen: NameGenerator) -> tuple[Body, ...]:
    """Fresh-renamed instances of every method body relevant for ``task``.

    Declaration order is preserved.  Primitive task symbols are a contract
    violation; an empty result just means no method head matches.  ``gen``
    avoids every name of the network ``task`` sits in, so the body's fresh
    variables never meet the task's: a run lineage's generator
    (``acting.RunContext``) and an oracle search's never draw a name twice.
    """
    if domain.is_primitive(task.symbol):
        raise ValueError(f"task {task} is primitive; it has no relevant methods")
    bodies = []
    for index, method in domain.methods_for(task.symbol):
        theta = match_task(task, method.head)
        if theta is not None:
            renamed = fresh_rename(method.body, gen, keep=method.head.variables, bound=theta)
            bodies.append(Body(method.name, index, renamed))
    return tuple(bodies)


def reduce_task(d: TaskNetwork, label: str, body: TaskNetwork) -> TaskNetwork:
    """Replace the non-primitive task ``label`` in ``d`` with ``body``.

    Each surviving constraint is rewritten in one pass by
    ``Constraint.reduced``, which reads the slot table in ``constraints``: a
    plain reference to ``label`` becomes its slot's form over the body's
    labels (last[] where the task is left, first[] where it is reached), and
    ``label`` inside an existing first[]/last[] set gives way to the body's
    labels.  Negated constraints rewrite identically.  A constraint that
    does not name ``label`` comes back unchanged, so only those that do
    (``Constraint.mentions``) are rewritten.
    """
    target = d.task_of(label)
    new_labels = body.labels
    touched = [c for c in d.formula if c.mentions(label)]
    rewritten = {c.reduced(label, new_labels) for c in touched}
    tasks = (d.tasks - {target}) | body.tasks
    return TaskNetwork(frozenset(tasks), d.formula.difference(touched) | body.formula | rewritten)
