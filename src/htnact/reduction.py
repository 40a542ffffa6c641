"""Method relevance and the reduction rewriting of task networks."""
from __future__ import annotations

from dataclasses import dataclass, field

from .constraints import TaskNetwork
from .domain import Domain, Method
from .model import (
    NameGenerator,
    Substitution,
    Task,
    Variable,
    cached_hash,
    cached_view,
    constants_of,
    match_task,
)


@dataclass(frozen=True)
class Body:
    """A relevant method body under a fresh renaming, tagged with its method.

    A body is the renaming it was drawn with (``relevant_method_bodies``):
    ``fresh``, the fresh label of each of the template's labels in the
    order of its plan (``domain.RenamingPlan``), and ``theta``, the term of
    each of the template's variables.  The renamed ``network`` is built from
    them on first read, so only a body that is taken is built; one held
    untried in a couple, compared in replay or bound by an action is not.
    Its variables, label set, equality and hash read the renaming alone, and
    ``substitute`` composes a binding after it.

    ``index`` is the declaring method's position in the domain, used as the
    canonical order for alternative bodies.
    """

    template: Method = field(repr=False)
    index: int
    fresh: tuple[str, ...]
    theta: Substitution

    __hash__ = cached_hash

    @property
    def method(self) -> str:
        return self.template.name

    @cached_view
    def labels(self) -> frozenset[str]:
        """The network's labels."""
        return frozenset(self.fresh)

    @cached_view
    def variables(self) -> frozenset[Variable]:
        """The network's, the terms ``theta`` gives the template's variables:
        ``model.substitute`` skips a body a binding misses."""
        term = self.theta.term
        return frozenset(
            t for t in map(term, self.template.plan.variables) if isinstance(t, Variable)
        )

    @cached_view
    def network(self) -> TaskNetwork:
        """The renamed network, built on first read."""
        return self.template.plan.build(self.fresh, self.theta)

    def terms(self) -> tuple:
        """The network's terms, for ``model.variables_of`` and
        ``model.constants_of``, which do not walk the template."""
        variables = self.template.plan.variables
        return (*constants_of(self.template.body), *map(self.theta.term, variables))

    def substitute(self, theta: Substitution) -> "Body":
        """This body with ``theta`` applied after its renaming.  A network
        already built is substituted along, sharing what ``theta`` misses."""
        if self.variables.isdisjoint(theta.domain):
            return self
        own, term = self.theta.term, theta.term
        composed = Substitution({v: term(own(v)) for v in self.template.plan.variables})
        body = Body(self.template, self.index, self.fresh, composed)
        built = self.__dict__.get("network")
        if built is not None:
            body.__dict__["network"] = built.substitute(theta)
        return body

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

    Declaration order is preserved.  Each body's names are drawn from
    ``gen`` here, method by method, in its plan's order (``Method.plan``),
    exactly as ``domain.fresh_rename`` draws them; its network is built only
    when read (``Body``).  Primitive task symbols are a contract violation;
    an empty result just means no method head matches.  ``gen`` avoids
    every name of the network ``task`` sits in, so the body's fresh
    variables never meet the task's: a run lineage's generator
    (``acting.RunContext``) and an oracle search's never draw a name twice.
    """
    if domain.is_primitive(task.symbol):
        raise ValueError(f"task {task} is primitive; it has no relevant methods")
    bodies = []
    for index, method in domain.methods_for(task.symbol):
        bound = match_task(task, method.head)
        if bound is not None:
            bodies.append(Body(method, index, *method.plan.draw(gen, bound)))
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
