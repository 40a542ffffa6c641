"""Operators, methods, domains, fresh renaming and domain validation.

A domain partitions task symbols into primitive ones (backed by exactly one
operator) and non-primitive ones (backed by one or more methods, kept in
declaration order).  ``nop`` is a reserved primitive with empty precondition
and effects; every domain carries it.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

from .constraints import After, Constraint, Ordering, TaskNetwork, precedence_closure
from .model import (
    EMPTY_SUBSTITUTION,
    Atom,
    Constant,
    LabelledTask,
    Literal,
    NameGenerator,
    Substitution,
    Task,
    Variable,
    cached_view,
    constants_of,
    variables_of,
)

NOP_SYMBOL = "nop"


@dataclass(frozen=True)
class Operator:
    """A STRIPS-like operator for one primitive task symbol."""

    symbol: str
    params: tuple[Variable, ...] = ()
    precondition: tuple[Literal, ...] = ()
    add: tuple[Atom, ...] = ()
    delete: tuple[Atom, ...] = ()

    def instantiate(self, task: Task) -> tuple[tuple[Literal, ...], tuple[Atom, ...], tuple[Atom, ...]]:
        """Precondition and effects with parameters bound to the task's arguments."""
        return (self.precondition_for(task), *self.effects_for(task))

    def precondition_for(self, task: Task) -> tuple[Literal, ...]:
        """The precondition with parameters bound to the task's arguments."""
        theta = self._binding(task)
        return tuple(l.substitute(theta) for l in self.precondition)

    def effects_for(self, task: Task) -> tuple[tuple[Atom, ...], tuple[Atom, ...]]:
        """Add and delete effects with parameters bound to the task's arguments."""
        theta = self._binding(task)
        return (
            tuple(a.substitute(theta) for a in self.add),
            tuple(a.substitute(theta) for a in self.delete),
        )

    def _binding(self, task: Task) -> Substitution:
        if task.symbol != self.symbol or len(task.args) != len(self.params):
            raise ValueError(f"operator {self.symbol}/{len(self.params)} does not match {task}")
        return Substitution(dict(zip(self.params, task.args)))


NOP_OPERATOR = Operator(NOP_SYMBOL)


class RenamingPlan:
    """How a template network is renamed apart, worked out once per template.

    It records the template's labels in the order their fresh names are
    drawn (sorted), its variables (sorted) and those of them that are drawn
    fresh (the ones outside ``keep``).  A copy substitutes only the tasks
    and constraints that hold a variable (their cached ``variables``): a
    ground task or literal is shared by every copy.  The plan holds the
    template's own names only, never a drawn one, so one plan serves every
    lineage and search.

    ``draw`` commits a copy's names to a generator; ``build`` makes the copy
    from them.  ``fresh_rename`` does both at once, and a ``reduction.Body``
    draws when its task is offered and builds when it is taken.
    """

    __slots__ = ("template", "labels", "variables", "renamable")

    def __init__(self, template: TaskNetwork, keep: frozenset = frozenset()):
        self.template = template
        self.labels = tuple(sorted(template.labels))
        self.variables = tuple(sorted(template.variables))
        self.renamable = tuple(v for v in self.variables if v not in keep)

    def draw(
        self, gen: NameGenerator, bound: Substitution = EMPTY_SUBSTITUTION
    ) -> tuple[tuple[str, ...], Substitution]:
        """A fresh label for each of ``labels``, in order, then a fresh
        variable for each renamable one; a kept variable takes its term in
        ``bound``.  The substitution names the template's variables only."""
        fresh = tuple(gen.label(label) for label in self.labels)
        theta = {v: gen.variable(v.name) for v in self.renamable}
        theta.update((v, t) for v in self.variables if (t := bound.get(v)) is not None)
        return fresh, Substitution(theta)

    def build(self, fresh: tuple[str, ...], theta: Substitution) -> TaskNetwork:
        """The template with ``fresh[i]`` for ``labels[i]`` and ``theta``
        applied, both at once."""
        names = dict(zip(self.labels, fresh))

        def rename_ref(ref):
            return ref.relabel(lambda label: names.get(label, label))

        tasks = frozenset(
            LabelledTask(names[lt.label], lt.task.substitute(theta) if lt.variables else lt.task)
            for lt in self.template.tasks
        )
        formula = frozenset(
            (c.substitute(theta) if c.variables else c).rewrite_refs(rename_ref)
            for c in self.template.formula
        )
        return TaskNetwork(tasks, formula)


@dataclass(frozen=True)
class Method:
    """A non-primitive task head paired with the task network that refines it."""

    name: str
    head: Task
    body: TaskNetwork

    @cached_view
    def plan(self) -> RenamingPlan:
        """How every body drawn from this method is renamed: the head's
        variables are kept, to take the task's terms."""
        return RenamingPlan(self.body, self.head.variables)


@dataclass(frozen=True)
class Domain:
    name: str
    operators: tuple[Operator, ...]
    methods: tuple[Method, ...]

    @cached_view
    def operator_index(self) -> dict[str, Operator]:
        return {op.symbol: op for op in self.operators}

    @cached_view
    def method_index(self) -> dict[str, tuple[tuple[int, Method], ...]]:
        index: dict[str, list[tuple[int, Method]]] = {}
        for i, m in enumerate(self.methods):
            index.setdefault(m.head.symbol, []).append((i, m))
        return {sym: tuple(ms) for sym, ms in index.items()}

    def is_primitive(self, symbol: str) -> bool:
        return symbol in self.operator_index

    def is_nonprimitive(self, symbol: str) -> bool:
        return symbol in self.method_index

    def operator_for(self, task: Task) -> Operator:
        try:
            return self.operator_index[task.symbol]
        except KeyError:
            raise KeyError(f"no operator for task symbol {task.symbol!r}") from None

    def methods_for(self, symbol: str) -> tuple[tuple[int, Method], ...]:
        return self.method_index.get(symbol, ())

    @cached_view
    def constants(self) -> frozenset[Constant]:
        return constants_of(self.operators) | constants_of(
            tuple((m.head, m.body) for m in self.methods)
        )


def make_domain(name: str, operators: Iterable[Operator], methods: Iterable[Method]) -> Domain:
    """Build a domain, adding the reserved ``nop`` operator when absent."""
    ops = tuple(operators)
    if not any(op.symbol == NOP_SYMBOL for op in ops):
        ops = ops + (NOP_OPERATOR,)
    return Domain(name, ops, tuple(methods))


def fresh_rename(
    body: TaskNetwork,
    gen: NameGenerator,
    keep: frozenset = frozenset(),
    bound: Substitution = EMPTY_SUBSTITUTION,
) -> TaskNetwork:
    """An isomorphic copy of ``body`` with fresh labels and fresh variables.

    Variables in ``keep`` (a method head's parameters) are not renamed but
    take their term in ``bound`` (their match against a task); everything
    else is standardized apart.  Both are one map, applied simultaneously,
    so neither rewrites a term the other put in.  The names are drawn, then
    the copy built, by a ``RenamingPlan`` of ``body``: the same draw and
    build a method's bodies go through (``Method.plan``).
    """
    plan = RenamingPlan(body, keep)
    return plan.build(*plan.draw(gen, bound))


def run_generator(labels: Iterable[str] = (), values=()) -> NameGenerator:
    """A fresh-name generator seeded with the names visible at run time.

    Method templates are intentionally not reserved: their labels and free
    variables only ever reach a run through renamed instances, so the first
    instantiation may keep the declared names.
    """
    return NameGenerator(labels, (v.name for v in variables_of(tuple(values))))


# -- validation ---------------------------------------------------------------

@dataclass(frozen=True)
class Violation:
    check: str
    subject: str
    message: str

    def __str__(self) -> str:
        return f"[{self.check}] {self.subject}: {self.message}"


@dataclass
class ValidationReport:
    violations: list[Violation] = field(default_factory=list)
    warnings: list[Violation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def render(self) -> str:
        lines = [f"error {v}" for v in self.violations]
        lines += [f"warning {w}" for w in self.warnings]
        return "\n".join(lines) if lines else "domain valid"


def body_is_big_enough(method: Method) -> bool:
    return len(method.body.tasks) > 1


def body_has_trailing_task(method: Method) -> bool:
    return find_trailing_task(method.body) is not None


def find_trailing_task(body: TaskNetwork) -> Optional[str]:
    """A task ordered after every other task and carrying no after-constraint."""
    closure = precedence_closure(body.formula)
    labels = body.labels
    after_constrained = {
        lab
        for c in body.formula
        if isinstance(c.body, After)
        for lab in c.body.ref.labels
    }
    for lab in sorted(labels):
        others = labels - {lab}
        if all((other, lab) in closure for other in others) and lab not in after_constrained:
            return lab
    return None


def ordering_consistent(body: TaskNetwork) -> bool:
    """No cycle among guaranteed precedences, and no ordering both asserted and denied."""
    closure = precedence_closure(body.formula)
    if any((a, a) in closure for a, _ in closure):
        return False
    for c in body.formula:
        if c.negated and isinstance(c.body, Ordering):
            before, after = c.body.before, c.body.after
            if before.plain and after.plain:
                if (before.label, after.label) in closure:
                    return False
    return True


def validate_domain(domain: Domain) -> ValidationReport:
    """Check every assumption the acting semantics relies on; never raises."""
    report = ValidationReport()

    seen_ops: set[str] = set()
    for op in domain.operators:
        subject = f"operator {op.symbol}"
        if op.symbol in seen_ops:
            report.violations.append(
                Violation("unique-operator", subject, "task symbol has more than one operator")
            )
        seen_ops.add(op.symbol)
        if len(set(op.params)) != len(op.params):
            report.violations.append(
                Violation("operator-params", subject, "parameters are not distinct")
            )
        free = (
            variables_of(op.precondition) | variables_of(op.add) | variables_of(op.delete)
        ) - set(op.params)
        if free:
            names = ", ".join(sorted(v.name for v in free))
            report.violations.append(
                Violation("operator-params", subject, f"variables not in parameter list: {names}")
            )
        if op.symbol == NOP_SYMBOL and (op.precondition or op.add or op.delete):
            report.violations.append(
                Violation("reserved-nop", subject, "nop must have empty precondition and effects")
            )
        if op.symbol in domain.method_index:
            report.violations.append(
                Violation("symbol-kind", subject, "task symbol is both operator- and method-backed")
            )

    seen_labels: dict[str, str] = {}
    for method in domain.methods:
        subject = f"method {method.name}"
        if len(set(method.head.args)) != len(method.head.args) or any(
            not isinstance(a, Variable) for a in method.head.args
        ):
            report.violations.append(
                Violation("method-head", subject, "head arguments must be distinct variables")
            )
        if not body_is_big_enough(method):
            report.violations.append(
                Violation("body-size", subject, "method body must contain more than one task")
            )
        if not body_has_trailing_task(method):
            report.violations.append(
                Violation(
                    "trailing-task",
                    subject,
                    "no task ordered after all others and free of after-constraints",
                )
            )
        if not ordering_consistent(method.body):
            report.violations.append(
                Violation("ordering-consistency", subject, "inconsistent ordering constraints")
            )
        for lt in method.body.tasks:
            owner = seen_labels.get(lt.label)
            if owner is not None and owner != method.name:
                report.violations.append(
                    Violation(
                        "label-uniqueness",
                        subject,
                        f"label {lt.label} already used in {owner}",
                    )
                )
            seen_labels[lt.label] = method.name
            symbol = lt.task.symbol
            if not domain.is_primitive(symbol) and not domain.is_nonprimitive(symbol):
                report.violations.append(
                    Violation("symbol-kind", subject, f"task symbol {symbol!r} has no operator or method")
                )
        for c in method.body.formula:
            if c.negated and isinstance(c.body, Ordering):
                left = c.body.before
                for label in sorted(left.labels & method.body.labels):
                    task = method.body.task_of(label).task
                    if left.ends_at(label) and domain.is_nonprimitive(task.symbol):
                        report.warnings.append(
                            Violation(
                                "negated-ordering-left",
                                subject,
                                f"negated ordering on non-primitive task {label} does not "
                                "defer it; only actions are deferred by negated orderings",
                            )
                        )
            report.warnings += reference_form_warnings(c, subject)

    return report


def reference_form_warnings(constraint: Constraint, subject: str) -> list[Violation]:
    """A warning for each reference of ``constraint`` that is neither a plain
    label nor its slot's own form, which acting reads differently from
    planning: in a method body or in a problem's network."""
    return [
        Violation(
            "reference-form",
            subject,
            f"{ref} in {constraint} is neither a plain label nor its slot's "
            "own form; acting reads it differently from planning",
        )
        for ref in constraint.misread_refs()
    ]


def trailing_task_warnings(network: TaskNetwork, subject: str) -> list[Violation]:
    """A warning when ``network`` carries an after-constraint but no trailing
    task (``find_trailing_task``), the rule every method body obeys: acting
    checks an after-constraint only before a later action, so one on the
    last action goes unchecked, while planning checks it."""
    if find_trailing_task(network) is not None or not any(
        isinstance(c.body, After) for c in network.formula
    ):
        return []
    return [
        Violation(
            "trailing-task",
            subject,
            "an after-constraint but no task ordered after all others and free "
            "of after-constraints; acting reads an after-constraint on the last "
            "action differently from planning",
        )
    ]
