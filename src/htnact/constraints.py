"""Conjunctive constraint formulas over partially ordered labelled tasks.

A constraint formula is a finite set (conjunction) of possibly negated
constraints: orderings between task references, and before / after / between
state-constraints.  A task reference is a plain label or a ``first[...]`` /
``last[...]`` expression over a label set, denoting the task eventually
ordered first or last among those the labels yield.

The reference format stays in this module: a reference answers whether an
executed label reaches its start or end and whether it is done, and each
constraint body lists its reference slots with the form a reduced task's
label takes in each, so other modules ask instead of testing classes.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Union

from .model import (
    EQUALITY_SYMBOL,
    LabelledTask,
    Literal,
    Substitution,
    Variable,
    cached_hash,
    cached_view,
    labelled_task_key,
    sorted_labels,
    substitute,
)


@dataclass(frozen=True)
class LabelRef:
    """A task named by its label: reached, ended and done with that task."""

    label: str

    plain = True

    @property
    def labels(self) -> frozenset[str]:
        return frozenset((self.label,))

    def relabel(self, fn: Callable[[str], str]) -> "LabelRef":
        label = fn(self.label)
        return self if label == self.label else LabelRef(label)

    def redirect(self, old: frozenset, new: frozenset) -> "LabelRef":
        """``self`` with ``new`` in place of ``old`` inside a first[]/last[]
        set; a plain label has none."""
        return self

    def starts_at(self, label: str) -> bool:
        """Does executing ``label`` reach this reference's start?"""
        return label == self.label

    def ends_at(self, label: str) -> bool:
        """Does executing ``label`` reach this reference's end?"""
        return label == self.label

    def is_done(self, live: frozenset) -> bool:
        """Is this reference executed already, ``live`` the labels left?"""
        return self.label not in live

    def mentions(self, label: str) -> bool:
        """Does this reference name ``label``?"""
        return label == self.label

    def without(self, label: str) -> "LabelRef":
        """This reference once the executed ``label`` leaves last[] sets."""
        return self

    def __str__(self) -> str:
        return self.label


@dataclass(frozen=True)
class _SetRef:
    """A ``first[...]``/``last[...]`` expression over a label set, neither
    reached, ended nor done unless its subclass says otherwise."""

    labels: frozenset[str]

    plain = False
    keyword = ""

    def relabel(self, fn: Callable[[str], str]) -> "_SetRef":
        labels = frozenset(map(fn, self.labels))
        return self if labels == self.labels else type(self)(labels)

    def redirect(self, old: frozenset, new: frozenset) -> "_SetRef":
        if self.labels.isdisjoint(old):
            return self
        return type(self)((self.labels - old) | new)

    def starts_at(self, label: str) -> bool:
        return False

    def ends_at(self, label: str) -> bool:
        return False

    def is_done(self, live: frozenset) -> bool:
        return False

    def mentions(self, label: str) -> bool:
        return label in self.labels

    def without(self, label: str) -> "_SetRef":
        return self

    def __str__(self) -> str:
        return f"{self.keyword}[{','.join(sorted_labels(self.labels))}]"


class FirstRef(_SetRef):
    """Reached when any member is executed."""

    keyword = "first"

    def starts_at(self, label: str) -> bool:
        return label in self.labels


class LastRef(_SetRef):
    """Ended by executing its one remaining member; done once empty."""

    keyword = "last"

    def ends_at(self, label: str) -> bool:
        return len(self.labels) == 1 and label in self.labels

    def is_done(self, live: frozenset) -> bool:
        return not self.labels

    def without(self, label: str) -> "LastRef":
        return LastRef(self.labels - {label}) if label in self.labels else self


TaskRef = Union[LabelRef, FirstRef, LastRef]


# Each constraint body names its reference slots (``refs``, rebuilt by
# ``with_refs``) and, in ``forms``, the expression a reduced task's label
# takes in each slot: a task is left at its last subtask and reached at its
# first.

@dataclass(frozen=True)
class Ordering:
    before: TaskRef
    after: TaskRef

    forms = (LastRef, FirstRef)

    @property
    def refs(self) -> tuple[TaskRef, ...]:
        return (self.before, self.after)

    def with_refs(self, before: TaskRef, after: TaskRef) -> "Ordering":
        return Ordering(before, after)

    def substitute(self, theta: Substitution) -> "Ordering":
        return self

    def __str__(self) -> str:
        return f"ord {self.before} < {self.after}"


@dataclass(frozen=True)
class Before:
    literal: Literal
    ref: TaskRef

    forms = (FirstRef,)

    @property
    def refs(self) -> tuple[TaskRef, ...]:
        return (self.ref,)

    def with_refs(self, ref: TaskRef) -> "Before":
        return Before(self.literal, ref)

    def substitute(self, theta: Substitution) -> "Before":
        literal = self.literal.substitute(theta)
        return self if literal is self.literal else Before(literal, self.ref)

    def __str__(self) -> str:
        return f"before {self.literal} {self.ref}"


@dataclass(frozen=True)
class After:
    ref: TaskRef
    literal: Literal

    forms = (LastRef,)

    @property
    def refs(self) -> tuple[TaskRef, ...]:
        return (self.ref,)

    def with_refs(self, ref: TaskRef) -> "After":
        return After(ref, self.literal)

    def substitute(self, theta: Substitution) -> "After":
        literal = self.literal.substitute(theta)
        return self if literal is self.literal else After(self.ref, literal)

    def __str__(self) -> str:
        return f"after {self.ref} {self.literal}"


@dataclass(frozen=True)
class Between:
    start: TaskRef
    literal: Literal
    end: TaskRef

    forms = (LastRef, FirstRef)

    @property
    def refs(self) -> tuple[TaskRef, ...]:
        return (self.start, self.end)

    def with_refs(self, start: TaskRef, end: TaskRef) -> "Between":
        return Between(start, self.literal, end)

    def substitute(self, theta: Substitution) -> "Between":
        literal = self.literal.substitute(theta)
        if literal is self.literal:
            return self
        return Between(self.start, literal, self.end)

    def __str__(self) -> str:
        return f"between {self.start} {self.literal} {self.end}"


ConstraintBody = Union[Ordering, Before, After, Between]


@dataclass(frozen=True)
class Constraint:
    body: ConstraintBody
    negated: bool = False

    __hash__ = cached_hash

    def substitute(self, theta: Substitution) -> "Constraint":
        body = self.body.substitute(theta)
        return self if body is self.body else Constraint(body, self.negated)

    def refs(self) -> tuple[TaskRef, ...]:
        return self.body.refs

    def labels(self) -> frozenset[str]:
        return frozenset().union(*(ref.labels for ref in self.body.refs))

    def mentions(self, label: str) -> bool:
        """Does a reference of this constraint name ``label``?  Asked of each
        reference: a constraint keeps no label set of its own."""
        for ref in self.body.refs:
            if ref.mentions(label):
                return True
        return False

    def rewrite_refs(self, fn) -> "Constraint":
        """``self`` with ``fn`` applied to each reference; ``self`` itself
        when ``fn`` hands every reference back unchanged."""
        refs = self.body.refs
        return self._with_refs(refs, tuple(map(fn, refs)))

    def reduced(self, label: str, new: frozenset) -> "Constraint":
        """``self`` once the task ``label`` is reduced to tasks labelled
        ``new``: a plain reference to it takes its slot's form over ``new``,
        and ``new`` takes its place inside first[]/last[] sets."""
        plain, old = LabelRef(label), frozenset((label,))
        refs = self.body.refs
        return self._with_refs(refs, tuple(
            form(new) if ref == plain else ref.redirect(old, new)
            for ref, form in zip(refs, self.body.forms)
        ))

    def misread_refs(self) -> tuple[TaskRef, ...]:
        """References neither plain nor in their slot's own form: acting
        reads them differently from planning."""
        body = self.body
        return tuple(
            ref for ref, form in zip(body.refs, body.forms) if not _fits(ref, form)
        )

    def _with_refs(self, refs: tuple, new: tuple) -> "Constraint":
        if all(n is r for n, r in zip(new, refs)):
            return self
        return Constraint(self.body.with_refs(*new), self.negated)

    @cached_view
    def variables(self) -> frozenset[Variable]:
        """``variables_of(self)``, collected once per object: task references
        hold labels only, so the variables are the literal's."""
        literal = getattr(self.body, "literal", None)
        if literal is None:
            return frozenset()
        return frozenset(a for a in literal.atom.args if isinstance(a, Variable))

    @cached_view
    def text(self) -> str:
        """``str(self)``, rendered once per object."""
        return f"not {self.body}" if self.negated else str(self.body)

    def __str__(self) -> str:
        return self.text


def _fits(ref: TaskRef, form: type) -> bool:
    """Is ``ref``, in a slot whose reduced form is ``form``, read by acting as
    planning reads it?  Plain labels and the slot's own form are."""
    return ref.plain or type(ref) is form


def render_formula(formula: Iterable[Constraint]) -> str:
    return " & ".join(sorted(map(str, formula)))


@dataclass(frozen=True)
class TaskNetwork:
    """A set of labelled tasks together with a conjunctive constraint formula."""

    tasks: frozenset[LabelledTask]
    formula: frozenset[Constraint]

    __hash__ = cached_hash

    def substitute(self, theta: Substitution) -> "TaskNetwork":
        if self.variables.isdisjoint(theta.domain):
            return self
        return TaskNetwork(substitute(self.tasks, theta), substitute(self.formula, theta))

    @cached_view
    def labels(self) -> frozenset[str]:
        return frozenset(lt.label for lt in self.tasks)

    @cached_view
    def variables(self) -> frozenset[Variable]:
        """Every variable of the tasks and the formula, collected once from the
        members' own cached ``variables``."""
        return frozenset().union(
            *(lt.variables for lt in self.tasks),
            *(c.variables for c in self.formula),
        )

    def task_of(self, label: str) -> LabelledTask:
        for lt in self.tasks:
            if lt.label == label:
                return lt
        raise KeyError(label)

    def sorted_tasks(self) -> list[LabelledTask]:
        return sorted(self.tasks, key=labelled_task_key)

    @cached_view
    def has_negated_between(self) -> bool:
        """Does the formula hold a negated between-constraint?  Its discharge
        is the one rewrite of an action that reads the state."""
        return any(c.negated and isinstance(c.body, Between) for c in self.formula)

    def __str__(self) -> str:
        tasks = " ".join(str(t) for t in self.sorted_tasks())
        return f"<{tasks} | {render_formula(self.formula)}>"


def network(tasks: Iterable[LabelledTask], formula: Iterable[Constraint] = ()) -> TaskNetwork:
    return TaskNetwork(frozenset(tasks), frozenset(formula))


def holds(literal: Literal, state: frozenset) -> bool:
    """Closed-world ground literal evaluation against a state.

    The binary symbol '=' is built in: its extension is the identity over
    the constant universe.
    """
    if not literal.is_ground:
        raise ValueError(f"literal {literal} is not ground")
    atom = literal.atom
    if atom.symbol == EQUALITY_SYMBOL and len(atom.args) == 2:
        value = atom.args[0] == atom.args[1]
    else:
        value = atom in state
    return value if literal.positive else not value


def ordering_edges(formula: Iterable[Constraint]) -> set[tuple[str, str]]:
    """Label pairs (a, b) where a is guaranteed to precede b in any completion.

    A positive ordering contributes an edge from every label known to finish
    before the right side begins: each side's labels when it is plain or in
    its slot's own form (``Ordering.forms``), a whole last[] set on the left
    and a whole first[] set on the right.
    """
    edges: set[tuple[str, str]] = set()
    for c in formula:
        if c.negated or not isinstance(c.body, Ordering):
            continue
        lefts, rights = (
            ref.labels if _fits(ref, form) else ()
            for ref, form in zip(c.body.refs, c.body.forms)
        )
        edges.update((a, b) for a in lefts for b in rights)
    return edges


def precedence_closure(formula: Iterable[Constraint]) -> set[tuple[str, str]]:
    """Transitive closure of the guaranteed-precedence edges."""
    edges = ordering_edges(formula)
    succ: dict[str, set[str]] = {}
    for a, b in edges:
        succ.setdefault(a, set()).add(b)
    closed: set[tuple[str, str]] = set()
    for start in succ:
        stack = list(succ[start])
        seen: set[str] = set()
        while stack:
            node = stack.pop()
            if node in seen:
                continue
            seen.add(node)
            closed.add((start, node))
            stack.extend(succ.get(node, ()))
    return closed
