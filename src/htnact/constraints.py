"""Conjunctive constraint formulas over partially ordered labelled tasks.

A constraint formula is a finite set (conjunction) of possibly negated
constraints: orderings between task references, and before / after / between
state-constraints.  A task reference is a plain label or a ``first[...]`` /
``last[...]`` expression over a label set, denoting the task eventually
ordered first or last among those the labels yield.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Optional, Union

from .model import (
    EQUALITY_SYMBOL,
    LabelledTask,
    Literal,
    Substitution,
    Variable,
    cached_hash,
    label_key,
    labelled_task_key,
    substitute,
)


@dataclass(frozen=True)
class LabelRef:
    label: str

    def substitute(self, theta: Substitution) -> "LabelRef":
        return self

    def __str__(self) -> str:
        return self.label


@dataclass(frozen=True)
class FirstRef:
    labels: frozenset[str]

    def substitute(self, theta: Substitution) -> "FirstRef":
        return self

    def __str__(self) -> str:
        return f"first[{','.join(sorted(self.labels, key=label_key))}]"


@dataclass(frozen=True)
class LastRef:
    labels: frozenset[str]

    def substitute(self, theta: Substitution) -> "LastRef":
        return self

    def __str__(self) -> str:
        return f"last[{','.join(sorted(self.labels, key=label_key))}]"


TaskRef = Union[LabelRef, FirstRef, LastRef]


def ref_labels(ref: TaskRef) -> frozenset[str]:
    if isinstance(ref, LabelRef):
        return frozenset((ref.label,))
    return ref.labels


@dataclass(frozen=True)
class Ordering:
    before: TaskRef
    after: TaskRef

    def substitute(self, theta: Substitution) -> "Ordering":
        return self

    def __str__(self) -> str:
        return f"ord {self.before} < {self.after}"


@dataclass(frozen=True)
class Before:
    literal: Literal
    ref: TaskRef

    def substitute(self, theta: Substitution) -> "Before":
        literal = self.literal.substitute(theta)
        return self if literal is self.literal else Before(literal, self.ref)

    def __str__(self) -> str:
        return f"before {self.literal} {self.ref}"


@dataclass(frozen=True)
class After:
    ref: TaskRef
    literal: Literal

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
        b = self.body
        if isinstance(b, Ordering):
            return (b.before, b.after)
        if isinstance(b, Before):
            return (b.ref,)
        if isinstance(b, After):
            return (b.ref,)
        return (b.start, b.end)

    def labels(self) -> frozenset[str]:
        out: set[str] = set()
        for ref in self.refs():
            out |= ref_labels(ref)
        return frozenset(out)

    @cached_property
    def sorted_labels(self) -> tuple[str, ...]:
        """``labels()`` in ``label_key`` order, sorted once per object."""
        return tuple(sorted(self.labels(), key=label_key))

    def rewrite_refs(self, fn) -> "Constraint":
        """``self`` with ``fn`` applied to each reference; ``self`` itself
        when ``fn`` hands every reference back unchanged."""
        refs = self.refs()
        new = tuple(map(fn, refs))
        if all(n is r for n, r in zip(new, refs)):
            return self
        b = self.body
        if isinstance(b, Ordering):
            body: ConstraintBody = Ordering(*new)
        elif isinstance(b, Before):
            body = Before(b.literal, *new)
        elif isinstance(b, After):
            body = After(*new, b.literal)
        else:
            body = Between(new[0], b.literal, new[1])
        return Constraint(body, self.negated)

    @cached_property
    def variables(self) -> frozenset[Variable]:
        """``variables_of(self)``, collected once per object: task references
        hold labels only, so the variables are the literal's."""
        literal = getattr(self.body, "literal", None)
        if literal is None:
            return frozenset()
        return frozenset(a for a in literal.atom.args if isinstance(a, Variable))

    @cached_property
    def text(self) -> str:
        """``str(self)``, rendered once per object."""
        return f"not {self.body}" if self.negated else str(self.body)

    def __str__(self) -> str:
        return self.text


def render_formula(formula: Iterable[Constraint]) -> str:
    return " & ".join(sorted(map(str, formula)))


@dataclass(frozen=True)
class TaskNetwork:
    """A set of labelled tasks together with a conjunctive constraint formula."""

    tasks: frozenset[LabelledTask]
    formula: frozenset[Constraint]

    __hash__ = cached_hash

    def substitute(self, theta: Substitution) -> "TaskNetwork":
        tasks = substitute(self.tasks, theta)
        formula = substitute(self.formula, theta)
        if tasks is self.tasks and formula is self.formula:
            return self
        return TaskNetwork(tasks, formula)

    @cached_property
    def labels(self) -> frozenset[str]:
        return frozenset(lt.label for lt in self.tasks)

    @cached_property
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

    def __str__(self) -> str:
        tasks = " ".join(str(t) for t in self.sorted_tasks())
        return f"<{tasks} | {render_formula(self.formula)}>"


def label_renamer() -> Callable[[str], str]:
    """Maps each label to ``#k``, numbering labels in order of first request."""
    mapping: dict[str, str] = {}
    return lambda label: mapping.setdefault(label, f"#{len(mapping)}")


def network_fingerprint(
    network: TaskNetwork, rename: Optional[Callable[[str], str]] = None
) -> str:
    """``network`` with its labels renamed to ``#k``.

    Labels are numbered in a deterministic traversal order: the tasks sorted
    by task text and then label, then the labels of each constraint, taking
    the constraints in the order of their text and each one's labels in
    ``label_key`` order.  Distinct structures never share a fingerprint.
    Networks that differ only by a renaming of their labels share one when
    the renaming keeps that order, not otherwise: tasks with the same text
    are told apart by label order, and a constraint's text names its labels.
    Passing ``rename`` continues one renaming across several networks.

    Task and constraint texts and each constraint's sorted labels are cached
    on those values, so a call sorts and renames but renders nothing again.
    """
    rename = rename or label_renamer()
    tasks = sorted(network.tasks, key=lambda lt: (lt.task.text, label_key(lt.label)))
    pieces = [f"{rename(lt.label)}:{lt.task.text}" for lt in tasks]
    formula = sorted(network.formula, key=lambda c: c.text)
    for c in formula:
        for label in c.sorted_labels:
            rename(label)
    rendered = sorted(_renamed_constraint(c, rename) for c in formula)
    return " ".join(pieces) + " | " + " & ".join(rendered)


def _renamed_constraint(c: Constraint, rename: Callable[[str], str]) -> str:
    def ref_str(ref: TaskRef) -> str:
        if isinstance(ref, LabelRef):
            return rename(ref.label)
        inner = ",".join(sorted(rename(label) for label in ref.labels))
        return ("first[" if isinstance(ref, FirstRef) else "last[") + inner + "]"

    parts = [type(c.body).__name__] + [ref_str(ref) for ref in c.refs()]
    literal = getattr(c.body, "literal", None)
    if literal is not None:
        parts.append(literal.text)
    if c.negated:
        parts.append("~")
    return " ".join(parts)


def network(tasks: Iterable[LabelledTask], formula: Iterable[Constraint] = ()) -> TaskNetwork:
    return TaskNetwork(frozenset(tasks), frozenset(formula))


def rewrite_labels(formula: frozenset, label: str, replacement: frozenset) -> frozenset:
    """Replace ``label`` with ``replacement`` inside first[]/last[] label sets."""
    return rewrite_label_set(formula, frozenset((label,)), replacement)


def rewrite_label_set(
    formula: frozenset, old: frozenset, replacement: frozenset
) -> frozenset:
    """Replace any occurrence of labels from ``old`` in first[]/last[] sets."""

    def rewrite(ref: TaskRef) -> TaskRef:
        if isinstance(ref, FirstRef) and ref.labels & old:
            return FirstRef((ref.labels - old) | replacement)
        if isinstance(ref, LastRef) and ref.labels & old:
            return LastRef((ref.labels - old) | replacement)
        return ref

    return frozenset(c.rewrite_refs(rewrite) for c in formula)


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


def satisfies(state: frozenset, literals: Iterable[Literal]) -> bool:
    return all(holds(lit, state) for lit in literals)


def ordering_edges(formula: Iterable[Constraint]) -> set[tuple[str, str]]:
    """Label pairs (a, b) where a is guaranteed to precede b in any completion.

    A positive ordering contributes an edge from every label known to finish
    before the right side begins: plain labels and whole last[] sets on the
    left, plain labels and whole first[] sets on the right.
    """
    edges: set[tuple[str, str]] = set()
    for c in formula:
        if c.negated or not isinstance(c.body, Ordering):
            continue
        left, right = c.body.before, c.body.after
        if isinstance(left, LabelRef):
            lefts: frozenset[str] = frozenset((left.label,))
        elif isinstance(left, LastRef):
            lefts = left.labels
        else:
            lefts = frozenset()
        if isinstance(right, LabelRef):
            rights: frozenset[str] = frozenset((right.label,))
        elif isinstance(right, FirstRef):
            rights = right.labels
        else:
            rights = frozenset()
        edges |= {(a, b) for a in lefts for b in rights}
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
