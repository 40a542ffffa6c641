"""First-order machinery: terms, atoms, literals, states, tasks and substitutions.

Terms are function-free: a term is either a variable or a constant.  By
convention (enforced by the parser, not by these classes) identifiers that
start with an upper-case letter are variables and everything else is a
constant, so the two namespaces never collide.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Optional, Union

EQUALITY_SYMBOL = "="


def cached_hash(self) -> int:
    """The dataclass hash of the fields, ``hash`` of their tuple, computed
    once per object and kept beside the cached properties, outside
    ``__eq__`` and ``repr``.  A frozen dataclass assigns it in its class body
    (``__hash__ = cached_hash``); the decorator overwrites an inherited one."""
    cached = self.__dict__
    value = cached.get("_hash")
    if value is None:
        value = cached["_hash"] = hash(
            tuple(map(cached.__getitem__, self.__dataclass_fields__))
        )
    return value


class cached_view:
    """``functools.cached_property`` without the lock Python 3.11 takes on
    every first access: computed once and written to the object's
    ``__dict__`` (frozen dataclasses too), which later lookups read first."""

    def __init__(self, compute):
        self.compute, self.name, self.__doc__ = compute, compute.__name__, compute.__doc__

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.compute(obj)
        return value


@dataclass(frozen=True, order=True)
class Variable:
    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True, order=True)
class Constant:
    name: str

    def __str__(self) -> str:
        return self.name


Term = Union[Variable, Constant]


@dataclass(frozen=True)
class Atom:
    """A predicate applied to function-free terms."""

    symbol: str
    args: tuple[Term, ...] = ()

    __hash__ = cached_hash

    def substitute(self, theta: "Substitution") -> "Atom":
        args = _substitute_terms(self.args, theta)
        return self if args is self.args else Atom(self.symbol, args)

    @property
    def is_ground(self) -> bool:
        return not any(isinstance(a, Variable) for a in self.args)

    @cached_view
    def text(self) -> str:
        """``str(self)``, rendered once per object."""
        if not self.args:
            return self.symbol
        return f"{self.symbol}({', '.join(map(str, self.args))})"

    def __str__(self) -> str:
        return self.text


@dataclass(frozen=True)
class Literal:
    """An atom with a polarity flag; ``!`` marks negative literals."""

    atom: Atom
    positive: bool = True

    def substitute(self, theta: "Substitution") -> "Literal":
        atom = self.atom.substitute(theta)
        return self if atom is self.atom else Literal(atom, self.positive)

    def negated(self) -> "Literal":
        return Literal(self.atom, not self.positive)

    @property
    def is_ground(self) -> bool:
        return self.atom.is_ground

    @cached_view
    def text(self) -> str:
        """``str(self)``, rendered once per object."""
        return self.atom.text if self.positive else f"!{self.atom.text}"

    def __str__(self) -> str:
        return self.text


@dataclass(frozen=True)
class Task:
    """A task occurrence: an n-ary task symbol over function-free terms."""

    symbol: str
    args: tuple[Term, ...] = ()

    __hash__ = cached_hash

    def substitute(self, theta: "Substitution") -> "Task":
        args = _substitute_terms(self.args, theta)
        return self if args is self.args else Task(self.symbol, args)

    @property
    def is_ground(self) -> bool:
        return not any(isinstance(a, Variable) for a in self.args)

    @cached_view
    def variables(self) -> frozenset[Variable]:
        """``variables_of(self)``, collected once per object."""
        return frozenset(a for a in self.args if isinstance(a, Variable))

    @cached_view
    def text(self) -> str:
        """``str(self)``, rendered once per object."""
        if not self.args:
            return self.symbol
        return f"{self.symbol}({', '.join(map(str, self.args))})"

    def __str__(self) -> str:
        return self.text


@dataclass(frozen=True)
class LabelledTask:
    """A construct ``label: task`` tying a unique label to a task occurrence."""

    label: str
    task: Task

    __hash__ = cached_hash

    def substitute(self, theta: "Substitution") -> "LabelledTask":
        task = self.task.substitute(theta)
        return self if task is self.task else LabelledTask(self.label, task)

    @cached_view
    def variables(self) -> frozenset[Variable]:
        """``variables_of(self)``: the task's, shared with it."""
        return self.task.variables

    @cached_view
    def text(self) -> str:
        """``str(self)``, rendered once per object."""
        return f"{self.label}:{self.task.text}"

    def __str__(self) -> str:
        return self.text


def label_key(label: str) -> tuple[int, str]:
    """Shortlex ordering for task labels, so '9' sorts before '10'."""
    return (len(label), label)


def sorted_labels(labels) -> list[str]:
    """``labels`` in ``label_key`` order, without a key call per label."""
    return sorted(sorted(labels), key=len)


def labelled_task_key(lt: LabelledTask) -> tuple:
    return label_key(lt.label)


State = frozenset  # frozenset[Atom]; all atoms ground, closed-world semantics


class Substitution(Mapping[Variable, Term]):
    """An immutable mapping from variables to terms, applied simultaneously:
    each variable is replaced by its own term, once.  Identity bindings are
    dropped; a binding to another bound variable is kept as it is, so
    ``{X/Y, Y/X}`` swaps ``X`` and ``Y``."""

    __slots__ = ("_map", "_hash", "_domain")

    def __init__(self, mapping: Optional[Mapping[Variable, Term]] = None):
        items = mapping.items() if mapping else ()
        object.__setattr__(self, "_map", {v: t for v, t in items if t != v})
        object.__setattr__(self, "_hash", None)
        object.__setattr__(self, "_domain", None)

    def term(self, t: Term) -> Term:
        if isinstance(t, Variable):
            return self._map.get(t, t)
        return t

    @property
    def domain(self) -> frozenset[Variable]:
        """The variables this substitution binds, collected once."""
        if self._domain is None:
            object.__setattr__(self, "_domain", frozenset(self._map))
        return self._domain

    def get(self, key, default=None):
        return self._map.get(key, default)

    def items_sorted(self) -> list[tuple[Variable, Term]]:
        return sorted(self._map.items(), key=lambda vt: vt[0].name)

    def __getitem__(self, key: Variable) -> Term:
        return self._map[key]

    def __iter__(self) -> Iterator[Variable]:
        return iter(self._map)

    def __len__(self) -> int:
        return len(self._map)

    def __bool__(self) -> bool:
        return bool(self._map)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Substitution):
            return NotImplemented
        return self._map == other._map

    def __hash__(self) -> int:
        if self._hash is None:
            object.__setattr__(
                self, "_hash", hash(frozenset(self._map.items()))
            )
        return self._hash

    def __repr__(self) -> str:
        inner = ", ".join(f"{v}/{t}" for v, t in self.items_sorted())
        return "{" + inner + "}"


EMPTY_SUBSTITUTION = Substitution()


def substitute(value, theta: Substitution):
    """Apply ``theta`` to any term-bearing value, preserving its structure.

    Unchanged structure is shared: when ``theta`` is empty or binds no
    variable of ``value``, the result is ``value`` itself, and a tuple,
    frozenset or object whose parts all come back unchanged is returned as
    the same object rather than rebuilt.  Every ``substitute`` method keeps
    the same guarantee.

    Of a tuple or frozenset, a member that caches its ``variables`` (a task,
    labelled task, constraint, network or body) is rebuilt only when those meet
    the variables ``theta`` binds.  Every other such member is kept as the
    same object without a call into it, and a frozenset is assembled as
    ``(value - old) | new`` over the members that changed, so the kept ones
    are not hashed again.
    """
    if not theta or isinstance(value, Constant) or value is None:
        return value
    if isinstance(value, Variable):
        return theta.term(value)
    if isinstance(value, (tuple, frozenset)):
        bound = theta.domain
        old = [
            m for m in value
            if (mentioned := getattr(m, "variables", None)) is None
            or not mentioned.isdisjoint(bound)
        ]
        changed = {m: n for m in old if (n := substitute(m, theta)) is not m}
        if not changed:
            return value
        if isinstance(value, tuple):
            return tuple(changed.get(m, m) for m in value)
        return value.difference(changed).union(changed.values())
    sub = getattr(value, "substitute", None)
    if sub is not None:
        return sub(theta)
    raise TypeError(f"cannot substitute into {type(value).__name__}")


def _substitute_terms(args: tuple, theta: Substitution) -> tuple:
    """``args`` under ``theta``; the same tuple when no argument changes."""
    new = tuple(theta.term(a) for a in args)
    return args if all(n is a for n, a in zip(new, args)) else new


def match_task(task: Task, head: Task) -> Optional[Substitution]:
    """Unique substitution theta with ``head * theta == task``, if any.

    ``head`` is a method head, whose arguments are distinct variables; the
    match therefore never needs backtracking.  Returns None on a symbol or
    arity mismatch.
    """
    if task.symbol != head.symbol or len(task.args) != len(head.args):
        return None
    binding: dict[Variable, Term] = {}
    for pattern, actual in zip(head.args, task.args):
        if isinstance(pattern, Variable):
            if pattern in binding and binding[pattern] != actual:
                return None
            binding[pattern] = actual
        elif pattern != actual:
            return None
    return Substitution(binding)


def variables_of(value) -> frozenset[Variable]:
    """All variables occurring anywhere in a term-bearing value."""
    found: set[Variable] = set()
    _collect(value, found, Variable)
    return frozenset(found)


def constants_of(value) -> frozenset[Constant]:
    """All constants occurring anywhere in a term-bearing value."""
    found: set[Constant] = set()
    _collect(value, found, Constant)
    return frozenset(found)


def _collect(value, found: set, kind) -> None:
    if isinstance(value, kind):
        found.add(value)
        return
    if isinstance(value, (Variable, Constant, str, bool, int)) or value is None:
        return
    if isinstance(value, (tuple, frozenset, list, set)):
        for v in value:
            _collect(v, found, kind)
        return
    if hasattr(value, "__dataclass_fields__"):
        terms = getattr(value, "terms", None)
        if terms is not None:  # its fields are not its terms: a drawn body's
            _collect(terms(), found, kind)
            return
        for name in value.__dataclass_fields__:
            _collect(getattr(value, name), found, kind)
        return
    raise TypeError(f"cannot walk {type(value).__name__}")


class NameGenerator:
    """Fresh label and variable names for one run lineage, none drawn twice.

    Keeps a requested base name when it has never been used, otherwise
    appends the smallest numeric suffix that makes it fresh.  Labels and
    variables live in separate namespaces.  Used names are never released,
    so a base's smallest free suffix only grows: each namespace remembers
    where the last scan for a base stopped and the next one starts there,
    which makes a draw amortised constant time.
    """

    def __init__(self, labels: Iterable[str] = (), variables: Iterable[str] = ()):
        self._labels = set(labels)
        self._variables = set(variables)
        self._label_suffix: dict[str, int] = {}
        self._variable_suffix: dict[str, int] = {}

    def label(self, base: str = "n") -> str:
        name = self._pick(self._labels, self._label_suffix, base)
        self._labels.add(name)
        return name

    def variable(self, base: str = "V") -> Variable:
        name = self._pick(self._variables, self._variable_suffix, base)
        self._variables.add(name)
        return Variable(name)

    @staticmethod
    def _pick(used: set[str], suffix: dict[str, int], base: str) -> str:
        if base not in used:
            return base
        k = suffix.get(base, 2)
        while f"{base}_{k}" in used:
            k += 1
        suffix[base] = k
        return f"{base}_{k}"
