"""Textual formats for domains, problems and event scenarios.

The grammar is line oriented and deliberately small:

* ``.htn`` files declare a domain: ``operator`` blocks with ``pre:`` /
  ``add:`` / ``del:`` lines, and ``method`` blocks with ``tasks:`` and
  ``constraints:`` sections.
* ``.prob`` files give the initial state and an optional initial network.
* ``.evt`` files map loop iterations to observed task sets.

Identifiers starting with an upper-case letter are variables, everything
else is a constant.  Literals negate with a leading ``!``; whole constraints
negate with a leading ``not``.  ``#`` starts a comment.  Parsing never
raises on malformed input; diagnostics carry line and column numbers.
"""
from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Optional

from .constraints import (
    After,
    Before,
    Between,
    Constraint,
    FirstRef,
    LabelRef,
    LastRef,
    Ordering,
    TaskNetwork,
    TaskRef,
)
from .domain import (
    Domain,
    Method,
    Operator,
    find_trailing_task,
    make_domain,
)
from .model import (
    Atom,
    Constant,
    LabelledTask,
    Literal,
    Task,
    Term,
    Variable,
)

IDENT = r"[A-Za-z0-9_][A-Za-z0-9_\-]*"
_IDENT_RE = re.compile(IDENT)
# a task's label; ``[ \t]*`` because the cursor skips only spaces and tabs
_LABEL_RE = re.compile(rf"[ \t]*({IDENT})[ \t]*:")


@dataclass(frozen=True)
class Diagnostic:
    severity: str  # "error" | "warning"
    message: str
    line: int
    column: int = 1

    def __str__(self) -> str:
        return f"{self.severity}:{self.line}:{self.column}: {self.message}"


@dataclass
class ParseResult:
    value: object
    diagnostics: list[Diagnostic] = field(default_factory=list)

    @property
    def errors(self) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.severity == "error"]

    @property
    def ok(self) -> bool:
        return self.value is not None and not self.errors


class _Cursor:
    """A lexical cursor over one source line."""

    def __init__(self, text: str, line: int, diagnostics: list[Diagnostic]):
        self.text = text
        self.pos = 0
        self.line = line
        self.diagnostics = diagnostics

    def error(self, message: str) -> None:
        self.diagnostics.append(
            Diagnostic("error", message, self.line, self.pos + 1)
        )

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos] in " \t":
            self.pos += 1

    def at_end(self) -> bool:
        self.skip_ws()
        return self.pos >= len(self.text)

    def take(self, token: str) -> bool:
        self.skip_ws()
        if self.text.startswith(token, self.pos):
            self.pos += len(token)
            return True
        return False

    def take_word(self, word: str) -> bool:
        """Take ``word`` only when it is not a prefix of a longer identifier."""
        self.skip_ws()
        end = self.pos + len(word)
        if not self.text.startswith(word, self.pos):
            return False
        if end < len(self.text) and _IDENT_RE.match(self.text[end]):
            return False
        self.pos = end
        return True

    def expect(self, token: str) -> bool:
        if self.take(token):
            return True
        self.error(f"expected {token!r}")
        return False

    def ident(self) -> Optional[str]:
        self.skip_ws()
        m = _IDENT_RE.match(self.text, self.pos)
        if not m:
            self.error("expected an identifier")
            return None
        self.pos = m.end()
        return m.group(0)

    def idents(self, close: str) -> Optional[list[str]]:
        """Comma-separated identifiers up to ``close``, which is taken too."""
        names: list[str] = []
        if self.take(close):
            return names
        while True:
            name = self.ident()
            if name is None:
                return None
            names.append(name)
            if self.take(close):
                return names
            if not self.expect(","):
                return None


def _header_end(cur: _Cursor, value):
    """``value``, the last part of a header line; text after it is an error."""
    if value is not None and not cur.at_end():
        cur.error("trailing input after header")
    return value


def _term(name: str) -> Term:
    return Variable(name) if name[:1].isupper() else Constant(name)


def _parse_args(cur: _Cursor) -> Optional[tuple[Term, ...]]:
    if not cur.take("("):
        return ()
    names = cur.idents(")")
    return None if names is None else tuple(map(_term, names))


def _parse_atom(cur: _Cursor) -> Optional[Atom]:
    cur.skip_ws()
    if cur.take("="):
        if not cur.expect("("):
            return None
        left = cur.ident()
        if left is None or not cur.expect(","):
            return None
        right = cur.ident()
        if right is None or not cur.expect(")"):
            return None
        return Atom("=", (_term(left), _term(right)))
    symbol = cur.ident()
    if symbol is None:
        return None
    args = _parse_args(cur)
    if args is None:
        return None
    return Atom(symbol, args)


def _parse_literal(cur: _Cursor) -> Optional[Literal]:
    positive = not cur.take("!")
    atom = _parse_atom(cur)
    if atom is None:
        return None
    return Literal(atom, positive)


def _parse_task(cur: _Cursor) -> Optional[Task]:
    symbol = cur.ident()
    if symbol is None:
        return None
    args = _parse_args(cur)
    if args is None:
        return None
    return Task(symbol, args)


def parse_task(text: str) -> Optional[Task]:
    """The task ``text`` spells out, or None unless all of it is one task."""
    cur = _Cursor(text, 1, [])
    task = _parse_task(cur)
    if task is None or not cur.at_end():
        return None
    return task


def _parse_ref(cur: _Cursor) -> Optional[TaskRef]:
    cur.skip_ws()
    for keyword, maker in (("first[", FirstRef), ("last[", LastRef)):
        if cur.take(keyword):
            labels = cur.idents("]")
            return None if labels is None else maker(frozenset(labels))
    name = cur.ident()
    if name is None:
        return None
    return LabelRef(name)


# each constraint form: its keyword, its body, and the body's parts in order
# (``r`` a task reference, ``l`` a literal, ``<`` the token itself)
_CONSTRAINT_FORMS = (
    ("ord", Ordering, "r<r"),
    ("before", Before, "lr"),
    ("after", After, "rl"),
    ("between", Between, "rlr"),
)


def parse_constraint_line(text: str, line: int, diagnostics: list[Diagnostic]) -> Optional[Constraint]:
    cur = _Cursor(text, line, diagnostics)
    negated = cur.take_word("not")
    for keyword, form, parts in _CONSTRAINT_FORMS:
        if cur.take_word(keyword):
            break
    else:
        cur.error("expected ord, before, after or between")
        return None
    args = []
    for part in parts:
        if part == "<":
            if not cur.expect("<"):
                return None
            continue
        arg = _parse_ref(cur) if part == "r" else _parse_literal(cur)
        if arg is None:
            return None
        args.append(arg)
    if not cur.at_end():
        cur.error("trailing input after constraint")
        return None
    return Constraint(form(*args), negated)


def _lines(text: str):
    """(number, text) of each line with text left once its comment and
    surrounding blanks are removed."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0].strip()
        if stripped:
            yield lineno, stripped


def _literal_list(text: str, line: int, diagnostics: list[Diagnostic]) -> tuple[Literal, ...]:
    out: list[Literal] = []
    cur = _Cursor(text, line, diagnostics)
    if cur.at_end():
        return ()
    while True:
        literal = _parse_literal(cur)
        if literal is None:
            return tuple(out)
        out.append(literal)
        if cur.at_end():
            return tuple(out)
        if not cur.expect(","):
            return tuple(out)


def _atom_list(text: str, line: int, diagnostics: list[Diagnostic]) -> tuple[Atom, ...]:
    literals = _literal_list(text, line, diagnostics)
    atoms = []
    for lit in literals:
        if not lit.positive:
            diagnostics.append(
                Diagnostic("error", "effect lists take atoms, not negative literals", line)
            )
            continue
        atoms.append(lit.atom)
    return tuple(atoms)


def _parse_labelled_task(
    text: str, lineno: int, diagnostics: list[Diagnostic], labelled: bool = False
) -> Optional[tuple[Optional[str], Task]]:
    """``LABEL: task`` or, unless ``labelled``, a bare ``task``; None on error."""
    cur = _Cursor(text, lineno, diagnostics)
    label: Optional[str] = None
    m = _LABEL_RE.match(text)
    if m:
        label = m.group(1)
        cur.pos = m.end()
    elif labelled:
        if cur.ident() is not None:
            cur.expect(":")
        return None
    task = _parse_task(cur)
    if task is None:
        return None
    if not cur.at_end():
        cur.error("trailing input after task")
        return None
    return label, task


def _declares(domain: Domain, symbol: str) -> bool:
    return domain.is_primitive(symbol) or domain.is_nonprimitive(symbol)


# each operator line: its prefix, the ``Operator`` field it sets, its reader
_OPERATOR_FIELDS = (
    ("pre:", "precondition", _literal_list),
    ("add:", "add", _atom_list),
    ("del:", "delete", _atom_list),
)


@dataclass
class _MethodBlock:
    name: str
    head: Task
    line: int
    tasks: list[LabelledTask] = field(default_factory=list)
    constraints: list[Constraint] = field(default_factory=list)


def parse_domain(text: str, name_hint: str = "domain") -> ParseResult:
    """Parse a ``.htn`` document into a validated-or-flagged domain.

    Method bodies missing the required trailing task get a fresh ``nop`` task
    appended (ordered after everything), with a warning.
    """
    diagnostics: list[Diagnostic] = []
    operators: list[Operator] = []
    methods: list[Method] = []
    domain_name = name_hint
    block: object = None  # an operator's fields as a dict, or a _MethodBlock
    section: Optional[str] = None
    declared_any = False

    def close() -> None:
        if isinstance(block, dict):
            operators.append(Operator(**block))
        elif block is not None:
            body = TaskNetwork(frozenset(block.tasks), frozenset(block.constraints))
            body = _ensure_trailing_task(body, block.name, block.line, diagnostics)
            methods.append(Method(block.name, block.head, body))

    for lineno, stripped in _lines(text):
        cur = _Cursor(stripped, lineno, diagnostics)
        if cur.take_word("domain"):
            declared_any = True
            domain_name = _header_end(cur, cur.ident()) or domain_name
            continue
        is_operator = cur.take_word("operator")
        if is_operator or cur.take_word("method"):
            declared_any = True
            close()
            block = section = None
            name = cur.ident()
            if name is None:
                continue
            if not is_operator:
                head = _header_end(cur, _parse_task(cur))
                block = None if head is None else _MethodBlock(name, head, lineno)
                continue
            params: list[Variable] = []
            for a in _header_end(cur, _parse_args(cur)) or ():
                if isinstance(a, Variable):
                    params.append(a)
                else:
                    diagnostics.append(
                        Diagnostic(
                            "error", f"operator parameters must be variables, got {a}", lineno
                        )
                    )
            block = {"symbol": name, "params": tuple(params)}
            continue

        if isinstance(block, dict):
            for prefix, key, read in _OPERATOR_FIELDS:
                if stripped.startswith(prefix):
                    block[key] = read(stripped[len(prefix):], lineno, diagnostics)
                    break
            else:
                diagnostics.append(
                    Diagnostic("error", f"unexpected line in operator block: {stripped!r}", lineno)
                )
        elif block is None:
            diagnostics.append(
                Diagnostic("error", f"unexpected top-level line: {stripped!r}", lineno)
            )
        elif stripped in ("tasks:", "constraints:"):
            section = stripped
        elif section == "tasks:":
            entry = _parse_labelled_task(stripped, lineno, diagnostics, labelled=True)
            if entry is not None:
                block.tasks.append(LabelledTask(*entry))
        elif section == "constraints:":
            if stripped in ("or", "|") or " or " in f" {stripped} ":
                diagnostics.append(
                    Diagnostic("error", "disjunctive constraint formulas are not supported", lineno)
                )
                continue
            constraint = parse_constraint_line(stripped, lineno, diagnostics)
            if constraint is not None:
                block.constraints.append(constraint)
        else:
            diagnostics.append(
                Diagnostic("error", f"unexpected line in method block: {stripped!r}", lineno)
            )

    close()
    if not declared_any:
        diagnostics.append(Diagnostic("error", "no domain declared", 1))
        return ParseResult(None, diagnostics)
    return ParseResult(make_domain(domain_name, operators, methods), diagnostics)


def _ensure_trailing_task(
    body: TaskNetwork, method: str, line: int, diagnostics: list[Diagnostic]
) -> TaskNetwork:
    if not body.tasks or find_trailing_task(body) is not None:
        return body
    label = "fin"
    k = 2
    while label in body.labels:
        label = f"fin{k}"
        k += 1
    orderings = {
        Constraint(Ordering(LabelRef(lt.label), LabelRef(label))) for lt in body.tasks
    }
    diagnostics.append(
        Diagnostic(
            "warning",
            f"method {method}: no trailing task; appended {label}:nop after all others",
            line,
        )
    )
    return TaskNetwork(
        body.tasks | {LabelledTask(label, Task("nop"))}, body.formula | orderings
    )


@dataclass(frozen=True)
class Problem:
    name: str
    state: frozenset
    network: TaskNetwork


def parse_problem(text: str, domain: Optional[Domain] = None) -> ParseResult:
    """Parse a ``.prob`` document: initial state plus optional initial network."""
    diagnostics: list[Diagnostic] = []
    name = "problem"
    state: set[Atom] = set()
    tasks: list[LabelledTask] = []
    constraints: list[Constraint] = []
    section: Optional[str] = None
    auto = 0

    for lineno, stripped in _lines(text):
        cur = _Cursor(stripped, lineno, diagnostics)
        if cur.take_word("problem"):
            name = _header_end(cur, cur.ident()) or name
        elif stripped.startswith("state:"):
            for atom in _atom_list(stripped[len("state:"):], lineno, diagnostics):
                if atom.is_ground:
                    state.add(atom)
                else:
                    diagnostics.append(
                        Diagnostic("error", f"initial state atom {atom} is not ground", lineno)
                    )
            section = None
        elif stripped in ("tasks:", "constraints:"):
            section = stripped
        elif section == "tasks:":
            entry = _parse_labelled_task(stripped, lineno, diagnostics)
            if entry is not None:
                label, task = entry
                if label is None:
                    auto += 1
                    label = f"T{auto}"
                tasks.append(LabelledTask(label, task))
        elif section == "constraints:":
            constraint = parse_constraint_line(stripped, lineno, diagnostics)
            if constraint is not None:
                constraints.append(constraint)
        else:
            diagnostics.append(
                Diagnostic("error", f"unexpected line in problem: {stripped!r}", lineno)
            )

    labels = [lt.label for lt in tasks]
    if len(set(labels)) < len(labels):
        duplicate = next(label for label in labels if labels.count(label) > 1)
        diagnostics.append(Diagnostic("error", f"duplicate task label {duplicate!r}", 1))
    if domain is not None:
        for lt in tasks:
            if not _declares(domain, lt.task.symbol):
                diagnostics.append(
                    Diagnostic("error", f"unknown task symbol {lt.task.symbol!r} in problem", 1)
                )
    problem = Problem(
        name, frozenset(state), TaskNetwork(frozenset(tasks), frozenset(constraints))
    )
    return ParseResult(problem, diagnostics)


@dataclass(frozen=True)
class Scenario:
    name: str
    schedule: dict  # iteration -> tuple[(label | None, Task), ...]


def parse_scenario(text: str, domain: Optional[Domain] = None) -> ParseResult:
    """Parse a ``.evt`` document mapping iterations to observed task sets."""
    diagnostics: list[Diagnostic] = []
    name = "scenario"
    schedule: dict[int, tuple] = {}
    for lineno, stripped in _lines(text):
        cur = _Cursor(stripped, lineno, diagnostics)
        if cur.take_word("scenario"):
            name = _header_end(cur, cur.ident()) or name
            continue
        m = re.match(r"^([0-9]+)\s*:\s*(.*)$", stripped)
        if not m:
            diagnostics.append(
                Diagnostic("error", f"expected 'ITERATION: task, ...': {stripped!r}", lineno)
            )
            continue
        iteration = int(m.group(1))
        entries: list[tuple[Optional[str], Task]] = []
        for chunk in split_task_list(m.group(2)):
            entry = _parse_labelled_task(chunk.strip(), lineno, diagnostics)
            if entry is None:
                continue
            if domain is not None and not _declares(domain, entry[1].symbol):
                diagnostics.append(
                    Diagnostic(
                        "error", f"unknown task symbol {entry[1].symbol!r} in scenario", lineno
                    )
                )
                continue
            entries.append(entry)
        if iteration in schedule:
            diagnostics.append(
                Diagnostic("error", f"iteration {iteration} declared twice", lineno)
            )
            continue
        schedule[iteration] = tuple(entries)
    return ParseResult(Scenario(name, schedule), diagnostics)


def split_task_list(text: str) -> list[str]:
    """Split on commas that are not inside parentheses."""
    parts: list[str] = []
    depth = 0
    current = []
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth = max(0, depth - 1)
        if ch == "," and depth == 0:
            parts.append("".join(current))
            current = []
        else:
            current.append(ch)
    tail = "".join(current).strip()
    if tail:
        parts.append(tail)
    return [p for p in (part.strip() for part in parts) if p]


# -- canonical printing ---------------------------------------------------------

def _render_network(network: TaskNetwork, indent: str, always: bool) -> list[str]:
    """The ``tasks:`` and ``constraints:`` sections, empty ones only if ``always``."""
    lines = []
    if always or network.tasks:
        lines.append(f"{indent}tasks:")
        lines.extend(f"{indent}  {lt.label}: {lt.task}" for lt in network.sorted_tasks())
    if always or network.formula:
        lines.append(f"{indent}constraints:")
        lines.extend(f"{indent}  {c}" for c in sorted(network.formula, key=str))
    return lines


def render_domain(domain: Domain) -> str:
    lines = [f"domain {domain.name}", ""]
    for op in domain.operators:
        head = op.symbol
        if op.params:
            head += "(" + ", ".join(v.name for v in op.params) + ")"
        lines.append(f"operator {head}")
        lines.append("  pre: " + ", ".join(str(l) for l in op.precondition))
        lines.append("  add: " + ", ".join(str(a) for a in op.add))
        lines.append("  del: " + ", ".join(str(a) for a in op.delete))
        lines.append("")
    for m in domain.methods:
        lines.append(f"method {m.name} {m.head}")
        lines.extend(_render_network(m.body, "  ", always=True))
        lines.append("")
    return "\n".join(lines).rstrip() + "\n"


def render_problem(problem: Problem) -> str:
    lines = [f"problem {problem.name}"]
    atoms = ", ".join(sorted(str(a) for a in problem.state))
    lines.append(f"state: {atoms}")
    lines.extend(_render_network(problem.network, "", always=False))
    return "\n".join(lines) + "\n"


def render_scenario(scenario: Scenario) -> str:
    lines = [f"scenario {scenario.name}"]
    for iteration in sorted(scenario.schedule):
        entries = []
        for label, task in scenario.schedule[iteration]:
            entries.append(f"{label}: {task}" if label else str(task))
        lines.append(f"{iteration}: " + ", ".join(entries))
    return "\n".join(lines) + "\n"
