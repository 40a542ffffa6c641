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
_TERM_LIST_RE = re.compile(rf"\s*{IDENT}\s*(?:,\s*{IDENT}\s*)*")


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


def _term(name: str) -> Term:
    return Variable(name) if name[:1].isupper() else Constant(name)


def _parse_args(cur: _Cursor) -> Optional[tuple[Term, ...]]:
    if not cur.take("("):
        return ()
    args: list[Term] = []
    if cur.take(")"):
        return tuple(args)
    while True:
        name = cur.ident()
        if name is None:
            return None
        args.append(_term(name))
        if cur.take(")"):
            return tuple(args)
        if not cur.expect(","):
            return None


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
            labels: list[str] = []
            if not cur.take("]"):
                while True:
                    name = cur.ident()
                    if name is None:
                        return None
                    labels.append(name)
                    if cur.take("]"):
                        break
                    if not cur.expect(","):
                        return None
            return maker(frozenset(labels))
    name = cur.ident()
    if name is None:
        return None
    return LabelRef(name)


def parse_constraint_line(text: str, line: int, diagnostics: list[Diagnostic]) -> Optional[Constraint]:
    cur = _Cursor(text, line, diagnostics)
    negated = cur.take_word("not")
    if cur.take_word("ord"):
        before = _parse_ref(cur)
        if before is None or not cur.expect("<"):
            return None
        after = _parse_ref(cur)
        if after is None:
            return None
        body: object = Ordering(before, after)
    elif cur.take_word("before"):
        literal = _parse_literal(cur)
        if literal is None:
            return None
        ref = _parse_ref(cur)
        if ref is None:
            return None
        body = Before(literal, ref)
    elif cur.take_word("after"):
        ref = _parse_ref(cur)
        if ref is None:
            return None
        literal = _parse_literal(cur)
        if literal is None:
            return None
        body = After(ref, literal)
    elif cur.take_word("between"):
        start = _parse_ref(cur)
        if start is None:
            return None
        literal = _parse_literal(cur)
        if literal is None:
            return None
        end = _parse_ref(cur)
        if end is None:
            return None
        body = Between(start, literal, end)
    else:
        cur.error("expected ord, before, after or between")
        return None
    if not cur.at_end():
        cur.error("trailing input after constraint")
        return None
    return Constraint(body, negated)


def _strip(line: str) -> str:
    return line.split("#", 1)[0].rstrip()


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


def parse_domain(text: str, name_hint: str = "domain") -> ParseResult:
    """Parse a ``.htn`` document into a validated-or-flagged domain.

    Method bodies missing the required trailing task get a fresh ``nop`` task
    appended (ordered after everything), with a warning.
    """
    diagnostics: list[Diagnostic] = []
    operators: list[Operator] = []
    methods: list[Method] = []
    domain_name = name_hint

    current_op: Optional[dict] = None
    current_method: Optional[dict] = None
    section: Optional[str] = None
    declared_any = False

    def close_operator() -> None:
        nonlocal current_op
        if current_op is None:
            return
        operators.append(
            Operator(
                current_op["symbol"],
                current_op["params"],
                tuple(current_op["pre"]),
                tuple(current_op["add"]),
                tuple(current_op["del"]),
            )
        )
        current_op = None

    def close_method() -> None:
        nonlocal current_method
        if current_method is None:
            return
        body = TaskNetwork(
            frozenset(current_method["tasks"]),
            frozenset(current_method["constraints"]),
        )
        body = _ensure_trailing_task(
            body, current_method["name"], current_method["line"], diagnostics
        )
        methods.append(Method(current_method["name"], current_method["head"], body))
        current_method = None

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _strip(raw)
        if not line.strip():
            continue
        stripped = line.strip()
        cur = _Cursor(stripped, lineno, diagnostics)

        if cur.take_word("domain"):
            declared_any = True
            name = cur.ident()
            if name is not None:
                domain_name = name
            continue
        if cur.take_word("operator"):
            declared_any = True
            close_operator()
            close_method()
            section = None
            symbol = cur.ident()
            if symbol is None:
                continue
            args = _parse_args(cur)
            params: list[Variable] = []
            for a in args or ():
                if isinstance(a, Variable):
                    params.append(a)
                else:
                    diagnostics.append(
                        Diagnostic(
                            "error",
                            f"operator parameters must be variables, got {a}",
                            lineno,
                        )
                    )
            current_op = {
                "symbol": symbol,
                "params": tuple(params),
                "pre": (),
                "add": (),
                "del": (),
            }
            continue
        if cur.take_word("method"):
            declared_any = True
            close_operator()
            close_method()
            section = None
            name = cur.ident()
            if name is None:
                continue
            head = _parse_task(cur)
            if head is None:
                continue
            current_method = {
                "name": name,
                "head": head,
                "tasks": [],
                "constraints": [],
                "line": lineno,
            }
            continue

        if current_op is not None:
            matched = False
            for key, label in (("pre", "pre:"), ("add", "add:"), ("del", "del:")):
                if stripped.startswith(label):
                    rest = stripped[len(label):]
                    if key == "pre":
                        current_op[key] = _literal_list(rest, lineno, diagnostics)
                    else:
                        current_op[key] = _atom_list(rest, lineno, diagnostics)
                    matched = True
                    break
            if matched:
                continue
            diagnostics.append(
                Diagnostic("error", f"unexpected line in operator block: {stripped!r}", lineno)
            )
            continue

        if current_method is not None:
            if stripped == "tasks:":
                section = "tasks"
                continue
            if stripped == "constraints:":
                section = "constraints"
                continue
            if section == "tasks":
                cur = _Cursor(stripped, lineno, diagnostics)
                label = cur.ident()
                if label is None or not cur.expect(":"):
                    continue
                task = _parse_task(cur)
                if task is None:
                    continue
                if not cur.at_end():
                    cur.error("trailing input after task")
                    continue
                current_method["tasks"].append(LabelledTask(label, task))
                continue
            if section == "constraints":
                if stripped in ("or", "|") or " or " in f" {stripped} ":
                    diagnostics.append(
                        Diagnostic(
                            "error",
                            "disjunctive constraint formulas are not supported",
                            lineno,
                        )
                    )
                    continue
                constraint = parse_constraint_line(stripped, lineno, diagnostics)
                if constraint is not None:
                    current_method["constraints"].append(constraint)
                continue
            diagnostics.append(
                Diagnostic("error", f"unexpected line in method block: {stripped!r}", lineno)
            )
            continue

        diagnostics.append(
            Diagnostic("error", f"unexpected top-level line: {stripped!r}", lineno)
        )

    close_operator()
    close_method()
    if not declared_any:
        diagnostics.append(Diagnostic("error", "no domain declared", 1))
        return ParseResult(None, diagnostics)
    return ParseResult(make_domain(domain_name, operators, methods), diagnostics)


def _ensure_trailing_task(
    body: TaskNetwork, method: str, line: int, diagnostics: list[Diagnostic]
) -> TaskNetwork:
    if not body.tasks or find_trailing_task(body) is not None:
        return body
    base = "fin"
    existing = body.labels
    label = base
    k = 2
    while label in existing:
        label = f"{base}{k}"
        k += 1
    nop = LabelledTask(label, Task("nop"))
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
        body.tasks | {nop}, body.formula | orderings
    )


def parse_problem(text: str, domain: Optional[Domain] = None) -> ParseResult:
    """Parse a ``.prob`` document: initial state plus optional initial network."""
    diagnostics: list[Diagnostic] = []
    name = "problem"
    state: set[Atom] = set()
    tasks: list[LabelledTask] = []
    constraints: list[Constraint] = []
    section: Optional[str] = None
    auto = 1

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _strip(raw)
        if not line.strip():
            continue
        stripped = line.strip()
        cur = _Cursor(stripped, lineno, diagnostics)
        if cur.take_word("problem"):
            got = cur.ident()
            if got is not None:
                name = got
            continue
        if stripped.startswith("state:"):
            rest = stripped[len("state:"):]
            for atom in _atom_list(rest, lineno, diagnostics):
                if not atom.is_ground:
                    diagnostics.append(
                        Diagnostic("error", f"initial state atom {atom} is not ground", lineno)
                    )
                    continue
                state.add(atom)
            section = None
            continue
        if stripped == "tasks:":
            section = "tasks"
            continue
        if stripped == "constraints:":
            section = "constraints"
            continue
        if section == "tasks":
            label, task = _parse_labelled_task(stripped, lineno, diagnostics)
            if task is None:
                continue
            if label is None:
                label = f"T{auto}"
                auto += 1
            tasks.append(LabelledTask(label, task))
            continue
        if section == "constraints":
            constraint = parse_constraint_line(stripped, lineno, diagnostics)
            if constraint is not None:
                constraints.append(constraint)
            continue
        diagnostics.append(
            Diagnostic("error", f"unexpected line in problem: {stripped!r}", lineno)
        )

    labels = [lt.label for lt in tasks]
    for label in labels:
        if labels.count(label) > 1:
            diagnostics.append(
                Diagnostic("error", f"duplicate task label {label!r}", 1)
            )
            break
    if domain is not None:
        for lt in tasks:
            if not domain.is_primitive(lt.task.symbol) and not domain.is_nonprimitive(
                lt.task.symbol
            ):
                diagnostics.append(
                    Diagnostic(
                        "error",
                        f"unknown task symbol {lt.task.symbol!r} in problem",
                        1,
                    )
                )
    problem = Problem(
        name, frozenset(state), TaskNetwork(frozenset(tasks), frozenset(constraints))
    )
    return ParseResult(problem, diagnostics)


@dataclass(frozen=True)
class Problem:
    name: str
    state: frozenset
    network: TaskNetwork


def _parse_labelled_task(
    text: str, lineno: int, diagnostics: list[Diagnostic]
) -> tuple[Optional[str], Optional[Task]]:
    cur = _Cursor(text, lineno, diagnostics)
    probe = _Cursor(text, lineno, [])
    first = probe.ident()
    label: Optional[str] = None
    if first is not None and probe.take(":"):
        label = cur.ident()
        cur.expect(":")
    task = _parse_task(cur)
    if task is None:
        return label, None
    if not cur.at_end():
        cur.error("trailing input after task")
        return label, None
    return label, task


@dataclass(frozen=True)
class Scenario:
    name: str
    schedule: dict  # iteration -> tuple[(label | None, Task), ...]


def parse_scenario(text: str, domain: Optional[Domain] = None) -> ParseResult:
    """Parse a ``.evt`` document mapping iterations to observed task sets."""
    diagnostics: list[Diagnostic] = []
    name = "scenario"
    schedule: dict[int, tuple] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _strip(raw)
        if not line.strip():
            continue
        stripped = line.strip()
        cur = _Cursor(stripped, lineno, diagnostics)
        if cur.take_word("scenario"):
            got = cur.ident()
            if got is not None:
                name = got
            continue
        m = re.match(r"^(\d+)\s*:\s*(.*)$", stripped)
        if not m:
            diagnostics.append(
                Diagnostic("error", f"expected 'ITERATION: task, ...': {stripped!r}", lineno)
            )
            continue
        iteration = int(m.group(1))
        entries: list[tuple[Optional[str], Task]] = []
        for chunk in split_task_list(m.group(2)):
            label, task = _parse_labelled_task(chunk.strip(), lineno, diagnostics)
            if task is None:
                continue
            if domain is not None and not (
                domain.is_primitive(task.symbol) or domain.is_nonprimitive(task.symbol)
            ):
                diagnostics.append(
                    Diagnostic(
                        "error", f"unknown task symbol {task.symbol!r} in scenario", lineno
                    )
                )
                continue
            entries.append((label, task))
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
        lines.append("  tasks:")
        for lt in m.body.sorted_tasks():
            lines.append(f"    {lt.label}: {lt.task}")
        lines.append("  constraints:")
        for c in sorted(m.body.formula, key=str):
            lines.append(f"    {c}")
        lines.append("")
    return "\n".join(lines).rstrip() + "\n"


def render_problem(problem: Problem) -> str:
    lines = [f"problem {problem.name}"]
    atoms = ", ".join(sorted(str(a) for a in problem.state))
    lines.append(f"state: {atoms}")
    if problem.network.tasks:
        lines.append("tasks:")
        for lt in problem.network.sorted_tasks():
            lines.append(f"  {lt.label}: {lt.task}")
    if problem.network.formula:
        lines.append("constraints:")
        for c in sorted(problem.network.formula, key=str):
            lines.append(f"  {c}")
    return "\n".join(lines) + "\n"


def render_scenario(scenario: Scenario) -> str:
    lines = [f"scenario {scenario.name}"]
    for iteration in sorted(scenario.schedule):
        entries = []
        for label, task in scenario.schedule[iteration]:
            entries.append(f"{label}: {task}" if label else str(task))
        lines.append(f"{iteration}: " + ", ".join(entries))
    return "\n".join(lines) + "\n"
