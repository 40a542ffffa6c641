"""Execution traces: construction, classification, validation and rewriting.

A trace is a sequence of configurations produced by the execution semantics,
optionally interleaved with observation steps (d-traces).  This module also
provides the strategies that resolve the semantics' nondeterminism by picking
one of the choices ``exec_all`` offers, exhaustive searchers used by the
verification suites, and the constructive rewriting that eliminates
complete-replacement steps from a trace while preserving the actions
performed.  Every step, whether run, replayed, explored or rewritten, is
built by ``acting.apply`` from a choice.
"""
from __future__ import annotations

import random
import re
from dataclasses import dataclass, replace as dc_replace
from typing import Callable, Iterable, Iterator, Optional

from .acting import (
    ACTION,
    INITIAL,
    OBSERVATION,
    REDUCTION,
    REPLACEMENT,
    Choice,
    Configuration,
    ReductionCouple,
    RunContext,
    Step,
    apply,
    exec_all,
    extracted_literals,
    initial_configuration,
    is_blocked,
    is_successful,
    is_trace_blocked,
    make_context,
    ordered_alternatives,
    primary_tasks,
    replacement_choice,
    smallest_replaceable,
)
from .constraints import TaskNetwork, label_renamer, network_fingerprint, satisfies
from .model import Substitution, Task, label_key, substitute
from .reduction import Body

SUCCESSFUL = "successful"
BLOCKED = "blocked"
OPEN = "open"


class TraceError(Exception):
    """A recorded step cannot be reproduced from its predecessor."""


@dataclass
class Trace:
    steps: list[Step]
    ctx: RunContext
    budget_exhausted: bool = False

    @property
    def initial(self) -> Configuration:
        return self.steps[0].config

    @property
    def final(self) -> Configuration:
        return self.steps[-1].config

    def __len__(self) -> int:
        return len(self.steps)

    def classification(self) -> str:
        if is_successful(self.final):
            return SUCCESSFUL
        if is_trace_blocked(self.final, self.ctx):
            return BLOCKED
        return OPEN

    def actions_performed(self) -> tuple[Task, ...]:
        theta = self.final.theta
        return tuple(
            substitute(s.task, theta) for s in self.steps if s.kind == ACTION
        )

    def action_labels(self) -> tuple[str, ...]:
        return tuple(s.label for s in self.steps if s.kind == ACTION)

    def complete_replacement_free(self) -> bool:
        return not any(
            s.kind == REPLACEMENT and s.complete for s in self.steps
        )

    def partial_replacement_free(self) -> bool:
        return not any(
            s.kind == REPLACEMENT and not s.complete for s in self.steps
        )

    def jump_free(self) -> bool:
        return not any(s.kind == REPLACEMENT and s.jump for s in self.steps)

    def freedom_flags(self) -> dict[str, bool]:
        return {
            "complete_replacement_free": self.complete_replacement_free(),
            "partial_replacement_free": self.partial_replacement_free(),
            "jump_free": self.jump_free(),
        }


# -- strategies ----------------------------------------------------------------

class Strategy:
    """Deterministic chooser over the non-empty execution choice sets."""

    def choose(
        self, trace: list[Step], choices: tuple[Choice, ...]
    ) -> Optional[Choice]:
        raise NotImplementedError

    def exhausted(self) -> bool:
        """Has the strategy nothing left to choose, whatever is offered?"""
        return False


class DefaultStrategy(Strategy):
    """Applicable action at the smallest primary label, then reduction of the
    smallest non-primitive label with its first untried body, then replacement
    of a smallest replaceable couple (non-jumps first)."""

    def choose(self, trace, choices):
        def key(choice: Choice) -> tuple:
            rank = {ACTION: 0, REDUCTION: 1, REPLACEMENT: 2}[choice.kind]
            jump = 1 if choice.jump else 0
            return (rank, jump, label_key(choice.label or ""),
                    choice.body.index if choice.body else -1)

        return min(choices, key=key)


class RandomStrategy(Strategy):
    def __init__(self, seed: int = 0):
        self.rng = random.Random(seed)

    def choose(self, trace, choices):
        return self.rng.choice(list(choices))


@dataclass(frozen=True)
class Directive:
    kind: str
    label: str
    method: Optional[str] = None

    def matches(self, choice: Choice) -> bool:
        if choice.kind != self.kind or choice.label != self.label:
            return False
        if self.method is not None:
            return choice.body is not None and choice.body.method == self.method
        return True

    def __str__(self) -> str:
        if self.kind == ACTION:
            return f"act {self.label}"
        verb = "reduce" if self.kind == REDUCTION else "replace"
        return f"{verb} {self.label} with {self.method}"


_DIRECTIVE_RE = re.compile(
    r"^(?:(act)\s+(\S+)|(reduce|replace)\s+(\S+)\s+with\s+(\S+))$"
)


def parse_directives(text: str) -> list[Directive]:
    directives = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        m = _DIRECTIVE_RE.match(line)
        if not m:
            raise ValueError(f"bad choice directive: {raw.strip()!r}")
        if m.group(1):
            directives.append(Directive(ACTION, m.group(2)))
        else:
            kind = REDUCTION if m.group(3) == "reduce" else REPLACEMENT
            directives.append(Directive(kind, m.group(4), m.group(5)))
    return directives


class ScriptedStrategy(Strategy):
    """Replays an explicit list of choices; each must match a legal execution.

    The run stops cleanly when the script is exhausted.  A directive that
    matches none of the available executions is an error.
    """

    def __init__(self, directives: Iterable[Directive]):
        self.directives = list(directives)
        self.position = 0

    def choose(self, trace, choices):
        if self.exhausted():
            return None
        directive = self.directives[self.position]
        for choice in choices:
            if directive.matches(choice):
                self.position += 1
                return choice
        available = "; ".join(c.describe() for c in choices)
        raise TraceError(
            f"directive {directive} matches no execution (available: {available})"
        )

    def exhausted(self) -> bool:
        return self.position >= len(self.directives)


# -- running -------------------------------------------------------------------

DEFAULT_BUDGET = 10_000


def start_trace(network: TaskNetwork, state: frozenset, domain) -> Trace:
    cfg = initial_configuration(network, state, domain)
    ctx = make_context(domain, cfg)
    return Trace([Step(INITIAL, cfg)], ctx)


def run(
    cfg0: Configuration, strategy: Strategy, budget: int = DEFAULT_BUDGET
) -> Trace:
    """Extend a trace from ``cfg0`` until it is successful, blocked or out of budget."""
    if budget <= 0:
        raise ValueError("budget must be positive")
    ctx = make_context(cfg0.domain, cfg0)
    trace = Trace([Step(INITIAL, cfg0)], ctx)
    for _ in range(budget):
        if is_successful(trace.final) or is_trace_blocked(trace.final, ctx):
            return trace
        choices = exec_all(trace.final, ctx)
        if not choices:
            return trace
        chosen = strategy.choose(trace.steps, choices)
        if chosen is None:
            return trace
        ctx.absorb(chosen)
        trace.steps.append(apply(trace.final, chosen))
    trace.budget_exhausted = not (
        is_successful(trace.final) or is_trace_blocked(trace.final, ctx)
    )
    return trace


# -- validation and replay -----------------------------------------------------

def _couple_by_origin(config: Configuration, origin: Optional[str]) -> ReductionCouple:
    for couple in config.couples:
        if couple.origin == origin:
            return couple
    raise TraceError(f"no reduction couple with origin {origin!r}")


def replay_step(prev: Configuration, recorded: Step, ctx: RunContext) -> Step:
    """Recompute ``recorded`` from ``prev`` using the choice it documents.

    Succeeds only when the choice is legal from ``prev``; the resulting step
    is applied deterministically from the recorded label, binding and body,
    so a valid trace replays to exactly its recorded configurations.
    """
    primary = primary_tasks(prev.network, prev.domain)
    label, body = recorded.label, recorded.body
    if recorded.kind == ACTION:
        lt = prev.network.task_of(label)
        if lt not in primary:
            raise TraceError(f"action {label} is not primary")
        theta = recorded.binding or Substitution()
        op = prev.domain.operator_for(lt.task)
        pre, _, _ = op.instantiate(lt.task)
        formula = [l.substitute(theta) for l in pre]
        formula += [
            l.substitute(theta) for l in extracted_literals(label, prev.network)
        ]
        if any(not l.is_ground for l in formula):
            raise TraceError(f"binding for {label} is not ground")
        if not satisfies(prev.state, formula):
            raise TraceError(f"action {label} is not applicable")
        choice = Choice(ACTION, label, lt.task.substitute(theta), binding=theta)
    elif recorded.kind == REDUCTION:
        lt = prev.network.task_of(label)
        if lt not in primary:
            raise TraceError(f"reduced task {label} is not primary")
        if not prev.domain.is_nonprimitive(lt.task.symbol):
            raise TraceError(f"reduced task {label} is primitive")
        new_couple = _couple_by_origin(recorded.config, label)
        if new_couple.pursued != body.network.tasks:
            raise TraceError(f"couple for {label} does not pursue the chosen body")
        choice = Choice(
            REDUCTION, label, lt.task, body=body, alternatives=new_couple.alternatives
        )
    elif recorded.kind == REPLACEMENT:
        couple = _couple_by_origin(prev, label)
        if body not in couple.alternatives:
            raise TraceError(
                f"body {body.method} is not an untried alternative of {label}"
            )
        primary_labels = frozenset(lt.label for lt in primary)
        if not (couple.labels & primary_labels):
            raise TraceError(f"couple {label} meets no primary task")
        if not is_blocked(couple.pursued, prev.network, prev.state, ctx):
            raise TraceError(f"couple {label} is not blocked")
        choice = replacement_choice(
            prev, couple, body, smallest_replaceable(prev.couples)
        )
    elif recorded.kind == OBSERVATION:
        choice = Choice(OBSERVATION, observed=recorded.observed)
    else:
        raise TraceError(f"cannot replay step kind {recorded.kind}")
    return apply(prev, choice)


def validate_trace(trace: Trace) -> list[str]:
    """Check every step against the execution semantics; return the problems."""
    problems: list[str] = []
    first = trace.steps[0]
    if first.kind != INITIAL:
        problems.append("trace does not start with an initial step")
        return problems
    expected_top = ReductionCouple(None, first.config.network.tasks)
    tops = [c for c in first.config.couples if c.origin is None]
    if len(tops) != 1 or tops[0].pursued != expected_top.pursued or tops[0].alternatives:
        problems.append("initial couples are not a single top-level couple over the tasks")
    ctx = make_context(trace.initial.domain, trace.initial)
    for i in range(1, len(trace.steps)):
        prev = trace.steps[i - 1].config
        recorded = trace.steps[i]
        try:
            redone = replay_step(prev, recorded, ctx)
        except (TraceError, KeyError, ValueError) as exc:
            problems.append(f"step {i} ({recorded.describe()}): {exc}")
            continue
        if redone.config != recorded.config:
            problems.append(
                f"step {i} ({recorded.describe()}): recomputed configuration differs"
            )
        for flag in ("complete", "jump"):
            if getattr(redone, flag) != getattr(recorded, flag):
                problems.append(
                    f"step {i} ({recorded.describe()}): {flag} flag differs"
                )
    return problems


# -- complete-replacement elimination -------------------------------------------

def _first_complete_replacement(steps: list[Step]) -> Optional[int]:
    for i, step in enumerate(steps):
        if step.kind == REPLACEMENT and step.complete:
            return i
    return None


def eliminate_complete_replacements(trace: Trace) -> Trace:
    """An equivalent trace without complete-replacement steps.

    Repeatedly redirects the reduction that introduced the eventually-replaced
    body to the alternative the replacement chose, replays the unrelated steps
    in between, re-inserts the abandoned body as an untried alternative, and
    replays the rest of the trace.  Actions performed are preserved and the
    trace never grows.
    """
    steps = list(trace.steps)
    ctx = make_context(trace.initial.domain, trace.initial)
    while True:
        m = _first_complete_replacement(steps)
        if m is None:
            break
        replacement = steps[m]
        origin = replacement.label
        correct = replacement.body
        i = next(
            (
                j
                for j in range(1, m)
                if steps[j].kind == REDUCTION and steps[j].label == origin
            ),
            None,
        )
        if i is None:
            raise TraceError(
                f"no reduction of {origin} precedes its complete replacement"
            )
        incorrect = steps[i].body
        old_couple = _couple_by_origin(steps[i].config, origin)
        alternatives = ordered_alternatives(
            [b for b in old_couple.alternatives if b != correct] + [incorrect]
        )

        subtree = set(incorrect.network.labels)
        skipped: set[int] = set()
        for j in range(i + 1, m):
            step = steps[j]
            if step.kind == REDUCTION and step.label in subtree:
                subtree |= set(step.body.network.labels)
                skipped.add(j)
            elif step.removed & subtree:
                raise TraceError(
                    f"step {j} touches the replaced subtree before the replacement"
                )

        redirected = Choice(
            REDUCTION, origin, steps[i].task, body=correct, alternatives=alternatives
        )
        new_steps = steps[:i] + [apply(steps[i - 1].config, redirected)]
        for j in range(i + 1, m):
            if j in skipped:
                continue
            new_steps.append(replay_step(new_steps[-1].config, steps[j], ctx))
        _check_junction(new_steps[-1].config, steps[m].config, origin, incorrect)
        for j in range(m + 1, len(steps)):
            new_steps.append(replay_step(new_steps[-1].config, steps[j], ctx))
        steps = new_steps
    return Trace(steps, trace.ctx, trace.budget_exhausted)


def _check_junction(
    new_cfg: Configuration,
    old_cfg: Configuration,
    origin: str,
    restored: Body,
) -> None:
    """The rebuilt trace must meet the original where the eliminated
    replacement had landed, with two sanctioned differences: the redirected
    couple holds the abandoned body back among its untried alternatives, and
    constraints of the abandoned body that migrated onto the replacing tasks
    through their first[]/last[] expressions are absent (the rebuilt branch
    never carried that body, so it is strictly less constrained)."""
    if (
        new_cfg.network.tasks != old_cfg.network.tasks
        or not new_cfg.network.formula <= old_cfg.network.formula
        or new_cfg.state != old_cfg.state
        or new_cfg.theta != old_cfg.theta
    ):
        raise TraceError("rebuilt trace diverges from the original at the junction")
    expected = set()
    for couple in old_cfg.couples:
        if couple.origin == origin:
            expected.add(
                dc_replace(
                    couple,
                    alternatives=ordered_alternatives(
                        set(couple.alternatives) | {restored}
                    ),
                )
            )
        else:
            expected.add(couple)
    if frozenset(expected) != new_cfg.couples:
        raise TraceError("rebuilt couples diverge from the original at the junction")


# -- exhaustive exploration ------------------------------------------------------

class SearchBudgetExceeded(Exception):
    pass


def canonical_key(cfg: Configuration) -> str:
    """A fingerprint of a configuration (minus bindings) for memoising search.

    Extends ``network_fingerprint`` of the network with the state and the
    couples, under one renaming of the network's and the couples' labels.
    Each untried alternative body adds its own ``Body.key_fragment``, whose
    renaming is local: body labels are fresh and meet no other part of the
    configuration, which every execution keeps.  Distinct structures always
    produce distinct keys.

    The key is invariant only under renamings that keep label order, not
    under every renaming: couples are taken in ``label_key`` order of their
    origins, and tasks or constraints that differ only in their labels are
    numbered in label order.  Two configurations that differ by another
    renaming may get different keys, which costs the explorers a memo hit
    but never a result.  Invariance under every renaming needs a canonical
    labelling and is open work (ROADMAP.md).

    Per call, only the network and the couples' members are renamed.  The
    rest is cached on immutable values, once per object: the texts of tasks,
    atoms, literals and constraints (``model``, ``constraints``), each
    constraint's sorted labels, each couple's sorted members and joined
    alternatives (``acting.ReductionCouple``), and each body's fragment
    (``reduction.Body``).
    """
    rename = label_renamer()
    pieces = [
        network_fingerprint(cfg.network, rename),
        "@" + " ".join(sorted(atom.text for atom in cfg.state)),
    ]
    for couple in cfg.sorted_couples():
        origin = rename(couple.origin) if couple.origin else "top"
        members = " ".join(
            sorted(f"{rename(label)}:{text}" for label, text in couple.sorted_members)
        )
        pieces.append(f"[{origin}: {members} ! {couple.alternatives_key}]")
    return "\n".join(pieces)


def _allowed(choice: Choice, allow_partial: bool, allow_complete: bool) -> bool:
    if choice.kind != REPLACEMENT:
        return True
    return allow_complete if choice.complete else allow_partial


def successful_action_sequences(
    cfg0: Configuration,
    ctx: RunContext,
    allow_partial: bool = True,
    allow_complete: bool = True,
    max_nodes: int = 200_000,
) -> frozenset:
    """Action sequences of every successful trace reachable from ``cfg0``.

    Explores all executions (all ground bindings included), optionally
    skipping partial- or complete-replacement edges.  Memoized on canonical
    configuration form.
    """
    memo: dict[str, frozenset] = {}
    visited = 0

    def explore(cfg: Configuration) -> frozenset:
        nonlocal visited
        if is_successful(cfg):
            return frozenset({()})
        key = canonical_key(cfg)
        if key in memo:
            return memo[key]
        visited += 1
        if visited > max_nodes:
            raise SearchBudgetExceeded(f"more than {max_nodes} configurations")
        memo[key] = frozenset()  # cycle guard; configurations never recur
        sequences = set()
        for choice in exec_all(cfg, ctx.for_config(cfg), all_bindings=True):
            if not _allowed(choice, allow_partial, allow_complete):
                continue
            suffixes = explore(apply(cfg, choice).config)
            if choice.kind == ACTION:
                # bindings ground the task at execution time, so the head is
                # final and the suffix set is label- and binding-free
                sequences |= {(choice.task,) + s for s in suffixes}
            else:
                sequences |= suffixes
        memo[key] = frozenset(sequences)
        return memo[key]

    try:
        return explore(cfg0)
    finally:
        del explore  # the closure holds itself: free the search on return


def iter_successful_traces(
    cfg0: Configuration,
    ctx: RunContext,
    allow_partial: bool = True,
    allow_complete: bool = True,
    action_target: Optional[tuple[Task, ...]] = None,
    max_nodes: int = 200_000,
) -> Iterator[Trace]:
    """All successful traces from ``cfg0``, depth-first.

    With ``action_target`` set, branches whose performed actions stop being a
    prefix of the target are pruned, and only traces performing exactly the
    target are yielded.
    """
    visited = 0

    def prefix_ok(actions: tuple[Task, ...]) -> bool:
        if action_target is None:
            return True
        return actions == action_target[: len(actions)]

    def walk(steps: list[Step], actions: tuple[Task, ...]) -> Iterator[list[Step]]:
        nonlocal visited
        visited += 1
        if visited > max_nodes:
            raise SearchBudgetExceeded(f"more than {max_nodes} configurations")
        cfg = steps[-1].config
        if is_successful(cfg):
            if action_target is None or actions == action_target:
                yield steps
            return
        for choice in exec_all(cfg, ctx.for_config(cfg), all_bindings=True):
            if not _allowed(choice, allow_partial, allow_complete):
                continue
            extended = actions
            if choice.kind == ACTION:
                extended = actions + (choice.task,)
                if not prefix_ok(extended):
                    continue
            yield from walk(steps + [apply(cfg, choice)], extended)

    try:
        for found in walk([Step(INITIAL, cfg0)], ()):
            yield Trace(list(found), ctx)
    finally:
        del walk  # the closure holds itself: free the search on return


def sample_traces(
    cfg0: Configuration,
    ctx: RunContext,
    count: int,
    require: Optional[Callable[[Trace], bool]] = None,
    max_nodes: int = 100_000,
) -> list[Trace]:
    """Depth-first sample of maximal traces, optionally filtered."""
    collected: list[Trace] = []
    visited = 0

    def walk(steps: list[Step]) -> None:
        nonlocal visited
        if len(collected) >= count:
            return
        visited += 1
        if visited > max_nodes:
            return
        cfg = steps[-1].config
        nexts = exec_all(cfg, ctx.for_config(cfg), all_bindings=True)
        if not nexts:
            trace = Trace(list(steps), ctx)
            if require is None or require(trace):
                collected.append(trace)
            return
        for choice in nexts:
            walk(steps + [apply(cfg, choice)])
            if len(collected) >= count:
                return

    try:
        walk([Step(INITIAL, cfg0)])
    finally:
        del walk  # the closure holds itself: free the search on return
    return collected
