"""Execution traces: construction, classification, validation and rewriting.

A trace is a sequence of configurations produced by the execution semantics,
optionally interleaved with observation steps (d-traces).  This module also
provides the strategies that resolve the semantics' nondeterminism by picking
one of the choices ``exec_all`` offers (``strategy_step``, shared by ``run``
and the agent loop), the exhaustive searches used by the verification
suites, and the constructive rewriting that eliminates complete-replacement
steps from a trace while preserving the actions performed.  Every
configuration, whether run, replayed, explored or rewritten, is built by
``acting.successor`` from a choice, out of the parts its context's tables
hold (``acting.ComponentTables``, which describes what is cached and for how
long).  A trace's steps wrap it (``acting.apply``); ``reachable`` keeps no
step and builds the configuration alone.

The searches are two depth-first walks with explicit stacks, so search depth
costs no Python stack: ``maximal_traces``, filtered by
``iter_successful_traces`` and ``sample_traces``, and ``reachable``, which
enters each configuration once, keyed by its network, state and couples
(``canonical_key``), and which ``successful_action_sequences`` and
``verify.check_extendability`` consume.  Both count each expanded
configuration against ``SEARCH_NODES`` and raise ``SearchBudgetExceeded``
past it, never returning a partial result.

Exhaustive acting fixes the order of reductions.  A reduction performs no
action, so it never shows in the sequences ``successful_action_sequences``
returns, and that search expands an ample set (Peled, "All from one, one for
all", CAV 1993; Godefroid, LNCS 1032, 1996): where some primary task ``t``
can be reduced and each of its relevant bodies has tasks and constrains only
them, a node follows only the reductions of the smallest such label, with
all of ``t``'s methods, and drops its actions, its other reductions and its
replacements.  No sequence
is lost, because every successful trace from the node reduces ``t`` at some
step, and that step can move to the front:

* Only a reduction removes ``t``.  An action removes a primitive task, and a
  replacement only the tasks of a blocked couple; a couple that pursues
  ``t`` is never blocked, since ``t`` is primary and has a relevant method
  (``acting._progresses``).  So no ancestor couple of ``t`` is replaced
  before ``t`` is reduced.
* ``t`` stays reducible until then.  No execution adds an ordering that
  puts a task before ``t``, and ``reduction.has_relevant_method`` reads no
  state; method heads are distinct variables, so a binding that
  instantiates ``t`` leaves every method relevant, with the body the
  binding instantiates.
* The reduction commutes with each earlier action.  It rewrites only the
  references to ``t``, into ``first[]``/``last[]`` over the body's fresh
  labels, and adds constraints on those labels only.  A non-empty body keeps
  every reference it rewrites unexecuted, so an action has the same
  primacy, extracted literals, bindings, realised constraints and result
  before the reduction and after it.  Both conditions can fail: ``last[]``
  of no label, and a label no live task holds, read as done, and bind the
  next action at once; a task with such a body is not reduced first.
* It commutes with each earlier replacement, of a couple ``X`` that does not
  pursue ``t``.  The reduction changes neither ``X``'s members nor its
  alternatives nor whether they progress.  It keeps ``t`` and the body out
  of ``X``, so the ``complete`` flag (all of ``X``'s labels in the network)
  is unchanged.  The couples that pursued ``t``, and the new one, are the
  path from the top-level couple to the couple holding ``t``, and the new
  couple the reduction hangs below it.  ``X`` is not on that path and the
  new couple is not below ``X``, so no couple below ``X``, the only ones
  that can undercut it, changes, and the jump flag is unchanged too.
  ``replace_tasks`` redirects ``X``'s labels in ``first[]``/``last[]`` and
  drops the constraints on them, the reduction rewrites ``t``'s; the label
  sets are disjoint, so both orders give the same formula and couples.

So both orders reach the same configuration, perform the same actions and
replace with the same ``complete`` flags, which is all ``allow_partial`` and
``allow_complete`` filter on.  The configuration is the same, names
included: a lineage names the bodies of a task once (``RunContext``), so
``t`` is reduced to the same body in either order.  Only where an earlier
action bound a variable of ``t`` is ``t`` another task when it is reduced
late; its body then differs in its fresh names alone, which costs the search
a memo hit but no sequence.

Exhaustive acting as ``verify.acting_solution_set`` runs it also drops every
complete replacement (``allow_complete=False`` beside ``allow_partial=False``).
This is the paper's elimination property read on action sequences.  A
complete replacement abandons a body before any of its tasks has acted, so
reducing the task with the chosen alternative in the first place performs
the same actions.  Under ``replace_tasks``' migration semantics the abandoned
body's constraints move onto the replacing body, so after the replacement
that body is only more constrained than the same body reduced directly,
which admits every action the replacing path performs.  The two
narrowings compose: the ample set's argument holds under either flag, and
dropping an edge leaves the cycle proviso as it was.  The argument is
checked, not assumed: ``verify.check_sequence_elimination`` compares the
sets found with and without complete replacements, and the elimination
suite runs it on every case.  It passes also on the traces where
``eliminate_complete_replacements`` fails: what fails there is the rewritten
trace, not the actions it performs.

The fold gives an ancestor still open on the walk's stack no sequences, so a
narrowed node must not rely on one: when a successor in its ample set has a
key still open on the stack, the node expands in full (the cycle proviso).
The walks that must see every configuration or trace keep the full
expansion: ``maximal_traces`` and its filters, which the jump and
acting-only suites use, and ``reachable`` as ``verify.check_extendability``
calls it.
"""
from __future__ import annotations

import functools
import itertools
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
    ComponentTables,
    Configuration,
    RunContext,
    Step,
    apply,
    exec_all,
    exec_via_action,
    exec_via_reduction,
    exec_via_replacement,
    initial_configuration,
    is_successful,
    is_trace_blocked,
    make_context,
    ordered_alternatives,
    successor,
    with_alternatives,
)
from .model import Task, label_key
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
        return tuple(s.task for s in self.steps if s.kind == ACTION)

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


def strategy_step(
    cfg: Configuration, strategy: Strategy, trace: Trace, ctx: RunContext
) -> Optional[Step]:
    """Perform the execution ``strategy`` chooses from ``cfg`` and append it
    to ``trace``; None when nothing can execute or the strategy declines.

    A successful or blocked ``cfg`` offers nothing: the top-level couple
    pursues every task, so when no primary task can progress, every couple
    that meets one has no alternatives left."""
    choices = exec_all(cfg, ctx)
    if not choices:
        return None
    chosen = strategy.choose(trace.steps, choices)
    if chosen is None:
        return None
    step = apply(cfg, chosen, ctx)
    trace.steps.append(step)
    return step


def run(
    cfg0: Configuration, strategy: Strategy, budget: int = DEFAULT_BUDGET
) -> Trace:
    """Extend a trace from ``cfg0`` until it is successful, blocked or out of budget."""
    if budget <= 0:
        raise ValueError("budget must be positive")
    ctx = make_context(cfg0.domain, cfg0)
    trace = Trace([Step(INITIAL, config=cfg0)], ctx)
    for _ in range(budget):
        if strategy_step(trace.final, strategy, trace, ctx) is None:
            return trace
    trace.budget_exhausted = not (
        is_successful(trace.final) or is_trace_blocked(trace.final, ctx)
    )
    return trace


# -- validation and replay -----------------------------------------------------

def replay_step(prev: Configuration, recorded: Step, ctx: RunContext) -> Step:
    """Apply the execution ``prev`` offers that ``recorded`` records.

    A step is legal exactly when ``prev`` offers it for its label: an action
    with its binding (``exec_via_action``, every binding), a reduction with
    its body and alternatives (``exec_via_reduction``), a replacement with
    its body and flags (``exec_via_replacement``), each found by equality.
    An observation is applied as recorded.  ``ctx`` must be of the lineage
    that produced the step, so a reduction is offered with the bodies the
    lineage named for its task.
    """
    label = recorded.label
    if recorded.kind == OBSERVATION:
        return apply(prev, Choice(OBSERVATION, observed=recorded.observed), ctx)
    if recorded.kind == ACTION:
        offered = exec_via_action(prev, ctx, all_bindings=True, label=label)
        found = next((c for c in offered if c.binding == recorded.binding), None)
    elif recorded.kind == REDUCTION:
        offered = exec_via_reduction(prev, ctx, label)
        wanted = (recorded.body, recorded.alternatives)
        found = next((c for c in offered if (c.body, c.alternatives) == wanted), None)
    elif recorded.kind == REPLACEMENT:
        offered = tuple(c for c in exec_via_replacement(prev, ctx) if c.label == label)
        wanted = (recorded.body, recorded.complete, recorded.jump)
        found = next((c for c in offered if (c.body, c.complete, c.jump) == wanted), None)
    else:
        raise TraceError(f"cannot replay step kind {recorded.kind}")
    if found is None:
        described = "; ".join(c.describe() for c in offered) or "nothing"
        raise TraceError(f"no offered execution matches (offered for {label}: {described})")
    return apply(prev, found, ctx)


def validate_trace(trace: Trace) -> list[str]:
    """Check every step against the execution semantics; return the problems.

    The trace must start from the initial configuration of its network,
    state and domain (``acting.initial_configuration``): one top-level couple
    pursuing exactly the network's tasks, nothing reduced.
    Every later step must replay (``replay_step``) to exactly itself, the
    choice it records included.  Replay runs in the lineage that produced
    the trace (``trace.ctx``), so each reduction is offered with the bodies
    that lineage named for its task, but through component tables of its
    own: no part the producer built is looked up.
    """
    first = trace.steps[0]
    if first.kind != INITIAL:
        return ["trace does not start with an initial step"]
    cfg0 = first.config
    problems: list[str] = []
    if cfg0 != initial_configuration(cfg0.network, cfg0.state, cfg0.domain):
        problems.append("initial configuration is not its network's initial configuration")
    ctx = dc_replace(trace.ctx)
    for i in range(1, len(trace.steps)):
        prev = trace.steps[i - 1].config
        recorded = trace.steps[i]
        # each step replays from its recorded configuration, so nothing one
        # step builds is looked up again: keep no part past its step
        ctx.fresh_tables()
        try:
            if replay_step(prev, recorded, ctx) == recorded:
                continue
            problems.append(f"step {i} ({recorded.describe()}): recomputed step differs")
        except (TraceError, KeyError, ValueError) as exc:
            problems.append(f"step {i} ({recorded.describe()}): {exc}")
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

    Every step is rebuilt in the lineage that produced the trace
    (``trace.ctx``), through component tables of its own, so the redirected
    reduction is the one that lineage offers with the chosen alternative,
    and the abandoned body goes back among the alternatives under its own
    names: the lineage never draws a name twice, and no rebuilt step meets
    them.
    """
    steps = list(trace.steps)
    ctx = dc_replace(trace.ctx, tables=ComponentTables())
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
        alternatives = ordered_alternatives(
            [b for b in steps[i].alternatives if b != correct] + [incorrect]
        )

        subtree = set(incorrect.labels)
        skipped: set[int] = set()
        for j in range(i + 1, m):
            step = steps[j]
            if step.kind == REDUCTION and step.label in subtree:
                subtree |= step.body.labels
                skipped.add(j)
            elif step.removed & subtree:
                raise TraceError(
                    f"step {j} touches the replaced subtree before the replacement"
                )

        redirected = Choice(
            REDUCTION, origin, steps[i].task, body=correct, alternatives=alternatives
        )
        new_steps = steps[:i] + [apply(steps[i - 1].config, redirected, ctx)]
        for j in range(i + 1, m):
            if j in skipped:
                continue
            new_steps.append(_rebuilt(new_steps[-1].config, steps[j], ctx))
        _check_junction(new_steps[-1].config, steps[m].config, origin, incorrect)
        for j in range(m + 1, len(steps)):
            new_steps.append(_rebuilt(new_steps[-1].config, steps[j], ctx))
        steps = new_steps
    return Trace(steps, trace.ctx, trace.budget_exhausted)


def _rebuilt(prev: Configuration, step: Step, ctx: RunContext) -> Step:
    """``step`` replayed in a rebuilt trace.  A replacement takes the flags
    ``prev`` offers: the abandoned body, kept untried, can keep a couple
    replaceable that the original had spent, so replacing above it jumps."""
    if step.kind == REPLACEMENT:
        for choice in exec_via_replacement(prev, ctx):
            if (choice.label, choice.body) == (step.label, step.body):
                return apply(prev, choice, ctx)
    return replay_step(prev, step, ctx)


def _check_junction(
    new_cfg: Configuration,
    old_cfg: Configuration,
    origin: str,
    abandoned: Body,
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
    ):
        raise TraceError("rebuilt trace diverges from the original at the junction")
    held = next(c for c in old_cfg.couples if c.origin == origin).alternatives
    expected = with_alternatives(
        old_cfg.couples, origin, ordered_alternatives(set(held) | {abandoned})
    )
    if expected != new_cfg.couples:
        raise TraceError("rebuilt couples diverge from the original at the junction")


# -- exhaustive exploration ------------------------------------------------------

SEARCH_NODES = 200_000


class SearchBudgetExceeded(Exception):
    """A search expanded more than ``SEARCH_NODES`` configurations."""


def canonical_key(cfg: Configuration) -> tuple:
    """The key that memoises a search: ``(network, state, couples)``, the
    parts of a configuration its executions read.  Each caches its hash, so
    keying a configuration renders and sorts nothing.

    Two configurations share a key exactly when they are equal, names
    included.  A run lineage names each reduction once (``RunContext``), so
    two paths that reduce the same tasks reach equal configurations.  Paths
    that differ in labels alone do not: either of two equal tasks acted, or
    one path reduced a task after an action bound one of its variables
    (module docstring).  The search expands both, which costs nodes but
    never a result.
    """
    return (cfg.network, cfg.state, cfg.couples)


def _allowed(allow_partial: bool, allow_complete: bool, choice: Choice) -> bool:
    if choice.kind != REPLACEMENT:
        return True
    return allow_complete if choice.complete else allow_partial


def _no_replacement(choice: Choice) -> bool:
    return choice.kind != REPLACEMENT


def _expand(cfg: Configuration, ctx: RunContext, nodes, follow) -> tuple[Choice, ...]:
    """Count ``cfg`` against the budget; return its executions ``follow``
    accepts.  Where ``follow`` is ``_no_replacement``, no replacement is built."""
    if next(nodes) > SEARCH_NODES:
        raise SearchBudgetExceeded(f"more than {SEARCH_NODES} configurations")
    choices = exec_all(
        cfg, ctx, all_bindings=True, replacements=follow is not _no_replacement
    )
    return tuple(filter(follow, choices))


def maximal_traces(
    cfg0: Configuration, ctx: RunContext, follow=lambda path, choice: True
) -> Iterator[Trace]:
    """Every maximal trace from ``cfg0``, depth-first in ``exec_all`` order.

    ``follow(path, choice)`` decides whether the steps ``path`` go on with
    ``choice`` out of their last configuration; a trace is maximal where it
    can take none.  A successful configuration is a leaf, never expanded.
    """
    nodes = itertools.count(1)
    path = [Step(INITIAL, config=cfg0)]
    keep = functools.partial(follow, path)  # the path grows and shrinks in place
    untried: list[Iterator[Choice]] = []  # one per configuration on the path
    while True:
        cfg = path[-1].config
        choices = () if is_successful(cfg) else _expand(cfg, ctx, nodes, keep)
        if not choices:
            yield Trace(list(path), ctx)
        untried.append(iter(choices))
        while (choice := next(untried[-1], None)) is None:
            untried.pop()
            path.pop()
            if not path:
                return
        path.append(apply(path[-1].config, choice, ctx))


def reachable(
    cfg0: Configuration,
    ctx: RunContext,
    follow=lambda choice: True,
    narrow=lambda choices: choices,
) -> Iterator[tuple[Configuration, tuple, tuple[Choice, ...], tuple]]:
    """Each configuration reachable from ``cfg0``, once per ``canonical_key``.

    Yields ``(cfg, key, choices, successors)`` in depth-first post-order:
    ``choices`` are the executions from ``cfg`` that ``follow(choice)``
    accepts and ``narrow`` keeps, and ``successors`` the keys they lead to,
    each yielded before unless it is an ancestor still open.  A node whose
    narrowed choices lead to a key still open on the walk's stack keeps all
    its choices (the cycle proviso).  A successful configuration is a leaf:
    it is never entered or keyed, and its key reads None.

    Successors are built by ``acting.successor`` from ``ctx``'s tables
    (``acting.ComponentTables``), with no ``Step`` around them, and each is
    keyed once, where the walk builds it.
    """
    if is_successful(cfg0):
        return
    nodes = itertools.count(1)
    seen: set[tuple] = set()
    opened: set[tuple] = set()  # the keys on the stack
    stack = []

    def keyed(cfg: Configuration, choice: Choice) -> tuple[Configuration, Optional[tuple]]:
        nxt = successor(cfg, choice, ctx)
        return nxt, None if is_successful(nxt) else canonical_key(nxt)

    def enter(cfg: Configuration, key: tuple) -> None:
        seen.add(key)
        opened.add(key)
        choices = _expand(cfg, ctx, nodes, follow)
        kept = narrow(choices)
        ahead = []  # a narrowed node's successors, built once, here for the proviso
        if len(kept) < len(choices):
            ahead = [keyed(cfg, choice) for choice in kept]
        if any(nxt_key in opened for _, nxt_key in ahead):
            kept, ahead = choices, []
        stack.append((cfg, key, kept, iter(ahead), []))

    enter(cfg0, canonical_key(cfg0))
    while stack:
        cfg, key, choices, ahead, successors = stack[-1]
        for choice in choices[len(successors):]:
            nxt, nxt_key = next(ahead, None) or keyed(cfg, choice)
            successors.append(nxt_key)
            if nxt_key is not None and nxt_key not in seen:
                enter(nxt, nxt_key)
                break
        else:
            stack.pop()
            opened.discard(key)
            yield cfg, key, choices, tuple(successors)


def _commutes(body: Body) -> bool:
    """Does reducing to ``body`` commute with the steps before it?  Yes when
    it has tasks and its constraints name no other labels (module docstring)."""
    labels = body.network.labels
    return bool(labels) and all(c.labels() <= labels for c in body.network.formula)


def _ample(choices: tuple[Choice, ...]) -> tuple[Choice, ...]:
    """The reductions of the smallest-label task all of whose bodies
    commute, or all of ``choices`` when no task qualifies.
    ``exec_via_reduction`` offers reductions in label order."""
    reductions = (choice for choice in choices if choice.kind == REDUCTION)
    for _, group in itertools.groupby(reductions, key=lambda choice: choice.label):
        group = tuple(group)
        if all(_commutes(choice.body) for choice in group):
            return group
    return choices


def successful_action_sequences(
    cfg0: Configuration,
    ctx: RunContext,
    allow_partial: bool = True,
    allow_complete: bool = True,
) -> frozenset:
    """Action sequences of every successful trace reachable from ``cfg0``.

    Explores the executions (all ground bindings included), optionally
    skipping partial- or complete-replacement edges (skipping both, it
    builds no replacement choice), with the reductions of
    one task in place of every other choice wherever one qualifies (module
    docstring), and folds each configuration's sequences from its
    successors' in ``reachable`` order.  The fold codes each ground task as
    a small int, so joining sequences hashes ints, not tasks; the sequences
    are decoded once, at ``cfg0``.
    """
    # None keys a successful configuration; an ancestor still open has no
    # entry and contributes nothing
    memo: dict[Optional[tuple], set] = {None: {()}}
    codes: dict[Task, int] = {}
    key = None
    follow = (
        functools.partial(_allowed, allow_partial, allow_complete)
        if allow_partial or allow_complete else _no_replacement
    )
    for _, key, choices, successors in reachable(cfg0, ctx, follow, _ample):
        sequences = set()
        for choice, nxt in zip(choices, successors):
            suffixes = memo.get(nxt, ())
            if choice.kind == ACTION:
                # bindings ground the task at execution time, so the head is
                # final and the suffix set is label- and binding-free
                head = (codes.setdefault(choice.task, len(codes)),)
                sequences.update([head + s for s in suffixes])
            else:
                sequences.update(suffixes)
        memo[key] = sequences
    tasks = tuple(codes)  # in code order
    return frozenset(tuple(map(tasks.__getitem__, s)) for s in memo[key])


def iter_successful_traces(
    cfg0: Configuration,
    ctx: RunContext,
    allow_partial: bool = True,
    allow_complete: bool = True,
    action_target: Optional[tuple[Task, ...]] = None,
) -> Iterator[Trace]:
    """All successful traces from ``cfg0``, depth-first.

    With ``action_target`` set, branches whose performed actions stop being a
    prefix of the target are pruned, and only traces performing exactly the
    target are yielded.
    """

    def follow(path: list[Step], choice: Choice) -> bool:
        if not _allowed(allow_partial, allow_complete, choice):
            return False
        if action_target is None or choice.kind != ACTION:
            return True
        done = sum(1 for step in path if step.kind == ACTION)
        return done < len(action_target) and action_target[done] == choice.task

    for trace in maximal_traces(cfg0, ctx, follow):
        if is_successful(trace.final) and (
            action_target is None or trace.actions_performed() == action_target
        ):
            yield trace


def sample_traces(
    cfg0: Configuration,
    ctx: RunContext,
    count: int,
    require: Optional[Callable[[Trace], bool]] = None,
) -> list[Trace]:
    """The first ``count`` maximal traces, depth-first, that pass ``require``."""
    kept = (t for t in maximal_traces(cfg0, ctx) if require is None or require(t))
    return list(itertools.islice(kept, count))
