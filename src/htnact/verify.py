"""Verification suites tying the acting semantics to the planning oracle.

Each suite checks one of the formal properties at desk scale: extendability
of open traces, the equivalence between partial-replacement-free successful
traces and planned solutions, complete-replacement elimination, acting-only
solutions, unavoidable jumps, and the soundness of dynamic traces.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

from .acting import OBSERVATION, initial_configuration, is_trace_blocked, make_context
from .agent import ScriptedEvents, dtrace_to_trace, run_agent
from .constraints import TaskNetwork
from .corpus import CorpusCase
from .domain import Domain
from .model import Task
from .oracle import solutions_bounded
from .trace import (
    DefaultStrategy,
    REPLACEMENT,
    Trace,
    TraceError,
    eliminate_complete_replacements,
    iter_successful_traces,
    reachable,
    sample_traces,
    successful_action_sequences,
    validate_trace,
)


@dataclass
class SuiteResult:
    suite: str
    passed: bool
    checked: int = 0
    details: list[str] = field(default_factory=list)

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        extra = f" ({self.checked} checks)" if self.checked else ""
        out = f"{self.suite}: {status}{extra}"
        for d in self.details:
            out += f"\n  {d}"
        return out


def _render_sequence(actions: Iterable[Task]) -> str:
    return " . ".join(str(a) for a in actions) or "(empty)"


def _action_sequences(
    network: TaskNetwork, state: frozenset, domain: Domain, allow_complete: bool
) -> frozenset:
    cfg = initial_configuration(network, state, domain)
    ctx = make_context(domain, cfg)
    return successful_action_sequences(
        cfg, ctx, allow_partial=False, allow_complete=allow_complete
    )


def acting_solution_set(
    network: TaskNetwork, state: frozenset, domain: Domain
) -> frozenset:
    """Action sequences of all successful partial-replacement-free traces.

    The search also leaves out complete replacements: a complete
    replacement abandons a body before any of its tasks acted, so reducing
    with the chosen alternative in the first place performs the same
    actions (the ``trace`` module docstring).  That this loses no sequence
    is checked, not proved: ``check_sequence_elimination`` compares the set
    with the one the search keeping complete replacements finds, and the
    ``elimination`` suite runs it on every case.  Following no
    replacement, the search builds no replacement choice.
    """
    return _action_sequences(network, state, domain, allow_complete=False)


def _difference(
    left: frozenset, right: frozenset, names: tuple[str, str]
) -> Optional[str]:
    """None when the sequence sets are equal, else up to three sequences
    only each side has, under its name."""
    if left == right:
        return None
    parts = []
    for name, only in zip(names, (left - right, right - left)):
        if only:
            shown = sorted(map(_render_sequence, only))[:3]
            parts.append(f"{name}-only: " + " | ".join(shown))
    return "; ".join(parts)


def check_equivalence(
    network: TaskNetwork, state: frozenset, domain: Domain, depth: int = 4
) -> Optional[str]:
    """Compare exhaustive acting against the oracle; None when they agree.

    Acting's side is ``acting_solution_set``, which leaves out complete
    replacements.  So the paper's claim, that the successful
    partial-replacement-free traces perform exactly the planned solutions,
    holds by composition, and only where the ``elimination`` suite passes:
    this check compares the narrowed set with the oracle, and
    ``check_sequence_elimination`` the narrowed set with the full one.
    """
    acted = acting_solution_set(network, state, domain)
    planned = solutions_bounded(network, state, domain, depth)
    return _difference(acted, planned, ("acting", "oracle"))


def check_sequence_elimination(
    network: TaskNetwork, state: frozenset, domain: Domain
) -> Optional[str]:
    """Complete-replacement elimination read on action sequences: None when
    the partial-replacement-free search finds the same sequences with
    complete replacements (``full``) as without them (``complete-free``,
    ``acting_solution_set``)."""
    full = _action_sequences(network, state, domain, allow_complete=True)
    narrowed = acting_solution_set(network, state, domain)
    return _difference(full, narrowed, ("full", "complete-free"))


def _per_case(suite: str, cases: Iterable[CorpusCase], check) -> SuiteResult:
    """Run ``check`` on each case; a case fails on the text it returns."""
    result = SuiteResult(suite, True)
    for case in cases:
        result.checked += 1
        problem = check(case)
        if problem is not None:
            result.passed = False
            result.details.append(f"seed {case.seed}: {problem}")
    return result


def suite_equivalence(cases: Iterable[CorpusCase], depth: int = 4) -> SuiteResult:
    return _per_case(
        "equivalence",
        cases,
        lambda case: check_equivalence(case.network, case.state, case.domain, depth),
    )


def check_extendability(
    network: TaskNetwork, state: frozenset, domain: Domain
) -> Optional[str]:
    """Over every reachable configuration: no executions iff successful/blocked.

    A successful configuration has no executions, so ``reachable`` skips it.
    """
    cfg0 = initial_configuration(network, state, domain)
    ctx = make_context(domain, cfg0)
    for cfg, _, choices, _ in reachable(cfg0, ctx):
        terminal = is_trace_blocked(cfg, ctx)
        if bool(choices) == terminal:
            kind = "terminal" if terminal else "open"
            return f"{kind} configuration with {len(choices)} executions: {cfg.network}"
    return None


def suite_extendability(cases: Iterable[CorpusCase]) -> SuiteResult:
    return _per_case(
        "extendability",
        cases,
        lambda case: check_extendability(case.network, case.state, case.domain),
    )


def check_elimination(trace: Trace) -> Optional[str]:
    """Eliminate complete replacements and re-check the trace's guarantees."""
    before = trace.actions_performed()
    try:
        rewritten = eliminate_complete_replacements(trace)
    except TraceError as exc:
        return f"elimination failed: {exc}"
    if not rewritten.complete_replacement_free():
        return "complete replacements remain"
    if rewritten.actions_performed() != before:
        return (
            f"actions changed: {_render_sequence(before)} -> "
            f"{_render_sequence(rewritten.actions_performed())}"
        )
    if len(rewritten) > len(trace):
        return f"trace grew from {len(trace)} to {len(rewritten)}"
    problems = validate_trace(rewritten)
    if problems:
        return "; ".join(problems[:3])
    return None


def traces_with_complete_replacements(
    case: CorpusCase, per_case: int = 3
) -> list[Trace]:
    cfg0 = initial_configuration(case.network, case.state, case.domain)
    ctx = make_context(case.domain, cfg0)
    return sample_traces(
        cfg0,
        ctx,
        per_case,
        require=lambda t: any(
            s.kind == REPLACEMENT and s.complete for s in t.steps
        ),
    )


def suite_elimination(cases: Iterable[CorpusCase], per_case: int = 3) -> SuiteResult:
    """Complete-replacement elimination on each case: on its action
    sequences (``check_sequence_elimination``, one check per case), and on
    up to ``per_case`` sampled traces with a complete replacement
    (``check_elimination``, one check per trace).  ``acting_solution_set``,
    and so ``check_equivalence``, rests on the sequence check passing."""
    result = SuiteResult("complete-replacement-elimination", True)
    traced = 0
    for case in cases:
        traces = traces_with_complete_replacements(case, per_case)
        traced += len(traces)
        problems = [check_sequence_elimination(case.network, case.state, case.domain)]
        problems += map(check_elimination, traces)
        result.checked += len(problems)
        for problem in filter(None, problems):
            result.passed = False
            result.details.append(f"seed {case.seed}: {problem}")
    if traced == 0:
        result.passed = False
        result.details.append("no trace with a complete replacement was found")
    return result


def find_acting_only_witness(
    network: TaskNetwork,
    state: frozenset,
    domain: Domain,
    depth: int = 4,
) -> Optional[Trace]:
    """A successful trace whose performed actions are not a planned solution."""
    planned = solutions_bounded(network, state, domain, depth)
    cfg0 = initial_configuration(network, state, domain)
    ctx = make_context(domain, cfg0)
    for trace in iter_successful_traces(cfg0, ctx):
        if trace.actions_performed() not in planned:
            return trace
    return None


def suite_acting_only(
    network: TaskNetwork, state: frozenset, domain: Domain, depth: int = 4
) -> SuiteResult:
    result = SuiteResult("acting-only", True, checked=1)
    witness = find_acting_only_witness(network, state, domain, depth)
    if witness is None:
        result.passed = False
        result.details.append("every successful trace is a planned solution")
    else:
        labels = " . ".join(witness.action_labels())
        result.details.append(
            f"witness: {labels} = {_render_sequence(witness.actions_performed())}"
        )
    return result


def check_unavoidable_jump(
    network: TaskNetwork,
    state: frozenset,
    domain: Domain,
    target: tuple[Task, ...],
) -> tuple[int, int]:
    """(matching traces, matching traces containing a jump) for the target plan.

    Enumerates every successful complete-replacement-free trace performing
    exactly ``target``.
    """
    cfg0 = initial_configuration(network, state, domain)
    ctx = make_context(domain, cfg0)
    total = jumps = 0
    for trace in iter_successful_traces(
        cfg0, ctx, allow_complete=False, action_target=target
    ):
        total += 1
        if not trace.jump_free():
            jumps += 1
    return total, jumps


def suite_jumps(
    network: TaskNetwork,
    state: frozenset,
    domain: Domain,
    target: tuple[Task, ...],
) -> SuiteResult:
    result = SuiteResult("unavoidable-jumps", True)
    total, jumps = check_unavoidable_jump(network, state, domain, target)
    result.checked = total
    if total == 0:
        result.passed = False
        result.details.append("no complete-replacement-free trace performs the target")
    elif jumps != total:
        result.passed = False
        result.details.append(f"{total - jumps} of {total} matching traces are jump free")
    else:
        result.details.append(f"all {total} matching traces contain a jump")
    return result


def check_dtrace_soundness(
    case: CorpusCase, max_iterations: int = 300, strict: bool = True
) -> Optional[str]:
    """Run the loop on the case's schedule and check its fold (``fold_problems``)."""
    events = ScriptedEvents(dict(case.schedule))
    outcome = run_agent(
        case.state,
        case.domain,
        events,
        DefaultStrategy(),
        max_iterations=max_iterations,
        stop_on_success=False,
        strict=strict,
    )
    return "; ".join(fold_problems(outcome.dtrace)[:3]) or None


def fold_problems(dtrace: Trace) -> list[str]:
    """Why ``dtrace`` folded (``dtrace_to_trace``) is no sound plain trace: it
    performs other actions, keeps an observation step, starts from a
    constrained network, or fails ``validate_trace``."""
    folded = dtrace_to_trace(dtrace)
    if folded.actions_performed() != dtrace.actions_performed():
        return [
            f"actions differ: {_render_sequence(dtrace.actions_performed())} vs "
            f"{_render_sequence(folded.actions_performed())}"
        ]
    if any(s.kind == OBSERVATION for s in folded.steps):
        return ["observation steps survived the folding"]
    if folded.initial.network.formula:
        return ["folded trace does not start from an unconstrained network"]
    return validate_trace(folded)


def suite_dtrace_soundness(cases: Iterable[CorpusCase]) -> SuiteResult:
    return _per_case("dtrace-soundness", cases, check_dtrace_soundness)
