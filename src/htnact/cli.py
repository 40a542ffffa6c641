"""Command-line front end.

Exit codes are a stable contract: 0 for a successful run, 2 for a blocked
one, 3 when a step, iteration or search budget ran out, 4 for unreadable or
invalid inputs, 5 for a failed verification suite.
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Optional

from .acting import initial_configuration
from .agent import (
    CallbackEvents,
    EventSource,
    ObservationError,
    ScriptedEvents,
    run_agent,
)
from .corpus import CorpusCase, corpus
from .domain import Domain, reference_form_warnings, trailing_task_warnings, validate_domain
from .export import render_trace
from .model import Task
from .oracle import solutions_bounded
from .syntax import (
    Problem,
    parse_domain,
    parse_problem,
    parse_scenario,
    parse_task,
    split_task_list,
)
from .trace import (
    DefaultStrategy,
    RandomStrategy,
    ScriptedStrategy,
    SearchBudgetExceeded,
    Strategy,
    TraceError,
    parse_directives,
    run,
)
from .verify import (
    SuiteResult,
    check_dtrace_soundness,
    fold_problems,
    suite_acting_only,
    suite_dtrace_soundness,
    suite_equivalence,
    suite_elimination,
    suite_extendability,
    suite_jumps,
)

EXIT_SUCCESS = 0
EXIT_BLOCKED = 2
EXIT_BUDGET = 3
EXIT_INPUT = 4
EXIT_VERIFY = 5


class InputError(Exception):
    pass


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from None


def _load(path: str, parse, what: str, *extra):
    """The value ``parse`` reads from the file at ``path``; InputError unless ok."""
    result = parse(_read(path), *extra)
    for diag in result.diagnostics:
        print(f"{path}:{diag}", file=sys.stderr)
    if not result.ok:
        raise InputError(f"{path}: {what} did not parse")
    return result.value


def _load_domain_problem(args) -> tuple[Domain, Problem]:
    """The validated domain and the problem that ``args`` name; each problem
    constraint acting reads differently from planning is warned on stderr: an
    after-constraint without a trailing task, and a misread reference."""
    domain = _load(args.domain, parse_domain, "domain", Path(args.domain).stem)
    report = validate_domain(domain)
    if report.violations or report.warnings:
        print(report.render(), file=sys.stderr)
    if not report.ok:
        raise InputError(f"{args.domain}: domain is invalid")
    problem = _load(args.problem, parse_problem, "problem", domain)
    subject = f"problem {problem.name}"
    warnings = trailing_task_warnings(problem.network, subject)
    for c in sorted(problem.network.formula, key=str):
        warnings += reference_form_warnings(c, subject)
    for warning in warnings:
        print(f"warning {warning}", file=sys.stderr)
    return domain, problem


def _make_strategy(spec: str, seed: int) -> Strategy:
    if spec == "default":
        return DefaultStrategy()
    if spec == "random":
        return RandomStrategy(seed)
    if spec.startswith("script:"):
        path = spec.split(":", 1)[1]
        try:
            return ScriptedStrategy(parse_directives(_read(path)))
        except ValueError as exc:
            raise InputError(str(exc)) from None
    raise InputError(f"unknown strategy {spec!r}")


def _emit(text: str, out: Optional[str]) -> None:
    if out:
        try:
            Path(out).write_text(text, encoding="utf-8")
        except OSError as exc:
            raise InputError(f"cannot write {out}: {exc}") from None
    else:
        sys.stdout.write(text)


def _interactive_events(domain) -> EventSource:
    def read_batch(iteration: int):
        try:
            line = input(f"[{iteration}] tasks> ").strip()
        except EOFError:
            return None
        if not line:
            return ()
        batch = []
        for chunk in split_task_list(line):
            task = parse_task(chunk)
            if task is None:
                print(f"cannot parse task {chunk!r}", file=sys.stderr)
                continue
            batch.append((None, task))
        return batch

    return CallbackEvents(read_batch)


def cmd_act(args) -> int:
    if args.max_steps < 1:
        raise InputError("--max-steps must be at least 1")
    if args.max_iterations < 1:
        raise InputError("--max-iterations must be at least 1")
    domain, problem = _load_domain_problem(args)
    strategy = _make_strategy(args.strategy, args.seed)
    meta = {
        "problem": problem.name,
        "strategy": args.strategy.split(":", 1)[0],
        "seed": str(args.seed),
    }

    if args.scenario or args.interactive:
        if args.interactive:
            events: EventSource = _interactive_events(domain)
        else:
            scenario = _load(args.scenario, parse_scenario, "scenario", domain)
            events = ScriptedEvents(dict(scenario.schedule))
            meta["scenario"] = scenario.name
        try:
            outcome = run_agent(
                problem.state,
                domain,
                events,
                strategy,
                max_iterations=args.max_iterations,
                stop_on_success=not args.run_to_exhaustion,
                strict=args.strict_observations,
                warn=lambda msg: print(f"warning: {msg}", file=sys.stderr),
            )
        except (ObservationError, TraceError) as exc:
            raise InputError(str(exc)) from None
        trace = outcome.dtrace
        meta["iterations"] = str(outcome.iterations)
        _emit(render_trace(trace, domain.name, meta), args.out)
        if args.verify_soundness:
            problems = fold_problems(trace)
            if problems:
                for p in problems:
                    print(f"soundness: {p}", file=sys.stderr)
                return EXIT_VERIFY
            print("soundness: folded trace re-validates", file=sys.stderr)
        return _outcome_code(trace.classification(), outcome.stopped_on == "iterations")

    if not problem.network.tasks:
        raise InputError("problem declares no initial tasks and no scenario given")
    cfg = initial_configuration(problem.network, problem.state, domain)
    try:
        trace = run(cfg, strategy, budget=args.max_steps)
    except TraceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    _emit(render_trace(trace, domain.name, meta), args.out)
    return _outcome_code(trace.classification(), trace.budget_exhausted)


def _outcome_code(classification: str, out_of_budget: bool) -> int:
    """The exit code of an ``act`` run: 0 when it succeeded, 2 when it is
    blocked within its budget, 3 otherwise."""
    if classification == "successful":
        return EXIT_SUCCESS
    if classification == "blocked" and not out_of_budget:
        return EXIT_BLOCKED
    return EXIT_BUDGET


def cmd_plan(args) -> int:
    domain, problem = _load_domain_problem(args)
    if args.depth < 1:
        raise InputError("--depth must be at least 1")
    solutions = solutions_bounded(
        problem.network, problem.state, domain, args.depth
    )
    lines = [f"solutions: {len(solutions)}"]
    for seq in sorted(" . ".join(map(str, s)) for s in solutions):
        lines.append(seq or "(empty)")
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_SUCCESS


def _parse_target(text: str) -> tuple[Task, ...]:
    tasks = []
    for chunk in text.split("."):
        task = parse_task(chunk.strip())
        if task is None:
            raise InputError(f"cannot parse target task {chunk.strip()!r}")
        tasks.append(task)
    return tuple(tasks)


def cmd_verify(args) -> int:
    if args.count < 1:
        raise InputError("--count must be at least 1")
    if args.depth < 1:
        raise InputError("--depth must be at least 1")
    suite = args.suite
    result: SuiteResult
    if suite in ("equivalence", "extendability", "elimination"):
        cases = corpus(args.count, args.seed)
        if suite == "equivalence":
            result = suite_equivalence(cases, args.depth)
        elif suite == "extendability":
            result = suite_extendability(cases)
        else:
            result = suite_elimination(cases)
    elif suite == "acting-only":
        if not args.domain or not args.problem:
            raise InputError("acting-only needs a domain and a problem")
        domain, problem = _load_domain_problem(args)
        result = suite_acting_only(
            problem.network, problem.state, domain, args.depth
        )
    elif suite == "jumps":
        if not args.domain or not args.problem or not args.target:
            raise InputError("jumps needs a domain, a problem and --target")
        domain, problem = _load_domain_problem(args)
        target = _parse_target(args.target)
        result = suite_jumps(problem.network, problem.state, domain, target)
    elif suite == "dtrace-soundness":
        if args.domain and args.problem and args.scenario:
            domain, problem = _load_domain_problem(args)
            scenario = _load(args.scenario, parse_scenario, "scenario", domain)
            case = CorpusCase(
                0, domain, problem.network, problem.state, dict(scenario.schedule)
            )
            problem_text = check_dtrace_soundness(case, strict=False)
            result = SuiteResult("dtrace-soundness", problem_text is None, 1)
            if problem_text:
                result.details.append(problem_text)
        else:
            cases = corpus(args.count, args.seed, with_schedule=True)
            result = suite_dtrace_soundness(cases)
    else:
        raise InputError(f"unknown suite {suite!r}")
    print(result.line())
    return EXIT_SUCCESS if result.passed else EXIT_VERIFY


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="htnact",
        description="Act over hierarchical task networks, plan with the "
        "forward-search oracle, and verify the formal properties.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    act = sub.add_parser("act", help="run the acting engine on a problem")
    act.add_argument("domain")
    act.add_argument("problem")
    act.add_argument("scenario", nargs="?", default=None)
    act.add_argument("--strategy", default="default",
                     help="default, random, or script:FILE")
    act.add_argument("--seed", type=int, default=0)
    act.add_argument("--max-steps", type=int, default=10_000)
    act.add_argument("--max-iterations", type=int, default=1000)
    act.add_argument("--interactive", action="store_true",
                     help="read observed tasks from stdin each iteration")
    act.add_argument("--run-to-exhaustion", action="store_true",
                     help="keep looping after the trace first succeeds")
    act.add_argument("--strict-observations", action="store_true",
                     help="reject observed tasks outside the stipulation")
    act.add_argument("--verify-soundness", action="store_true",
                     help="fold the dynamic trace and re-validate it")
    act.add_argument("--out", default=None, help="write the trace export here")
    act.set_defaults(func=cmd_act)

    plan = sub.add_parser("plan", help="list bounded planned solutions")
    plan.add_argument("domain")
    plan.add_argument("problem")
    plan.add_argument("--depth", type=int, default=4)
    plan.add_argument("--out", default=None)
    plan.set_defaults(func=cmd_plan)

    verify = sub.add_parser("verify", help="run a verification suite")
    verify.add_argument("domain", nargs="?", default=None)
    verify.add_argument("problem", nargs="?", default=None)
    verify.add_argument("scenario", nargs="?", default=None)
    verify.add_argument(
        "--suite",
        required=True,
        choices=[
            "equivalence",
            "extendability",
            "elimination",
            "acting-only",
            "jumps",
            "dtrace-soundness",
        ],
    )
    verify.add_argument("--count", type=int, default=25,
                        help="random cases for corpus-based suites")
    verify.add_argument("--seed", type=int, default=0)
    verify.add_argument("--depth", type=int, default=4)
    verify.add_argument("--target", default=None,
                        help="'task . task . ...' sequence for the jumps suite")
    verify.set_defaults(func=cmd_verify)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except SearchBudgetExceeded as exc:
        print(f"budget: {exc}", file=sys.stderr)
        return EXIT_BUDGET


if __name__ == "__main__":
    sys.exit(main())
