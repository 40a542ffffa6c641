"""End-to-end acceptance gate.

One test per shipped guarantee, each printing a PASS line with its runtime.
The property-based checks run over a frozen seeded corpus of random domains
within the documented bounds (at most 3 methods per task symbol, 4 tasks per
body, hierarchy depth 3, 6 constants, 6 predicates).
"""
from __future__ import annotations

import time
from pathlib import Path

import pytest

from htnact.acting import ACTION, REDUCTION, REPLACEMENT, initial_configuration
from htnact.agent import ScriptedEvents, dtrace_to_trace, run_agent
from htnact.corpus import corpus
from htnact.export import render_trace
from htnact.model import Constant, Task
from htnact.oracle import solutions_bounded
from htnact.trace import (
    DefaultStrategy,
    ScriptedStrategy,
    parse_directives,
    run,
    validate_trace,
)
from htnact.verify import (
    check_dtrace_soundness,
    check_elimination,
    check_equivalence,
    check_extendability,
    check_sequence_elimination,
    check_unavoidable_jump,
    traces_with_complete_replacements,
)

DATA = Path(__file__).parent / "data"

WALKTHROUGH_LABELS = ("8", "9", "B", "1", "4", "5", "3")
WALKTHROUGH_ACTIONS = (
    Task("calibrate"),
    Task("moveCams"),
    Task("monitor"),
    Task("estabConn"),
    Task("extData", (Constant("loc1"),)),
    Task("sendExtData", (Constant("loc1"),)),
    Task("breakConn"),
)


@pytest.fixture(scope="module")
def corpus_cases():
    return corpus(200, 0)


@pytest.fixture(scope="module")
def scheduled_cases():
    return corpus(80, 5000, with_schedule=True)


def report(number: int, name: str, started: float, limit: float) -> None:
    elapsed = time.time() - started
    assert elapsed < limit, f"criterion {number} took {elapsed:.1f}s (limit {limit}s)"
    print(f"ACCEPTANCE {number} {name}: PASS ({elapsed:.2f}s)")


def test_criterion_1_walkthrough_reproduction(
    rover, rover_nocali, walkthrough_script
):
    started = time.time()
    cfg = initial_configuration(rover_nocali.network, rover_nocali.state, rover)
    trace = run(cfg, ScriptedStrategy(parse_directives(walkthrough_script)))
    assert trace.classification() == "successful"
    shape = [
        (s.kind, s.body.method if s.body else None, s.complete)
        for s in trace.steps[1:]
    ]
    assert shape == [
        (REDUCTION, "m2", None),
        (REDUCTION, "m5", None),
        (REPLACEMENT, "m4", True),
        (ACTION, None, None),
        (ACTION, None, None),
        (ACTION, None, None),
        (REPLACEMENT, "m1", False),
        (ACTION, None, None),
        (REDUCTION, "m3", None),
        (ACTION, None, None),
        (ACTION, None, None),
        (ACTION, None, None),
    ]
    assert trace.action_labels() == WALKTHROUGH_LABELS
    assert trace.actions_performed() == WALKTHROUGH_ACTIONS
    assert validate_trace(trace) == []
    rendered = render_trace(
        trace, "rover", {"problem": "rover-nocali", "seed": "0", "strategy": "script"}
    )
    assert rendered == (DATA / "walkthrough_trace.txt").read_text()
    report(1, "walkthrough reproduction", started, 1.0)


def test_criterion_2_acting_only_solution(rover, rover_nocali):
    started = time.time()
    for depth in (3, 4):
        solutions = solutions_bounded(
            rover_nocali.network, rover_nocali.state, rover, depth
        )
        for sequence in solutions:
            symbols = {t.symbol for t in sequence}
            assert not ({"calibrate", "estabConn"} <= symbols)
        assert WALKTHROUGH_ACTIONS not in solutions
    report(2, "acting-only solution", started, 30.0)


def test_criterion_3_equivalence_with_planning(corpus_cases):
    started = time.time()
    failures = [
        (case.seed, problem)
        for case in corpus_cases
        for problem in [check_equivalence(case.network, case.state, case.domain, 4)]
        if problem is not None
    ]
    assert failures == []
    assert len(corpus_cases) >= 200
    report(3, "acting/planning equivalence", started, 600.0)


def test_criterion_4_extendability(corpus_cases):
    started = time.time()
    failures = [
        (case.seed, problem)
        for case in corpus_cases
        for problem in [check_extendability(case.network, case.state, case.domain)]
        if problem is not None
    ]
    assert failures == []
    report(4, "extendability", started, 120.0)


def test_criterion_5_complete_replacement_elimination(corpus_cases):
    started = time.time()
    checked = 0
    for case in corpus_cases:
        problem = check_sequence_elimination(case.network, case.state, case.domain)
        assert problem is None, f"seed {case.seed}: {problem}"
        for trace in traces_with_complete_replacements(case, per_case=3):
            assert check_elimination(trace) is None, f"seed {case.seed}"
            checked += 1
    assert checked >= 50, "corpus produced too few complete replacements"
    report(5, f"complete-replacement elimination ({checked} traces)", started, 300.0)


def test_criterion_6_unavoidable_jump(rover_jump, rover_nocali):
    started = time.time()
    total, jumps = check_unavoidable_jump(
        rover_nocali.network, rover_nocali.state, rover_jump, WALKTHROUGH_ACTIONS
    )
    assert total >= 1
    assert jumps == total
    report(6, f"unavoidable jump ({total} matching traces)", started, 60.0)


def test_criterion_7_dtrace_soundness(scheduled_cases):
    started = time.time()
    with_events = [case for case in scheduled_cases if case.schedule]
    assert len(with_events) >= 50
    for case in with_events:
        assert check_dtrace_soundness(case) is None, f"seed {case.seed}"
    report(7, f"d-trace soundness ({len(with_events)} schedules)", started, 300.0)


def test_criterion_8_determinism(rover, rover_nocali, walkthrough_script):
    started = time.time()

    def run_once() -> str:
        cfg = initial_configuration(
            rover_nocali.network, rover_nocali.state, rover
        )
        trace = run(cfg, ScriptedStrategy(parse_directives(walkthrough_script)))
        return render_trace(trace, "rover", {"seed": "0"})

    assert run_once() == run_once()

    def run_agent_once() -> str:
        outcome = run_agent(
            rover_nocali.state,
            rover,
            ScriptedEvents({0: (("A", Task("transmitData", (Constant("loc1"),))),
                                ("B", Task("monitor")))}),
            DefaultStrategy(),
        )
        return render_trace(outcome.dtrace, "rover", {"seed": "0"})

    assert run_agent_once() == run_agent_once()
    report(8, "determinism", started, 30.0)
