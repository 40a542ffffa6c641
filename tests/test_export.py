from __future__ import annotations

from pathlib import Path

import export_reference
from htnact import cli
from htnact.acting import OBSERVATION, REPLACEMENT, initial_configuration
from htnact.agent import ScriptedEvents, dtrace_to_trace, run_agent
from htnact.constraints import TaskNetwork
from htnact.corpus import corpus
from htnact.export import render_trace
from htnact.fixtures import fixture_path
from htnact.model import LabelledTask, Task
from htnact.trace import (
    DefaultStrategy,
    RandomStrategy,
    ScriptedStrategy,
    TraceError,
    eliminate_complete_replacements,
    parse_directives,
    run,
)
from htnact.verify import traces_with_complete_replacements
from test_blocked import counter_problem

DATA = Path(__file__).parent / "data"


def walkthrough(rover, rover_nocali, walkthrough_script):
    cfg = initial_configuration(rover_nocali.network, rover_nocali.state, rover)
    return run(cfg, ScriptedStrategy(parse_directives(walkthrough_script)))


def test_walkthrough_export_matches_golden(rover, rover_nocali, walkthrough_script):
    trace = walkthrough(rover, rover_nocali, walkthrough_script)
    meta = {"problem": "rover-nocali", "seed": "0", "strategy": "script"}
    rendered = render_trace(trace, "rover", meta)
    golden = (DATA / "walkthrough_trace.txt").read_text()
    assert rendered == golden


def test_counter_recursion_export_matches_golden():
    """Nested couples, ``last[...]`` expressions and binding lines, six deep."""
    problem, domain = counter_problem(6)
    cfg = initial_configuration(problem.network, problem.state, domain)
    trace = run(cfg, DefaultStrategy())
    meta = {"problem": "deep", "strategy": "default"}
    rendered = render_trace(trace, "counter", meta)
    assert rendered == (DATA / "counter_trace.txt").read_text()


def test_export_is_deterministic(rover, rover_nocali, walkthrough_script):
    first = render_trace(walkthrough(rover, rover_nocali, walkthrough_script), "rover")
    second = render_trace(walkthrough(rover, rover_nocali, walkthrough_script), "rover")
    assert first == second


def test_export_of_single_step_trace(rover):
    net = TaskNetwork(frozenset({LabelledTask("z", Task("nop"))}), frozenset())
    trace = run(initial_configuration(net, frozenset(), rover), DefaultStrategy())
    rendered = render_trace(trace, "rover")
    assert rendered.startswith("trace\ndomain: rover\n")
    assert "classification: successful" in rendered
    assert "actions: nop" in rendered
    assert "step 0" in rendered and "step 1" in rendered


def test_export_marks_state_deltas(rover, rover_nocali, walkthrough_script):
    rendered = render_trace(walkthrough(rover, rover_nocali, walkthrough_script), "rover")
    assert "state+: cali" in rendered           # calibrating
    assert "state-: raw" in rendered            # image processing consumes raw
    assert "mode: complete" in rendered
    assert "mode: partial" in rendered


# -- the differential check against the renderer that sorts afresh ------------

def rendered_alike(trace, domain_name: str = "", meta=None) -> str:
    """``render_trace``'s text, asserted equal to the reference renderer's."""
    text = render_trace(trace, domain_name, meta)
    assert text == export_reference.render_trace(trace, domain_name, meta)
    return text


def test_export_equals_the_reference_on_the_golden_runs(tmp_path, monkeypatch):
    """The four goldens, each rendered by both renderers from the run that
    produced it."""
    problem, domain = counter_problem(6)
    cfg = initial_configuration(problem.network, problem.state, domain)
    meta = {"problem": "deep", "strategy": "default"}
    counter = rendered_alike(run(cfg, DefaultStrategy()), "counter", meta)
    assert counter == (DATA / "counter_trace.txt").read_text()

    monkeypatch.setattr(cli, "render_trace", rendered_alike)
    rover, nocali = str(fixture_path("rover.htn")), str(fixture_path("rover_nocali.prob"))
    script = f"script:{fixture_path('walkthrough.choices')}"
    agent = f"script:{fixture_path('agent_walkthrough.choices')}"
    events = str(fixture_path("walkthrough.evt"))
    runs = {
        "walkthrough_trace.txt": [rover, nocali, "--strategy", script],
        "default_trace.txt": [rover, nocali],
        "agent_walkthrough_trace.txt": [rover, nocali, events, "--strategy", agent],
    }
    for golden, argv in runs.items():
        out = tmp_path / golden
        assert cli.main(["act", *argv, "--out", str(out)]) == 0
        assert out.read_text() == (DATA / golden).read_text()


def test_export_equals_the_reference_on_random_runs():
    replaced = 0
    for case in corpus(40, 0):
        cfg0 = initial_configuration(case.network, case.state, case.domain)
        for seed in range(3):
            trace = run(cfg0, RandomStrategy(seed))
            rendered_alike(trace, case.domain.name, {"seed": str(seed)})
            replaced += any(step.kind == REPLACEMENT for step in trace.steps)
    assert replaced  # the runs cover replacements


def test_export_equals_the_reference_on_dtraces_and_their_folds():
    observed = 0
    for case in corpus(40, 0, with_schedule=True):
        outcome = run_agent(
            case.state, case.domain, ScriptedEvents(dict(case.schedule)),
            DefaultStrategy(), max_iterations=300, stop_on_success=False,
        )
        rendered_alike(outcome.dtrace, case.domain.name)
        rendered_alike(dtrace_to_trace(outcome.dtrace), case.domain.name)
        observed += sum(step.kind == OBSERVATION for step in outcome.dtrace.steps)
    assert observed


def test_export_equals_the_reference_on_eliminated_complete_replacements():
    rewritten = 0
    for case in corpus(40, 0):
        for trace in traces_with_complete_replacements(case):
            rendered_alike(trace, case.domain.name)
            try:
                eliminated = eliminate_complete_replacements(trace)
            except TraceError:
                continue
            rendered_alike(eliminated, case.domain.name)
            rewritten += 1
    assert rewritten
