from __future__ import annotations

from pathlib import Path

from htnact.acting import initial_configuration
from htnact.constraints import TaskNetwork
from htnact.export import render_trace
from htnact.model import LabelledTask, Task
from htnact.trace import DefaultStrategy, ScriptedStrategy, parse_directives, run
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
