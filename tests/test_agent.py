from __future__ import annotations

from dataclasses import replace as dc_replace

import pytest

from htnact.acting import is_successful, make_context
from htnact.agent import (
    NOP_LABEL,
    ObservationError,
    ScriptedEvents,
    check_observable,
    dtrace_to_trace,
    initial_agent_configuration,
    observe,
    run_agent,
    sra_step,
)
from htnact.corpus import corpus
from htnact.model import Atom, Constant, Task
from htnact.syntax import parse_scenario
from htnact.trace import (
    DefaultStrategy,
    ScriptedStrategy,
    Strategy,
    Trace,
    parse_directives,
    validate_trace,
)
from htnact.acting import INITIAL, OBSERVATION, Step, with_observed

loc1 = Constant("loc1")


def fresh_agent(rover, state):
    config = initial_agent_configuration(state, rover)
    ctx = make_context(rover, config)
    dtrace = Trace([Step(INITIAL, config=config)], ctx)
    return config, ctx, dtrace


def test_initial_top_couple(rover):
    config = initial_agent_configuration(frozenset(), rover)
    top = config.couples
    assert top.origin is None and len(top) == 1
    assert {lt.label for lt in top.pursued} == {NOP_LABEL}
    assert top.alternatives == ()


def test_observe_adds_top_level_tasks(rover, rover_nocali):
    config, ctx, _ = fresh_agent(rover, rover_nocali.state)
    new_config, observed = observe(
        config,
        [("A", Task("transmitData", (loc1,))), ("B", Task("monitor"))],
        ctx,
    )
    assert {lt.label for lt in new_config.network.tasks} == {NOP_LABEL, "A", "B"}
    assert new_config.network.formula == frozenset()
    assert {lt.label for lt in new_config.couples.pursued} == {
        NOP_LABEL,
        "A",
        "B",
    }
    assert len(observed) == 2


def test_observe_nothing_changes_nothing(rover):
    config, ctx, _ = fresh_agent(rover, frozenset())
    new_config, observed = observe(config, [], ctx)
    assert new_config == config
    assert observed == frozenset()


def test_observe_rejects_unknown_symbols(rover):
    config, ctx, _ = fresh_agent(rover, frozenset())
    with pytest.raises(ObservationError):
        observe(config, [(None, Task("mystery"))], ctx)


def test_observe_rejects_a_primitive_of_the_wrong_arity(rover):
    task = Task("move", (loc1, Constant("lan1")))
    assert check_observable(task, rover) == (
        "observed task move(loc1, lan1) does not match operator move/1"
    )
    config, ctx, _ = fresh_agent(rover, frozenset())
    with pytest.raises(ObservationError, match="does not match operator move/1"):
        observe(config, [(None, task)], ctx)


def test_run_agent_rejects_a_scheduled_primitive_of_the_wrong_arity(rover):
    events = ScriptedEvents({0: [(None, Task("charge", (loc1,)))]})
    with pytest.raises(ObservationError, match="does not match operator charge/0"):
        run_agent(frozenset(), rover, events, DefaultStrategy())


def test_observe_strict_rejects_preconditioned_primitives(rover):
    config, ctx, _ = fresh_agent(rover, frozenset())
    with pytest.raises(ObservationError):
        observe(config, [(None, Task("monitor"))], ctx, strict=True)
    warnings = []
    relaxed, observed = observe(
        config, [(None, Task("monitor"))], ctx, warn=warnings.append
    )
    assert len(observed) == 1
    assert warnings and "precondition" in warnings[0]


def test_observed_event_task_applies_effects_on_execution(rover):
    config, ctx, dtrace = fresh_agent(rover, frozenset())
    events = ScriptedEvents({0: ((None, Task("lowChargeEvent")),)})
    strategy = DefaultStrategy()
    config = sra_step(config, 0, events, strategy, dtrace, ctx)
    config = sra_step(config, 1, events, strategy, dtrace, ctx)
    config = sra_step(config, 2, events, strategy, dtrace, ctx)
    assert Atom("lowCharge") in config.state
    assert is_successful(config)


def test_sra_step_appends_observation_and_execution(rover, rover_nocali):
    config, ctx, dtrace = fresh_agent(rover, rover_nocali.state)
    events = ScriptedEvents(
        {0: (("A", Task("transmitData", (loc1,))), ("B", Task("monitor")))}
    )
    sra_step(config, 0, events, DefaultStrategy(), dtrace, ctx)
    assert [s.kind for s in dtrace.steps] == ["initial", "observation", "action"]


def test_sra_step_idles_after_success(rover):
    config, ctx, dtrace = fresh_agent(rover, frozenset())
    events = ScriptedEvents({})
    config = sra_step(config, 0, events, DefaultStrategy(), dtrace, ctx)
    assert is_successful(config)
    before = list(dtrace.steps)
    config = sra_step(config, 1, events, DefaultStrategy(), dtrace, ctx)
    assert dtrace.steps == before


def test_blocked_dtrace_unblocks_on_new_event(rover):
    # monitor cannot run while the battery is low; the charging task arrives
    # later and clears the flag
    state = frozenset({Atom("raw"), Atom("lowCharge")})
    config, ctx, dtrace = fresh_agent(rover, state)
    events = ScriptedEvents(
        {
            0: ((None, Task("monitor")),),
            3: ((None, Task("charge")),),
        }
    )
    strategy = DefaultStrategy()
    for iteration in range(8):
        config = sra_step(config, iteration, events, strategy, dtrace, ctx)
    assert is_successful(config)
    performed = [t.symbol for t in dtrace.actions_performed()]
    assert performed == ["nop", "charge", "monitor"]


def test_run_agent_walkthrough(
    rover, rover_nocali, walkthrough_scenario, agent_walkthrough_script
):
    events = ScriptedEvents(dict(walkthrough_scenario.schedule))
    outcome = run_agent(
        rover_nocali.state,
        rover,
        events,
        ScriptedStrategy(parse_directives(agent_walkthrough_script)),
    )
    assert outcome.stopped_on == "success"
    dtrace = outcome.dtrace
    assert dtrace.action_labels() == ("0", "8", "9", "B", "1", "4", "5", "3")
    folded = dtrace_to_trace(dtrace)
    assert folded.actions_performed() == dtrace.actions_performed()
    assert validate_trace(folded) == []


def midrun_dtrace(rover, rover_nocali) -> Trace:
    """Rover's walkthrough with ``B: monitor`` observed mid-run."""
    scenario = parse_scenario(
        "scenario midrun\n0: A: transmitData(loc1)\n6: B: monitor\n", rover
    ).value
    script = (
        "act 0\nreduce A with m2\nreduce 6 with m5\nreplace 6 with m4\n"
        "act 8\nact 9\nact B\nreplace A with m1\nact 1\nreduce 2 with m3\n"
        "act 4\nact 5\nact 3"
    )
    outcome = run_agent(
        rover_nocali.state,
        rover,
        ScriptedEvents(dict(scenario.schedule)),
        ScriptedStrategy(parse_directives(script)),
    )
    return outcome.dtrace


def test_dtrace_folding_moves_late_observations_to_the_start(rover, rover_nocali):
    dtrace = midrun_dtrace(rover, rover_nocali)
    observation_indexes = [
        i for i, s in enumerate(dtrace.steps) if s.kind == "observation"
    ]
    assert len(observation_indexes) == 2
    assert observation_indexes[1] > 2  # the second batch arrived mid-run
    folded = dtrace_to_trace(dtrace)
    assert all(s.kind != "observation" for s in folded.steps)
    labels = {lt.label for lt in folded.initial.network.tasks}
    assert labels == {NOP_LABEL, "A", "B"}
    assert folded.initial.network.formula == frozenset()
    assert folded.actions_performed() == dtrace.actions_performed()
    assert validate_trace(folded) == []


def reference_fold(dtrace: Trace) -> list:
    """Removes the last observation step and extends every earlier step, repeatedly."""
    steps = list(dtrace.steps)
    while any(s.kind == OBSERVATION for s in steps):
        index = max(i for i, s in enumerate(steps) if s.kind == OBSERVATION)
        observed = steps.pop(index).observed
        for i in range(index):
            steps[i] = dc_replace(steps[i], config=with_observed(steps[i].config, observed))
    return steps


def test_dtrace_folding_matches_the_one_observation_at_a_time_fold(rover, rover_nocali):
    dtrace = midrun_dtrace(rover, rover_nocali)
    folded = dtrace_to_trace(dtrace)
    assert folded.steps == reference_fold(dtrace)
    assert validate_trace(folded) == []


def test_dtrace_folding_without_observations_is_identity(rover):
    config, ctx, dtrace = fresh_agent(rover, frozenset())
    sra_step(config, 0, ScriptedEvents({}), DefaultStrategy(), dtrace, ctx)
    folded = dtrace_to_trace(dtrace)
    assert folded.steps == dtrace.steps


def test_dtrace_soundness_on_random_schedules():
    for case in corpus(10, 900, with_schedule=True):
        outcome = run_agent(
            case.state,
            case.domain,
            ScriptedEvents(dict(case.schedule)),
            DefaultStrategy(),
            stop_on_success=False,
            strict=True,
        )
        folded = dtrace_to_trace(outcome.dtrace)
        assert folded.steps == reference_fold(outcome.dtrace)
        assert folded.actions_performed() == outcome.dtrace.actions_performed()
        assert validate_trace(folded) == []


def test_observation_does_not_change_applicability(rover, rover_nocali):
    # actions offered before an observation are still offered afterwards
    from htnact.acting import exec_all

    config, ctx, dtrace = fresh_agent(rover, rover_nocali.state)
    before = {s.describe() for s in exec_all(config, ctx)}
    new_config, _ = observe(config, [("E", Task("charge"))], ctx)
    after = {s.describe() for s in exec_all(new_config, ctx)}
    assert before <= after
