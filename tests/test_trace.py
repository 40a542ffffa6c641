from __future__ import annotations

from dataclasses import replace as dc_replace

import pytest

from htnact.acting import (
    ReductionCouple,
    initial_configuration,
    make_context,
    with_alternatives,
)
from htnact.constraints import LabelRef, TaskNetwork
from htnact.corpus import corpus
from htnact.model import Atom, Constant, LabelledTask, Task
from htnact.trace import (
    DefaultStrategy,
    Directive,
    RandomStrategy,
    ScriptedStrategy,
    TraceError,
    canonical_key,
    eliminate_complete_replacements,
    iter_successful_traces,
    parse_directives,
    run,
    sample_traces,
    successful_action_sequences,
    validate_trace,
)

loc1 = Constant("loc1")


def net(tasks, constraints=()):
    return TaskNetwork(frozenset(tasks), frozenset(constraints))


def walkthrough_trace(rover, rover_nocali, walkthrough_script):
    cfg = initial_configuration(rover_nocali.network, rover_nocali.state, rover)
    return run(cfg, ScriptedStrategy(parse_directives(walkthrough_script)))


# -- directives -----------------------------------------------------------------

def test_parse_directives():
    got = parse_directives(
        "# choices\nact 8\nreduce A with m2\nreplace 6 with m4\n"
    )
    assert got == [
        Directive("action", "8"),
        Directive("reduction", "A", "m2"),
        Directive("replacement", "6", "m4"),
    ]


def test_parse_directives_rejects_noise():
    with pytest.raises(ValueError):
        parse_directives("perform 8")


def test_scripted_strategy_rejects_illegal_choice(rover, rover_nocali):
    cfg = initial_configuration(rover_nocali.network, rover_nocali.state, rover)
    with pytest.raises(TraceError):
        run(cfg, ScriptedStrategy(parse_directives("act A")))


def test_scripted_strategy_stops_when_exhausted(rover, rover_nocali):
    cfg = initial_configuration(rover_nocali.network, rover_nocali.state, rover)
    trace = run(cfg, ScriptedStrategy(parse_directives("reduce A with m2")))
    assert len(trace.steps) == 2
    assert trace.classification() == "open"


# -- classification and action sequences ------------------------------------------

def test_classify_successful(rover):
    d = net([LabelledTask("z", Task("nop"))])
    trace = run(initial_configuration(d, frozenset(), rover), DefaultStrategy())
    assert trace.classification() == "successful"
    assert [str(t) for t in trace.actions_performed()] == ["nop"]
    assert len(trace.steps) == 2


def test_classify_open_mid_walkthrough(rover, rover_nocali):
    cfg = initial_configuration(rover_nocali.network, rover_nocali.state, rover)
    script = "reduce A with m2\nreduce 6 with m5\nreplace 6 with m4\nact 8\nact 9\nact B"
    trace = run(cfg, ScriptedStrategy(parse_directives(script)))
    assert trace.classification() == "open"


def test_classify_blocked_when_no_method_applies(rover):
    d = net([LabelledTask("a", Task("transmitData", (loc1, loc1)))])
    trace = run(initial_configuration(d, frozenset(), rover), DefaultStrategy())
    assert trace.classification() == "blocked"
    assert len(trace.steps) == 1


def test_actions_empty_for_reduction_only_trace(rover, rover_nocali):
    cfg = initial_configuration(rover_nocali.network, rover_nocali.state, rover)
    trace = run(cfg, ScriptedStrategy(parse_directives("reduce A with m1")))
    assert trace.actions_performed() == ()


def test_walkthrough_action_sequence(rover, rover_nocali, walkthrough_script):
    trace = walkthrough_trace(rover, rover_nocali, walkthrough_script)
    assert trace.action_labels() == ("8", "9", "B", "1", "4", "5", "3")
    assert [str(t) for t in trace.actions_performed()] == [
        "calibrate",
        "moveCams",
        "monitor",
        "estabConn",
        "extData(loc1)",
        "sendExtData(loc1)",
        "breakConn",
    ]


def test_walkthrough_freedom_flags(rover, rover_nocali, walkthrough_script):
    trace = walkthrough_trace(rover, rover_nocali, walkthrough_script)
    assert trace.freedom_flags() == {
        "complete_replacement_free": False,
        "partial_replacement_free": False,
        "jump_free": True,
    }


def test_action_only_trace_is_free_of_everything(rover):
    d = net([LabelledTask("z", Task("nop"))])
    trace = run(initial_configuration(d, frozenset(), rover), DefaultStrategy())
    assert all(trace.freedom_flags().values())


# -- run ---------------------------------------------------------------------------

def test_run_requires_positive_budget(rover, rover_nocali):
    cfg = initial_configuration(rover_nocali.network, rover_nocali.state, rover)
    with pytest.raises(ValueError):
        run(cfg, DefaultStrategy(), budget=0)


def test_run_reports_budget_exhaustion(rover, rover_nocali):
    cfg = initial_configuration(rover_nocali.network, rover_nocali.state, rover)
    trace = run(cfg, DefaultStrategy(), budget=2)
    assert trace.budget_exhausted
    assert trace.classification() == "open"


def test_default_run_on_rover_is_frozen(rover, rover_nocali):
    cfg = initial_configuration(rover_nocali.network, rover_nocali.state, rover)
    trace = run(cfg, DefaultStrategy())
    assert trace.classification() == "successful"
    assert trace.action_labels() == ("B", "1", "4", "5", "3")
    assert validate_trace(trace) == []


def test_random_strategy_traces_validate(rover, rover_nocali):
    cfg = initial_configuration(rover_nocali.network, rover_nocali.state, rover)
    for seed in range(4):
        trace = run(cfg, RandomStrategy(seed))
        assert validate_trace(trace) == []


def test_validate_catches_tampered_state(rover, rover_nocali, walkthrough_script):
    from dataclasses import replace as dc_replace

    trace = walkthrough_trace(rover, rover_nocali, walkthrough_script)
    step = trace.steps[4]
    broken = dc_replace(
        step, config=dc_replace(step.config, state=step.config.state | {Atom("bogus")})
    )
    trace.steps[4] = broken
    assert any("differs" in p for p in validate_trace(trace))


# -- complete-replacement elimination ------------------------------------------------

def test_elimination_of_walkthrough_replacement(rover, rover_nocali, walkthrough_script):
    trace = walkthrough_trace(rover, rover_nocali, walkthrough_script)
    rewritten = eliminate_complete_replacements(trace)
    assert rewritten.complete_replacement_free()
    assert rewritten.actions_performed() == trace.actions_performed()
    assert len(rewritten) <= len(trace)
    assert validate_trace(rewritten) == []
    methods = [
        s.body.method for s in rewritten.steps if s.kind == "reduction"
    ]
    assert methods[:2] == ["m2", "m4"]


def test_elimination_keeps_free_traces_unchanged(rover, rover_nocali):
    cfg = initial_configuration(rover_nocali.network, rover_nocali.state, rover)
    trace = run(cfg, DefaultStrategy())
    rewritten = eliminate_complete_replacements(trace)
    assert rewritten.steps == trace.steps


def test_elimination_over_random_corpus_samples():
    checked = 0
    for case in corpus(12, 400):
        cfg = initial_configuration(case.network, case.state, case.domain)
        ctx = make_context(case.domain, cfg)
        for trace in sample_traces(
            cfg,
            ctx,
            2,
            require=lambda t: not t.complete_replacement_free(),
        ):
            rewritten = eliminate_complete_replacements(trace)
            assert rewritten.complete_replacement_free()
            assert rewritten.actions_performed() == trace.actions_performed()
            assert len(rewritten) <= len(trace)
            assert validate_trace(rewritten) == []
            checked += 1
    assert checked > 0


# -- exhaustive search helpers -------------------------------------------------------

def test_successful_sequences_memoization_matches_path_enumeration(rover, rover_nocali):
    cfg = initial_configuration(rover_nocali.network, rover_nocali.state, rover)
    ctx = make_context(rover, cfg)
    via_sets = successful_action_sequences(cfg, ctx, allow_partial=False)
    via_paths = {
        t.actions_performed()
        for t in iter_successful_traces(cfg, ctx, allow_partial=False)
    }
    assert via_sets == via_paths


def test_iter_traces_prunes_on_target(rover, rover_nocali):
    cfg = initial_configuration(rover_nocali.network, rover_nocali.state, rover)
    ctx = make_context(rover, cfg)
    target = (Task("monitor"),)
    assert list(iter_successful_traces(cfg, ctx, action_target=target)) == []


# -- canonical keys ---------------------------------------------------------------

def reduced_twice(rover, problem):
    """The rover problem after reducing A by m2, then 6 by m5."""
    cfg = initial_configuration(problem.network, problem.state, rover)
    script = parse_directives("reduce A with m2\nreduce 6 with m5")
    return run(cfg, ScriptedStrategy(script)).final


def relabelled(cfg, prefix):
    """``cfg`` with ``prefix`` put before every label, which keeps their order."""

    def ref(r):
        if isinstance(r, LabelRef):
            return LabelRef(prefix + r.label)
        return type(r)(frozenset(prefix + label for label in r.labels))

    def tasks(labelled):
        return frozenset(LabelledTask(prefix + lt.label, lt.task) for lt in labelled)

    def network(d):
        return TaskNetwork(tasks(d.tasks), frozenset(c.rewrite_refs(ref) for c in d.formula))

    def couples(c):
        return ReductionCouple(
            c.origin and prefix + c.origin,
            tasks(c.members),
            tuple(
                dc_replace(b, fresh=tuple(prefix + label for label in b.fresh))
                for b in c.alternatives
            ),
            tuple(couples(child) for child in c.children),
        )

    return dc_replace(cfg, network=network(cfg.network), couples=couples(cfg.couples))


def test_a_relabelled_configuration_gets_another_key_but_the_same_sequences(
    rover, rover_problem
):
    """Keys compare configurations by equality, names included, so a
    renaming of the labels changes the key and never the sequences."""
    cfg = reduced_twice(rover, rover_problem)
    renamed = relabelled(cfg, "n")
    assert renamed != cfg
    assert canonical_key(renamed) != canonical_key(cfg)
    sequences = successful_action_sequences(cfg, make_context(rover, cfg))
    assert sequences
    assert successful_action_sequences(renamed, make_context(rover, renamed)) == sequences


def test_canonical_key_tells_structures_apart(rover, rover_problem):
    cfg = reduced_twice(rover, rover_problem)
    key = canonical_key(cfg)
    dropped = sorted(cfg.network.formula, key=str)[0]
    fewer_constraints = dc_replace(
        cfg,
        network=TaskNetwork(cfg.network.tasks, cfg.network.formula - {dropped}),
    )
    more_state = dc_replace(cfg, state=cfg.state | {Atom("bogus")})
    couple = next(c for c in cfg.couples if c.alternatives)
    fewer_alternatives = dc_replace(
        cfg, couples=with_alternatives(cfg.couples, couple.origin, ())
    )
    for changed in (fewer_constraints, more_state, fewer_alternatives):
        assert canonical_key(changed) != key
