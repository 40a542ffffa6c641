from __future__ import annotations

import os
import subprocess
import sys
from dataclasses import replace as dc_replace
from pathlib import Path

import pytest

import htnact
from htnact import acting
from htnact.acting import (
    Configuration,
    ReductionCouple,
    action_result,
    applicable_substitutions,
    apply,
    exec_all,
    exec_via_reduction,
    exec_via_replacement,
    initial_configuration,
    is_applicable,
    is_blocked,
    is_successful,
    is_trace_blocked,
    make_context,
    primary_tasks,
    realised_constraints,
    relevant_constraints,
    replace_tasks,
    smallest_replaceable,
)
from htnact.constraints import (
    Before,
    Constraint,
    FirstRef,
    LabelRef,
    LastRef,
    Ordering,
    TaskNetwork,
)
from htnact.model import (
    Atom,
    Constant,
    LabelledTask,
    Literal,
    Substitution,
    Task,
    Variable,
)
from htnact.trace import ScriptedStrategy, Strategy, parse_directives, run
from grounding_reference import extracted_literals

loc1, lan1 = Constant("loc1"), Constant("lan1")
L = Variable("L")


def net(tasks, constraints=()):
    return TaskNetwork(frozenset(tasks), frozenset(constraints))


def labels(tasks):
    return {lt.label for lt in tasks}


def scripted(trace_cfg, script):
    return run(trace_cfg, ScriptedStrategy(parse_directives(script)))


@pytest.fixture()
def after_two_reductions(rover, rover_problem):
    cfg = initial_configuration(rover_problem.network, rover_problem.state, rover)
    trace = scripted(cfg, "reduce A with m2\nreduce 6 with m5")
    return trace.final


@pytest.fixture()
def after_two_reductions_nocali(rover, rover_nocali):
    cfg = initial_configuration(rover_nocali.network, rover_nocali.state, rover)
    trace = scripted(cfg, "reduce A with m2\nreduce 6 with m5")
    return trace.final


def method_body(domain, name):
    return next(m for m in domain.methods if m.name == name).body


# -- primary tasks --------------------------------------------------------------

def test_primary_of_radio_recipe(rover):
    assert labels(primary_tasks(method_body(rover, "m1"), rover)) == {"1"}


def test_primary_of_calibrating_navigation(rover):
    assert labels(primary_tasks(method_body(rover, "m4"), rover)) == {"8", "9"}


def test_primary_excludes_deferred_actions(rover):
    d = net(
        [
            LabelledTask("a", Task("calibrate")),
            LabelledTask("b", Task("calibrate")),
            LabelledTask("c", Task("calibrate")),
        ],
        [
            Constraint(Ordering(LabelRef("a"), LabelRef("b"))),
            Constraint(Ordering(LabelRef("c"), LabelRef("a")), negated=True),
        ],
    )
    assert labels(primary_tasks(d, rover)) == {"a"}


def test_primary_negated_ordering_keeps_nonprimitive(rover):
    d = net(
        [
            LabelledTask("a", Task("navigate", (lan1,))),
            LabelledTask("b", Task("calibrate")),
        ],
        [Constraint(Ordering(LabelRef("a"), LabelRef("b")), negated=True)],
    )
    assert labels(primary_tasks(d, rover)) == {"a", "b"}


def test_primary_blocks_all_labels_on_the_right(rover):
    d = net(
        [
            LabelledTask("a", Task("calibrate")),
            LabelledTask("b", Task("calibrate")),
            LabelledTask("c", Task("calibrate")),
        ],
        [Constraint(Ordering(LabelRef("a"), FirstRef(frozenset({"b", "c"}))))],
    )
    assert labels(primary_tasks(d, rover)) == {"a"}


# -- relevant constraints and applicability ---------------------------------------

def test_relevant_constraints_after_two_reductions(after_two_reductions):
    got = {str(c) for c in relevant_constraints("11", after_two_reductions.network)}
    assert got == {
        "before lander(L) first[11,12]",
        "before didExp(loc1) first[11,12]",
        "before !lowCharge 11",
        "before cali 11",
    }


def test_relevant_constraints_empty_formula(rover):
    d = net([LabelledTask("a", Task("calibrate"))])
    assert relevant_constraints("a", d) == frozenset()


def test_after_constraint_relevant_only_once_executed(rover):
    from htnact.constraints import After

    p = Literal(Atom("raw"))
    live = net(
        [LabelledTask("a", Task("calibrate")), LabelledTask("b", Task("moveCams"))],
        [Constraint(After(LabelRef("a"), p))],
    )
    assert relevant_constraints("b", live) == frozenset()
    ghost = net(
        [LabelledTask("b", Task("moveCams"))],
        [Constraint(After(LabelRef("a"), p))],
    )
    assert {str(c) for c in relevant_constraints("b", ghost)} == {"after a raw"}


def test_extracted_literals_flip_negated_constraints(after_two_reductions):
    got = {str(l) for l in extracted_literals("11", after_two_reductions.network)}
    assert got == {"lander(L)", "didExp(loc1)", "!lowCharge", "cali"}


def test_extracted_literals_negated_before():
    d = net(
        [LabelledTask("a", Task("calibrate"))],
        [Constraint(Before(Literal(Atom("cali")), LabelRef("a")), negated=True)],
    )
    assert {str(l) for l in extracted_literals("a", d)} == {"!cali"}


def test_applicability_binds_through_state(after_two_reductions):
    cfg = after_two_reductions
    ctx = make_context(cfg.domain, cfg)
    theta = is_applicable("11", cfg.network, cfg.state, ctx)
    assert theta is not None
    assert theta.term(L) == lan1


def test_applicability_fails_without_calibration(after_two_reductions_nocali):
    cfg = after_two_reductions_nocali
    ctx = make_context(cfg.domain, cfg)
    assert is_applicable("11", cfg.network, cfg.state, ctx) is None


def test_nop_is_always_applicable(rover):
    d = net([LabelledTask("z", Task("nop"))])
    cfg = initial_configuration(d, frozenset(), rover)
    ctx = make_context(rover, cfg)
    assert is_applicable("z", d, frozenset(), ctx) == Substitution()


def test_applicable_substitutions_enumerates_all_groundings(rover):
    d = net([LabelledTask("m", Task("move", (L,)))])
    state = frozenset({Atom("lander", (lan1,))})
    cfg = initial_configuration(d, state, rover)
    ctx = make_context(rover, cfg)
    all_thetas = applicable_substitutions("m", d, state, ctx, limit=None)
    assert {t.term(L) for t in all_thetas} == {lan1}


# -- realised constraints and action results --------------------------------------

def test_realised_constraints_keep_pending_group_orderings(after_two_reductions):
    cfg = after_two_reductions
    realised = realised_constraints("11", cfg.network)
    assert {str(c) for c in cfg.network.formula - realised} == {
        "ord last[11,12] < 7"
    }


def test_between_not_realised_before_endpoint(rover):
    d = method_body(rover, "m1")
    realised = {str(c) for c in realised_constraints("1", d)}
    assert "between 1 connEst 3" not in realised
    assert "ord 1 < 2" in realised


def test_realised_constraints_empty_case(rover):
    d = net([LabelledTask("a", Task("calibrate"))])
    assert realised_constraints("a", d) == frozenset()


def test_action_result_of_camera_pointing(after_two_reductions):
    cfg = after_two_reductions
    theta = Substitution({L: lan1})
    network, state, couples = action_result(
        "11", cfg.state, cfg.network, theta, cfg.couples, cfg.domain
    )
    assert state == cfg.state | {Atom("camMoved")}
    assert labels(network.tasks) == {"12", "7", "B"}
    assert {str(c) for c in network.formula} == {"ord last[12] < 7"}
    move = network.task_of("12")
    assert move.task == Task("move", (lan1,))
    for couple in couples:
        assert all("L" not in str(a) for lt in couple.pursued for a in lt.task.args)


def test_action_result_nop_changes_nothing_but_tasks(rover):
    d = net([LabelledTask("z", Task("nop")), LabelledTask("q", Task("charge"))])
    state = frozenset({Atom("raw")})
    cfg = initial_configuration(d, state, rover)
    network, new_state, _ = action_result(
        "z", state, d, Substitution(), cfg.couples, rover
    )
    assert new_state == state
    assert labels(network.tasks) == {"q"}


def test_action_result_on_last_task_empties_network(rover):
    d = net([LabelledTask("z", Task("nop"))])
    cfg = initial_configuration(d, frozenset(), rover)
    network, state, couples = action_result(
        "z", frozenset(), d, Substitution(), cfg.couples, rover
    )
    assert network.tasks == frozenset()
    assert couples  # executed tasks stay recorded in the couples


# -- execution via reduction -------------------------------------------------------

def test_reduction_couples_after_first_step(rover, rover_problem):
    cfg = initial_configuration(rover_problem.network, rover_problem.state, rover)
    ctx = make_context(rover, cfg)
    choices = exec_via_reduction(cfg, ctx)
    chosen = next(c for c in choices if c.body.method == "m2")
    by_origin = {c.origin: c for c in apply(cfg, chosen).config.couples}
    assert set(by_origin) == {None, "A"}
    assert labels(by_origin[None].pursued) == {"6", "7", "B"}
    assert labels(by_origin["A"].pursued) == {"6", "7"}
    assert [b.method for b in by_origin["A"].alternatives] == ["m1"]


def test_reduction_couples_after_second_step(after_two_reductions):
    by_origin = {c.origin: c for c in after_two_reductions.couples}
    assert set(by_origin) == {None, "A", "6"}
    assert labels(by_origin[None].pursued) == {"11", "12", "7", "B"}
    assert labels(by_origin["A"].pursued) == {"11", "12", "7"}
    assert [b.method for b in by_origin["A"].alternatives] == ["m1"]
    assert labels(by_origin["6"].pursued) == {"11", "12"}
    assert [b.method for b in by_origin["6"].alternatives] == ["m4"]


def test_reduction_of_primitive_only_network_is_empty(rover):
    d = net([LabelledTask("z", Task("nop"))])
    cfg = initial_configuration(d, frozenset(), rover)
    ctx = make_context(rover, cfg)
    assert exec_via_reduction(cfg, ctx) == ()


# -- blocking and replacement ------------------------------------------------------

def test_navigation_couple_blocked_without_calibration(after_two_reductions_nocali):
    cfg = after_two_reductions_nocali
    ctx = make_context(cfg.domain, cfg)
    couple = next(c for c in cfg.couples if c.origin == "6")
    assert is_blocked(couple.pursued, cfg.network, cfg.state, ctx)


def test_applicable_member_prevents_blocking(rover):
    d = net([LabelledTask("z", Task("nop")), LabelledTask("q", Task("charge"))])
    cfg = initial_configuration(d, frozenset(), rover)
    ctx = make_context(rover, cfg)
    assert not is_blocked(cfg.network.tasks, d, frozenset(), ctx)


def test_methodless_nonprimitive_blocks(rover):
    d = net(
        [
            LabelledTask("a", Task("transmitData", (loc1, lan1))),
            LabelledTask("z", Task("nop")),
        ],
    )
    cfg = initial_configuration(d, frozenset(), rover)
    ctx = make_context(rover, cfg)
    assert is_blocked(
        frozenset({d.task_of("a")}), d, frozenset(), ctx
    )


def test_blocked_requires_shared_primary_task(rover):
    d = net(
        [LabelledTask("a", Task("calibrate")), LabelledTask("b", Task("charge"))],
        [Constraint(Ordering(LabelRef("a"), LabelRef("b")))],
    )
    cfg = initial_configuration(d, frozenset(), rover)
    ctx = make_context(rover, cfg)
    with pytest.raises(ValueError):
        is_blocked(frozenset({d.task_of("b")}), d, frozenset(), ctx)


def test_complete_replacement_rewrites_inherited_references(
    rover, after_two_reductions_nocali
):
    cfg = after_two_reductions_nocali
    ctx = make_context(cfg.domain, cfg)
    choices = exec_via_replacement(cfg, ctx)
    # both the navigation couple and its ancestor are blocked; skipping the
    # smaller navigation couple would be a jump
    options = {(c.label, c.body.method, c.complete, c.jump) for c in choices}
    assert options == {("6", "m4", True, False), ("A", "m1", True, True)}
    step = apply(cfg, next(c for c in choices if c.label == "6"))
    assert step.complete and not step.jump
    assert labels(step.config.network.tasks) == {"8", "9", "10", "7", "B"}
    rendered = {str(c) for c in step.config.network.formula}
    assert "before lander(L) first[8,9,10]" in rendered
    assert "before didExp(loc1) first[8,9,10]" in rendered
    assert "ord last[8,9,10] < 7" in rendered
    by_origin = {c.origin: c for c in step.config.couples}
    assert labels(by_origin["6"].pursued) == {"8", "9", "10"}
    assert by_origin["6"].alternatives == ()
    assert labels(by_origin["A"].pursued) == {"8", "9", "10", "7"}


def test_pure_swap_when_nothing_was_executed(rover):
    d = net([LabelledTask("x", Task("calibrate")), LabelledTask("y", Task("charge"))])
    pursued = d.tasks
    replacement = net([LabelledTask("p", Task("nop")), LabelledTask("q", Task("nop"))])
    swapped = replace_tasks(pursued, replacement, d)
    assert labels(swapped.tasks) == {"p", "q"}


def test_partial_replacement_reaches_radio_recipe(rover, rover_nocali):
    cfg = initial_configuration(rover_nocali.network, rover_nocali.state, rover)
    trace = scripted(
        cfg,
        "reduce A with m2\nreduce 6 with m5\nreplace 6 with m4\n"
        "act 8\nact 9\nact B",
    )
    ctx = make_context(rover, trace.final)
    choices = exec_via_replacement(trace.final, ctx)
    assert [c.body.method for c in choices] == ["m1"]
    step = apply(trace.final, choices[0])
    assert not step.complete
    assert not step.jump
    assert labels(step.config.network.tasks) == {"1", "2", "3"}
    by_origin = {c.origin: c for c in step.config.couples}
    assert set(by_origin) == {None, "A"}
    assert labels(by_origin[None].pursued) == {"8", "9", "1", "2", "3", "B"}
    assert labels(by_origin["A"].pursued) == {"8", "9", "1", "2", "3"}
    assert by_origin["A"].alternatives == ()


def test_update_keeps_couple_with_no_alternatives_left(rover, rover_nocali):
    cfg = initial_configuration(rover_nocali.network, rover_nocali.state, rover)
    trace = scripted(cfg, "reduce A with m2\nreduce 6 with m5\nreplace 6 with m4")
    by_origin = {c.origin: c for c in trace.final.couples}
    assert by_origin["6"].alternatives == ()


def test_replacement_checks_smallest_only_for_a_blocked_couple(
    monkeypatch, after_two_reductions, after_two_reductions_nocali
):
    calls = []
    real = acting.smallest_replaceable

    def counted(couples):
        calls.append(couples)
        return real(couples)

    monkeypatch.setattr(acting, "smallest_replaceable", counted)
    cfg = after_two_reductions
    assert any(c.alternatives for c in cfg.couples)
    assert exec_via_replacement(cfg, make_context(cfg.domain, cfg)) == ()
    assert calls == []
    blocked = after_two_reductions_nocali
    assert exec_via_replacement(blocked, make_context(blocked.domain, blocked))
    assert calls == [blocked.couples]


# -- smallest replaceable couples --------------------------------------------------

def couple(origin, task_labels, n_alts, body, *children):
    """A couple over ``nop`` tasks with the couples ``children`` below it."""
    return ReductionCouple(
        origin,
        frozenset(LabelledTask(l, Task("nop")) for l in task_labels),
        tuple([body] * n_alts),
        children,
    )


@pytest.fixture()
def dummy_body(rover):
    from htnact.reduction import relevant_method_bodies
    from htnact.model import NameGenerator

    return relevant_method_bodies(Task("navigate", (lan1,)), rover, NameGenerator())[0]


def test_smallest_prefers_deepest_couple(dummy_body):
    inner = couple("6", {"8", "9", "10"}, 1, dummy_body)
    outer = couple("A", {"7"}, 1, dummy_body, inner)
    top = couple(None, {"B"}, 0, dummy_body, outer)
    assert outer.labels == {"8", "9", "10", "7"}
    assert smallest_replaceable(top) == frozenset({inner})


def test_smallest_empty_when_no_alternatives(dummy_body):
    top = couple(None, {"a"}, 0, dummy_body)
    assert smallest_replaceable(top) == frozenset()


def test_smallest_keeps_disjoint_couples(dummy_body):
    left = couple("x", {"a", "b"}, 1, dummy_body)
    right = couple("y", {"c", "d"}, 1, dummy_body)
    got = smallest_replaceable(couple(None, (), 0, dummy_body, left, right))
    assert got == frozenset({left, right})


def test_exhausted_subset_does_not_block_smallest(dummy_body):
    spent = couple("x", {"a"}, 0, dummy_body)
    outer = couple("y", {"b"}, 1, dummy_body, spent)
    assert smallest_replaceable(outer) == frozenset({outer})


# -- exec_all and terminal classification -------------------------------------------

def test_exec_all_empty_on_success(rover):
    d = net([LabelledTask("z", Task("nop"))])
    cfg = initial_configuration(d, frozenset(), rover)
    ctx = make_context(rover, cfg)
    trace = run(cfg, ScriptedStrategy(parse_directives("act z")))
    final = trace.final
    assert is_successful(final)
    assert exec_all(final, ctx) == ()


def test_exec_all_empty_when_fully_blocked(rover):
    d = net([LabelledTask("m", Task("monitor"))])
    state = frozenset({Atom("lowCharge")})
    cfg = initial_configuration(d, state, rover)
    ctx = make_context(rover, cfg)
    assert exec_all(cfg, ctx) == ()
    assert is_trace_blocked(cfg, ctx)


def test_a_run_stops_at_a_blocked_configuration_without_asking(rover):
    class Refusing(Strategy):
        def choose(self, trace, choices):
            raise AssertionError("nothing should be offered")

    d = net([LabelledTask("m", Task("monitor"))])
    cfg = initial_configuration(d, frozenset({Atom("lowCharge")}), rover)
    trace = run(cfg, Refusing())
    assert len(trace) == 1
    assert trace.classification() == "blocked" and not trace.budget_exhausted


def test_primary_tasks_are_computed_once_per_configuration(after_two_reductions):
    cfg = after_two_reductions
    assert cfg.primary is cfg.primary
    assert cfg.primary == primary_tasks(cfg.network, cfg.domain)
    assert "primary" not in repr(cfg)
    assert dc_replace(cfg) == cfg and "primary" not in vars(dc_replace(cfg))


# Counts is_blocked and applicability calls over a plain run and an agent run
# of rover with two chained transmitData tasks; printed as
# "<plain> <plain + agent>".
BLOCKED_CALLS_SCRIPT = r"""
from collections import Counter

from htnact import acting
from htnact.acting import initial_configuration
from htnact.agent import ScriptedEvents, run_agent
from htnact.fixtures import fixture_text
from htnact.syntax import parse_domain, parse_problem, parse_scenario
from htnact.trace import DefaultStrategy, run

calls = Counter()

def counted(name):
    real = getattr(acting, name)

    def wrapper(*args, **kwargs):
        calls[name] += 1
        return real(*args, **kwargs)

    setattr(acting, name, wrapper)

counted("is_blocked")
counted("applicable_substitutions")
domain = parse_domain(fixture_text("rover.htn"), "rover").value
problem = parse_problem(
    "problem two\nstate: didExp(loc1), didExp(loc2), lander(lan1)\n"
    "tasks:\n  A1: transmitData(loc1)\n  A2: transmitData(loc2)\n"
    "constraints:\n  ord A1 < A2\n",
    domain,
).value
run(initial_configuration(problem.network, problem.state, domain), DefaultStrategy())
plain = sorted(calls.items())
scenario = parse_scenario(
    "scenario two\n0: A1: transmitData(loc1)\n8: A2: transmitData(loc2)\n", domain
).value
run_agent(problem.state, domain, ScriptedEvents(dict(scenario.schedule)), DefaultStrategy())
print(plain, sorted(calls.items()))
"""


def test_blocked_checks_do_not_depend_on_string_hashing():
    env = dict(os.environ, PYTHONPATH=str(Path(htnact.__file__).parents[1]))
    counts = set()
    for hash_seed in ("1", "2", "3"):
        done = subprocess.run(
            [sys.executable, "-c", BLOCKED_CALLS_SCRIPT],
            env=dict(env, PYTHONHASHSEED=hash_seed),
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert done.returncode == 0, done.stderr
        counts.add(done.stdout.strip())
    assert len(counts) == 1, counts


def test_exec_all_offers_action_after_reductions(after_two_reductions):
    cfg = after_two_reductions
    ctx = make_context(cfg.domain, cfg)
    steps = exec_all(cfg, ctx)
    described = {s.describe() for s in steps}
    assert "action 11:moveCams" in described


def test_primary_tasks_subset_invariant(after_two_reductions):
    network = after_two_reductions.network
    primary = primary_tasks(network, after_two_reductions.domain)
    assert primary <= network.tasks
    right_sides = set()
    for c in network.formula:
        if not c.negated and isinstance(c.body, Ordering):
            right_sides |= c.body.after.labels
    assert labels(primary).isdisjoint(right_sides)


# -- propagated state-constraints ----------------------------------------------------

def _effects_domain():
    from htnact.domain import Operator, make_domain

    p = Atom("p")
    return make_domain(
        "fx",
        [
            Operator("seta", (), (), (p,), ()),
            Operator("unseta", (), (), (), (p,)),
            Operator("leaf", ()),
        ],
        [],
    )


def test_after_constraint_propagates_through_last_sets():
    from htnact.constraints import After
    from htnact.trace import DefaultStrategy, ScriptedStrategy, parse_directives, run

    domain = _effects_domain()
    d = net(
        [
            LabelledTask("x", Task("seta")),
            LabelledTask("y", Task("leaf")),
            LabelledTask("z", Task("leaf")),
        ],
        [
            Constraint(After(LastRef(frozenset({"x", "y"})), Literal(Atom("p")))),
            Constraint(Ordering(LastRef(frozenset({"x", "y"})), LabelRef("z"))),
        ],
    )
    cfg = initial_configuration(d, frozenset(), domain)
    trace = run(cfg, ScriptedStrategy(parse_directives("act x\nact y")))
    formula = {str(c) for c in trace.final.network.formula}
    assert "after last[] p" in formula
    got = relevant_constraints("z", trace.final.network)
    assert {str(c) for c in got} == {"after last[] p"}
    # p was asserted by x and never removed, so z may run
    ctx = make_context(domain, trace.final)
    assert is_applicable("z", trace.final.network, trace.final.state, ctx) is not None


def test_negated_between_discharges_when_escape_literal_holds():
    from htnact.constraints import Between
    from htnact.trace import ScriptedStrategy, Strategy, parse_directives, run

    domain = _effects_domain()
    d = net(
        [
            LabelledTask("a", Task("seta")),
            LabelledTask("m", Task("unseta")),
            LabelledTask("b", Task("leaf")),
        ],
        [
            Constraint(Ordering(LabelRef("a"), LabelRef("m"))),
            Constraint(Ordering(LabelRef("m"), LabelRef("b"))),
            Constraint(
                Between(LabelRef("a"), Literal(Atom("p")), LabelRef("b")),
                negated=True,
            ),
        ],
    )
    cfg = initial_configuration(d, frozenset(), domain)
    trace = run(cfg, ScriptedStrategy(parse_directives("act a\nact m")))
    # the middle action removed p, so the escape literal held and the
    # constraint is discharged before b runs
    assert all(
        not isinstance(c.body, Between) for c in trace.final.network.formula
    )
    ctx = make_context(domain, trace.final)
    assert is_applicable("b", trace.final.network, trace.final.state, ctx) is not None


def test_negated_between_burdens_the_endpoint_when_never_escaped():
    from htnact.constraints import Between
    from htnact.trace import ScriptedStrategy, Strategy, parse_directives, run

    domain = _effects_domain()
    d = net(
        [
            LabelledTask("a", Task("seta")),
            LabelledTask("m", Task("leaf")),
            LabelledTask("b", Task("leaf")),
        ],
        [
            Constraint(Ordering(LabelRef("a"), LabelRef("m"))),
            Constraint(Ordering(LabelRef("m"), LabelRef("b"))),
            Constraint(
                Between(LabelRef("a"), Literal(Atom("p")), LabelRef("b")),
                negated=True,
            ),
        ],
    )
    cfg = initial_configuration(d, frozenset(), domain)
    trace = run(cfg, ScriptedStrategy(parse_directives("act a\nact m")))
    survived = [c for c in trace.final.network.formula if isinstance(c.body, Between)]
    assert len(survived) == 1
    assert {str(l) for l in extracted_literals("b", trace.final.network)} == {"!p"}
    ctx = make_context(domain, trace.final)
    assert is_applicable("b", trace.final.network, trace.final.state, ctx) is None


def test_equality_literal_binds_in_applicability():
    from htnact.domain import Operator, make_domain
    from htnact.model import Variable

    W = Variable("W")
    op = Operator("pick", (W,), (Literal(Atom("=", (W, Constant("c2")))),), (), ())
    domain = make_domain("eq", [op], [])
    d = net([LabelledTask("a", Task("pick", (W,)))])
    state = frozenset({Atom("seen", (Constant("c1"),)), Atom("seen", (Constant("c2"),))})
    cfg = initial_configuration(d, state, domain)
    ctx = make_context(domain, cfg)
    theta = is_applicable("a", d, state, ctx)
    assert theta is not None and theta.term(W) == Constant("c2")
