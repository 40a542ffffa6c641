from __future__ import annotations

import random
import string

import pytest
from hypothesis import given, settings, strategies as st

from htnact.constraints import Between, Constraint, FirstRef
from htnact.fixtures import fixture_text
from htnact.model import Constant, Task, Variable
from htnact.syntax import (
    parse_domain,
    parse_problem,
    parse_scenario,
    parse_task,
    render_domain,
    render_problem,
    render_scenario,
)


def test_rover_domain_structure(rover):
    assert rover.name == "rover"
    assert [m.name for m in rover.methods] == ["m1", "m2", "m3", "m4", "m5"]
    operators = {op.symbol for op in rover.operators}
    assert {
        "estabConn",
        "breakConn",
        "extData",
        "sendExtData",
        "uploadData",
        "calibrate",
        "moveCams",
        "move",
        "monitor",
        "charge",
        "nop",
    } <= operators
    move = rover.operator_for(Task("move", (Constant("lan1"),)))
    assert [str(l) for l in move.precondition] == ["!lowCharge"]


def test_first_expressions_parse_into_label_sets(rover):
    m4 = next(m for m in rover.methods if m.name == "m4")
    firsts = [
        c
        for c in m4.body.formula
        if not isinstance(c.body, Between) and isinstance(getattr(c.body, "ref", None), FirstRef)
    ]
    assert any(c.body.ref.labels == frozenset({"8", "9"}) for c in firsts)


def test_between_constraint_parses(rover):
    m1 = next(m for m in rover.methods if m.name == "m1")
    betweens = [c for c in m1.body.formula if isinstance(c.body, Between)]
    assert len(betweens) == 1
    assert str(betweens[0]) == "between 1 connEst 3"


def test_empty_file_reports_no_domain():
    result = parse_domain("")
    assert not result.ok
    assert any("no domain declared" in str(d) for d in result.errors)


def test_disjunction_syntax_is_rejected():
    text = """
domain bad
operator a
  pre:
  add:
  del:
method m g
  tasks:
    1: a
    2: a
  constraints:
    ord 1 < 2 or ord 2 < 1
"""
    result = parse_domain(text)
    assert any("disjunctive" in str(d) for d in result.errors)


def test_diagnostics_carry_positions():
    result = parse_domain("domain d\noperator !!\n")
    assert result.errors
    assert result.errors[0].line == 2
    assert result.errors[0].column >= 1


def test_missing_trailing_task_gets_a_noop():
    text = """
domain d
operator a
  pre:
  add:
  del:
method m g
  tasks:
    1: a
    2: a
  constraints:
    before p 1
"""
    result = parse_domain(text)
    assert result.ok
    assert any("appended" in str(d) for d in result.diagnostics)
    body = result.value.methods[0].body
    assert len(body.tasks) == 3
    nop = next(lt for lt in body.tasks if lt.task.symbol == "nop")
    orderings = {str(c) for c in body.formula}
    assert f"ord 1 < {nop.label}" in orderings
    assert f"ord 2 < {nop.label}" in orderings


def test_upper_case_heads_are_variables(rover):
    m2 = next(m for m in rover.methods if m.name == "m2")
    assert m2.head.args == (Variable("X"),)


def test_problem_round_trip(rover, rover_nocali):
    text = render_problem(rover_nocali)
    again = parse_problem(text, rover)
    assert again.ok
    assert again.value.state == rover_nocali.state
    assert again.value.network == rover_nocali.network
    assert render_problem(again.value) == text


def test_domain_round_trip(rover):
    text = render_domain(rover)
    again = parse_domain(text, "rover")
    assert again.ok, [str(d) for d in again.errors]
    assert render_domain(again.value) == text
    assert [m.name for m in again.value.methods] == [m.name for m in rover.methods]
    for m1, m2 in zip(again.value.methods, rover.methods):
        assert m1.body == m2.body


def test_scenario_round_trip(rover, walkthrough_scenario):
    text = render_scenario(walkthrough_scenario)
    again = parse_scenario(text, rover)
    assert again.ok
    assert again.value.schedule == walkthrough_scenario.schedule
    assert render_scenario(again.value) == text


def test_scenario_rejects_unknown_tasks(rover):
    result = parse_scenario("scenario s\n0: warpDrive\n", rover)
    assert any("unknown task symbol" in str(d) for d in result.errors)


def test_scenario_rejects_duplicate_iterations(rover):
    result = parse_scenario("scenario s\n0: monitor\n0: charge\n", rover)
    assert any("declared twice" in str(d) for d in result.errors)


def test_scenario_iterations_are_ascii_digits(rover):
    result = parse_scenario("scenario s\n\u0663: monitor\n", rover)
    assert [str(d) for d in result.errors] == [
        "error:2:1: expected 'ITERATION: task, ...': '\u0663: monitor'"
    ]
    assert result.value.schedule == {}


@pytest.mark.parametrize(
    "parse, text, line, column",
    [
        (parse_domain, "domain d junk", 1, 10),
        (parse_domain, "domain d\noperator a(X) junk more\n  pre:\n  add:\n  del:", 2, 15),
        (parse_domain, "domain d\noperator a junk", 2, 12),
        (parse_domain, "domain d\nmethod m g(Y) trailing stuff\n  tasks:\n    1: g(Y)", 2, 15),
        (parse_problem, "problem p extra\nstate:", 1, 11),
        (parse_scenario, "scenario s more\n0: monitor", 1, 12),
    ],
    ids=["domain", "operator", "bare-operator", "method", "problem", "scenario"],
)
def test_header_lines_reject_trailing_text(parse, text, line, column):
    result = parse(text)
    assert not result.ok
    assert [(d.line, d.column, d.message) for d in result.errors] == [
        (line, column, "trailing input after header")
    ]


def test_problem_rejects_non_ground_state(rover):
    result = parse_problem("problem p\nstate: lander(L)\n", rover)
    assert any("not ground" in str(d) for d in result.errors)


def test_problem_autolabels_tasks(rover):
    result = parse_problem("problem p\nstate:\ntasks:\n  monitor\n  charge\n", rover)
    assert result.ok
    assert {lt.label for lt in result.value.network.tasks} == {"T1", "T2"}


def test_parser_never_raises_on_noise():
    rng = random.Random(7)
    alphabet = string.printable
    for _ in range(300):
        text = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 160)))
        parse_domain(text)
        parse_problem(text)
        parse_scenario(text)


SOUP_TOKENS = (
    "domain", "problem", "scenario", "operator", "method", "pre:", "add:",
    "del:", "tasks:", "constraints:", "state:", "ord", "not", "before",
    "after", "between", "first[", "last[", "]", "<", ":", "(", ")", ",", "!",
    "#", "=", "-", "\n", "  ", "\t", " ", "0", "1", "12", "-3", "A", "X",
    "loc1", "m1", "monitor", "move", "transmitData", "nop", "lowCharge",
)
# whole fixture lines, so that the soup also reaches the per-section parsers
SOUP_LINES = tuple(
    line + "\n"
    for name in ("rover.htn", "rover.prob", "walkthrough.evt")
    for line in fixture_text(name).splitlines()
)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(SOUP_TOKENS + SOUP_LINES), max_size=60).map("".join))
def test_parsers_never_raise_on_token_soup(rover, text):
    parse_domain(text)
    parse_task(text)
    for domain in (None, rover):
        parse_problem(text, domain)
        parse_scenario(text, domain)


def test_fixture_files_round_trip_via_renderer(rover):
    rendered = render_domain(rover)
    reparsed = parse_domain(rendered, "rover")
    assert reparsed.ok
    assert render_domain(reparsed.value) == rendered
