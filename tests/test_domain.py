from __future__ import annotations

import pytest

from htnact.constraints import (
    Constraint,
    LabelRef,
    Ordering,
    TaskNetwork,
)
from htnact.domain import (
    Method,
    Operator,
    fresh_rename,
    make_domain,
    validate_domain,
)
from htnact.model import (
    Atom,
    LabelledTask,
    Literal,
    NameGenerator,
    Task,
    Variable,
)
from htnact.syntax import parse_constraint_line


def ordc(a, b):
    return Constraint(Ordering(LabelRef(a), LabelRef(b)))


def network(labelled, constraints=()):
    return TaskNetwork(frozenset(labelled), frozenset(constraints))


def test_rover_domain_validates_clean(rover):
    report = validate_domain(rover)
    assert report.ok
    assert report.warnings == []


def test_ordering_cycle_is_reported():
    body = network(
        [
            LabelledTask("1", Task("a")),
            LabelledTask("2", Task("a")),
            LabelledTask("3", Task("a")),
            LabelledTask("4", Task("a")),
        ],
        [ordc("1", "2"), ordc("2", "3"), ordc("3", "1"),
         ordc("1", "4"), ordc("2", "4"), ordc("3", "4")],
    )
    domain = make_domain(
        "d", [Operator("a")], [Method("m", Task("g"), body)]
    )
    report = validate_domain(domain)
    assert any(v.check == "ordering-consistency" for v in report.violations)


def test_single_task_body_is_reported():
    body = network([LabelledTask("1", Task("a"))])
    domain = make_domain("d", [Operator("a")], [Method("m", Task("g"), body)])
    report = validate_domain(domain)
    assert any(v.check == "body-size" for v in report.violations)


def test_missing_trailing_task_is_reported():
    body = network(
        [LabelledTask("1", Task("a")), LabelledTask("2", Task("a"))],
    )
    domain = make_domain("d", [Operator("a")], [Method("m", Task("g"), body)])
    report = validate_domain(domain)
    assert any(v.check == "trailing-task" for v in report.violations)


def test_after_constrained_trailing_task_is_reported():
    from htnact.constraints import After

    body = network(
        [LabelledTask("1", Task("a")), LabelledTask("2", Task("a"))],
        [ordc("1", "2"), Constraint(After(LabelRef("2"), Literal(Atom("p"))))],
    )
    domain = make_domain("d", [Operator("a")], [Method("m", Task("g"), body)])
    report = validate_domain(domain)
    assert any(v.check == "trailing-task" for v in report.violations)


# Each form names the tasks s1, s2 (the set S), n and the trailing task t of
# one method body; "g" is non-primitive, the others are actions.
@pytest.mark.parametrize(
    "text, checks",
    [
        # forms acting reads differently from planning: neither a plain label
        # nor the form a reduced label takes in that slot
        ("before p last[s1,s2]", ["reference-form"]),
        ("after first[s1,s2] p", ["reference-form"]),
        ("between first[s1,s2] p n", ["reference-form"]),
        ("between n p last[s1,s2]", ["reference-form"]),
        ("ord first[s1,s2] < n", ["reference-form"]),
        ("ord n < last[s1,s2]", ["reference-form"]),
        ("not ord first[s1,s2] < n", ["reference-form"]),
        ("not ord n < last[s1,s2]", ["reference-form"]),
        # a negated ordering defers what its left side ends at: last[] of
        # exactly one non-primitive task no less than the plain label
        ("not ord last[g1] < n", ["negated-ordering-left"]),
        ("not ord g1 < n", ["negated-ordering-left"]),
        # each slot's own form, and plain labels, read the same everywhere
        ("before p first[s1,s2]", []),
        ("after last[s1,s2] p", []),
        ("between last[s1,s2] p first[n,g1]", []),
        ("ord last[s1,s2] < first[n,g1]", []),
        ("not ord last[s1,s2] < n", []),
        ("not ord last[g1,s1] < n", []),
    ],
)
def test_reference_forms_acting_reads_differently_are_warned(text, checks):
    tasks = [("s1", "a"), ("s2", "a"), ("n", "a"), ("g1", "g"), ("t", "a")]
    body = network(
        [LabelledTask(label, Task(symbol)) for label, symbol in tasks],
        [ordc(label, "t") for label, _ in tasks[:-1]]
        + [parse_constraint_line(text, 1, [])],
    )
    other = network([LabelledTask("u1", Task("a")), LabelledTask("u2", Task("a"))],
                    [ordc("u1", "u2")])
    domain = make_domain(
        "d", [Operator("a")], [Method("m", Task("h"), body), Method("k", Task("g"), other)]
    )
    report = validate_domain(domain)
    assert report.ok
    assert sorted(w.check for w in report.warnings) == checks


def test_duplicate_operator_is_reported():
    domain = make_domain("d", [Operator("a"), Operator("a")], [])
    report = validate_domain(domain)
    assert any(v.check == "unique-operator" for v in report.violations)


def test_operator_free_variable_is_reported():
    op = Operator("a", (), (Literal(Atom("p", (Variable("X"),))),), (), ())
    report = validate_domain(make_domain("d", [op], []))
    assert any(v.check == "operator-params" for v in report.violations)


def test_reserved_nop_must_stay_empty():
    op = Operator("nop", (), (), (Atom("p"),), ())
    report = validate_domain(make_domain("d", [op], []))
    assert any(v.check == "reserved-nop" for v in report.violations)


def test_unknown_body_symbol_is_reported():
    body = network(
        [LabelledTask("1", Task("mystery")), LabelledTask("2", Task("a"))],
        [ordc("1", "2")],
    )
    domain = make_domain("d", [Operator("a")], [Method("m", Task("g"), body)])
    report = validate_domain(domain)
    assert any(v.check == "symbol-kind" for v in report.violations)


def test_make_domain_adds_nop(rover):
    assert rover.is_primitive("nop")
    op = rover.operator_for(Task("nop"))
    assert not op.precondition and not op.add and not op.delete


def test_fresh_rename_is_isomorphic(rover):
    body = next(m for m in rover.methods if m.name == "m4").body
    gen = NameGenerator(labels=body.labels)
    renamed = fresh_rename(body, gen)
    assert len(renamed.tasks) == len(body.tasks)
    assert renamed.labels.isdisjoint(body.labels)
    assert sorted(lt.task.symbol for lt in renamed.tasks) == sorted(
        lt.task.symbol for lt in body.tasks
    )
    assert len(renamed.formula) == len(body.formula)


def test_fresh_rename_twice_gives_disjoint_labels(rover):
    body = next(m for m in rover.methods if m.name == "m2").body
    gen = NameGenerator()
    first = fresh_rename(body, gen)
    second = fresh_rename(body, gen)
    assert first.labels.isdisjoint(second.labels)


def test_fresh_rename_keeps_protected_variables(rover):
    method = next(m for m in rover.methods if m.name == "m5")
    gen = NameGenerator()
    keep = frozenset(v for v in method.head.args)
    renamed = fresh_rename(method.body, gen, keep=keep)
    move = next(lt for lt in renamed.tasks if lt.task.symbol == "move")
    assert move.task.args == method.head.args
