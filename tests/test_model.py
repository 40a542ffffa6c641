from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from htnact.model import (
    Atom,
    Constant,
    LabelledTask,
    Literal,
    NameGenerator,
    Substitution,
    Task,
    Variable,
    constants_of,
    match_task,
    substitute,
    variables_of,
)

X, Y, L = Variable("X"), Variable("Y"), Variable("L")
loc1, lan1, a = Constant("loc1"), Constant("lan1"), Constant("a")


def test_substitution_applies_to_tasks():
    task = Task("transmitData", (X,))
    assert substitute(task, Substitution({X: loc1})) == Task("transmitData", (loc1,))


def test_empty_substitution_is_identity():
    task = Task("transmitData", (loc1,))
    assert substitute(task, Substitution()) == task


def test_partial_substitution_leaves_other_variables():
    atom = Atom("p", (X, Y))
    assert substitute(atom, Substitution({X: a})) == Atom("p", (a, Y))


def test_substitution_resolves_chains():
    theta = Substitution({X: Y, Y: a})
    assert theta.term(X) == a
    assert theta.term(Y) == a


def test_substitution_compose_applies_in_order():
    first = Substitution({X: Y})
    second = Substitution({Y: a})
    composed = first.compose(second)
    assert composed.term(X) == a
    assert composed.term(Y) == a


names = st.sampled_from(["X", "Y", "Z", "W"])
terms = st.one_of(
    st.sampled_from([loc1, lan1, a]), names.map(Variable)
)


@given(st.dictionaries(names.map(Variable), terms, max_size=4))
def test_substitution_application_is_idempotent(mapping):
    theta = Substitution(mapping)
    task = Task("t", tuple(mapping.keys()))
    once = substitute(task, theta)
    assert substitute(once, theta) == once


def test_match_task_binds_head_variables():
    assert match_task(
        Task("transmitData", (loc1,)), Task("transmitData", (X,))
    ) == Substitution({X: loc1})


def test_match_task_symbol_mismatch():
    assert match_task(Task("navigate", (lan1,)), Task("transmitData", (X,))) is None


def test_match_task_variable_to_variable():
    got = match_task(Task("navigate", (Variable("L0"),)), Task("navigate", (L,)))
    assert got == Substitution({L: Variable("L0")})


def test_match_task_round_trips():
    task = Task("t", (loc1, lan1))
    head = Task("t", (X, Y))
    theta = match_task(task, head)
    assert substitute(head, theta) == task


def test_literal_negation_flips_polarity():
    lit = Literal(Atom("p"))
    assert lit.negated() == Literal(Atom("p"), positive=False)
    assert lit.negated().negated() == lit


def test_name_generator_keeps_free_bases():
    gen = NameGenerator(labels=["B"])
    assert gen.label("A") == "A"
    assert gen.label("A") == "A_2"
    assert gen.label("B") == "B_2"


def test_name_generator_clone_is_independent():
    gen = NameGenerator()
    gen.label("n")
    fork = gen.clone()
    assert fork.label("n") == "n_2"
    assert gen.label("n") == "n_2"


def test_variable_and_constant_collection():
    task = Task("t", (X, loc1))
    assert variables_of(task) == frozenset({X})
    assert constants_of(task) == frozenset({loc1})


# -- structure sharing under substitution --------------------------------------

def test_empty_substitution_returns_the_same_object():
    members = frozenset(
        {LabelledTask("1", Task("move", (X, loc1))), LabelledTask("2", Task("charge"))}
    )
    args = (X, loc1)
    assert substitute(members, Substitution()) is members
    assert substitute(args, Substitution()) is args


def test_disjoint_substitution_returns_the_same_object():
    theta = Substitution({Y: a})
    task = Task("move", (X, loc1))
    literal = Literal(Atom("at", (X,)), positive=False)
    values = (task, LabelledTask("1", task), literal, frozenset({task}), (literal, task))
    for value in values:
        assert substitute(value, theta) is value


def test_substitution_rebuilds_only_what_it_changes():
    moved = LabelledTask("1", Task("move", (X, loc1)))
    kept = LabelledTask("2", Task("charge", (Y,)))
    got = substitute(frozenset({moved, kept}), Substitution({X: lan1}))
    assert got == frozenset({LabelledTask("1", Task("move", (lan1, loc1))), kept})
    assert any(lt is kept for lt in got)
