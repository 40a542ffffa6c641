from __future__ import annotations

import pytest

from htnact.constraints import (
    Before,
    Constraint,
    FirstRef,
    LabelRef,
    LastRef,
    Ordering,
    TaskNetwork,
    holds,
    precedence_closure,
)
from htnact.acting import ReductionCouple
from htnact.domain import Method, make_domain
from htnact.model import (
    Atom,
    Constant,
    LabelledTask,
    Literal,
    NameGenerator,
    Substitution,
    Task,
    Variable,
    substitute,
)
from htnact.reduction import Body, relevant_method_bodies
from key_reference import network_fingerprint


def ordc(a: str, b: str) -> Constraint:
    return Constraint(Ordering(LabelRef(a), LabelRef(b)))


def reduced(formula: frozenset, label: str, new: frozenset) -> frozenset:
    """``formula`` once the task ``label`` is reduced to tasks labelled
    ``new``, constraint by constraint, as ``reduce_task`` rewrites it."""
    return frozenset(c.reduced(label, new) for c in formula)


def test_rewrite_labels_inside_first():
    lander = Literal(Atom("lander", (Variable("L"),)))
    before = Constraint(Before(lander, FirstRef(frozenset({"11", "12"}))))
    rewritten = reduced(
        reduced(frozenset({before}), "11", frozenset({"8", "9", "10"})),
        "12",
        frozenset({"8", "9", "10"}),
    )
    assert rewritten == frozenset(
        {Constraint(Before(lander, FirstRef(frozenset({"8", "9", "10"}))))}
    )


def test_rewrite_labels_without_mention_is_identity():
    c = ordc("a", "b")
    assert c.reduced("zz", frozenset({"q"})) is c


def test_rewrite_labels_can_drop_from_last():
    c = Constraint(Ordering(LastRef(frozenset({"11", "12"})), LabelRef("7")))
    got = reduced(frozenset({c}), "11", frozenset())
    assert got == frozenset(
        {Constraint(Ordering(LastRef(frozenset({"12"})), LabelRef("7")))}
    )


def test_rewrite_preserves_constraint_count():
    lander = Literal(Atom("lander", (Variable("L"),)))
    formula = frozenset(
        {
            Constraint(Before(lander, FirstRef(frozenset({"1", "2"})))),
            ordc("1", "2"),
        }
    )
    got = reduced(formula, "1", frozenset({"x", "y"}))
    assert len(got) == len(formula)


def test_holds_positive_membership():
    cali = Atom("cali")
    assert holds(Literal(cali), frozenset({cali}))
    assert not holds(Literal(cali), frozenset())


def test_holds_negative_closed_world():
    low = Literal(Atom("lowCharge"), positive=False)
    assert holds(low, frozenset())
    assert not holds(low, frozenset({Atom("lowCharge")}))


def test_holds_ground_atom_with_arguments():
    did = Atom("didExp", (Constant("loc1"),))
    state = frozenset({Atom("raw"), Atom("cali"), did, Atom("lander", (Constant("lan1"),))})
    assert holds(Literal(did), state)


def test_holds_equality_builtin():
    same = Literal(Atom("=", (Constant("a"), Constant("a"))))
    diff = Literal(Atom("=", (Constant("a"), Constant("b"))))
    assert holds(same, frozenset())
    assert not holds(diff, frozenset())
    assert holds(diff.negated(), frozenset())


def test_holds_rejects_non_ground():
    lit = Literal(Atom("p", (Variable("X"),)))
    with pytest.raises(ValueError):
        holds(lit, frozenset())


def test_precedence_closure_sees_through_last_sets():
    formula = frozenset(
        {Constraint(Ordering(LastRef(frozenset({"8", "9"})), LabelRef("10")))}
    )
    closure = precedence_closure(formula)
    assert ("8", "10") in closure and ("9", "10") in closure


def test_formula_equality_is_order_insensitive():
    assert frozenset({ordc("a", "b"), ordc("b", "c")}) == frozenset(
        {ordc("b", "c"), ordc("a", "b")}
    )


# -- network fingerprints -------------------------------------------------------------
# The renaming-invariant fingerprint is the test reference's
# (``key_reference``); these keep it honest for the key and oracle
# differentials that lean on it.

def chain(a: str, b: str, c: str, literal: str = "ready") -> TaskNetwork:
    """Two ``go`` tasks ``a``, ``b`` before ``c``, gated by a before-constraint."""
    tasks = [
        LabelledTask(a, Task("go")),
        LabelledTask(b, Task("go")),
        LabelledTask(c, Task("stop")),
    ]
    formula = [
        Constraint(Ordering(LastRef(frozenset({a, b})), LabelRef(c))),
        Constraint(Before(Literal(Atom(literal)), FirstRef(frozenset({a, b})))),
    ]
    return TaskNetwork(frozenset(tasks), frozenset(formula))


def test_network_fingerprint_ignores_label_names():
    assert network_fingerprint(chain("1", "2", "3")) == network_fingerprint(
        chain("n7", "n8", "n9")
    )


def test_network_fingerprint_tells_structures_apart():
    base = network_fingerprint(chain("1", "2", "3"))
    assert network_fingerprint(chain("1", "2", "3", literal="busy")) != base
    unordered = chain("1", "2", "3")
    unordered = TaskNetwork(
        unordered.tasks,
        frozenset(c for c in unordered.formula if not isinstance(c.body, Ordering)),
    )
    assert network_fingerprint(unordered) != base


# -- structure sharing under substitution ------------------------------------

def move_then_charge() -> TaskNetwork:
    """``1: move(X)`` before ``2: charge``, gated on ``at(X)``."""
    X = Variable("X")
    tasks = [LabelledTask("1", Task("move", (X,))), LabelledTask("2", Task("charge"))]
    formula = [
        Constraint(Ordering(LabelRef("1"), LabelRef("2"))),
        Constraint(Before(Literal(Atom("at", (X,))), LabelRef("1"))),
    ]
    return TaskNetwork(frozenset(tasks), frozenset(formula))


def drawn(template: TaskNetwork, *args) -> Body:
    """``template`` as the body of a method ``m`` with head ``t(X)``, drawn
    for the task ``t(*args)`` (``t(X)`` by default) by a generator that has
    seen no name, so its labels and variables keep theirs."""
    X = Variable("X")
    domain = make_domain("d", (), (Method("m", Task("t", (X,)), template),))
    (body,) = relevant_method_bodies(Task("t", args or (X,)), domain, NameGenerator())
    return body


def couple_over(body: Body) -> ReductionCouple:
    return ReductionCouple("n", body.network.tasks, (body,))


def test_empty_and_disjoint_substitutions_share_every_value():
    network = move_then_charge()
    values = (network, drawn(network), couple_over(drawn(network)), network.formula)
    for theta in (Substitution(), Substitution({Variable("Z"): Constant("loc1")})):
        for value in values:
            assert substitute(value, theta) is value
        for value in values[:3]:
            assert value.substitute(theta) is value


def test_substitution_of_one_task_equals_a_rebuild_and_shares_the_rest():
    loc1 = Constant("loc1")
    theta = Substitution({Variable("X"): loc1})
    template = move_then_charge()
    couple = couple_over(drawn(template))  # its body built, so substituted along
    network = couple.alternatives[0].network
    rebuilt = TaskNetwork(
        frozenset(
            {LabelledTask("1", Task("move", (loc1,))), LabelledTask("2", Task("charge"))}
        ),
        frozenset(
            {
                Constraint(Ordering(LabelRef("1"), LabelRef("2"))),
                Constraint(Before(Literal(Atom("at", (loc1,))), LabelRef("1"))),
            }
        ),
    )
    got = substitute(couple, theta)
    assert got == couple_over(drawn(template, loc1))
    assert drawn(template, loc1).network == rebuilt
    got_network = got.alternatives[0].network
    assert got_network == rebuilt
    assert any(lt is network.task_of("2") for lt in got_network.tasks)
    ordering = next(c for c in network.formula if isinstance(c.body, Ordering))
    assert any(c is ordering for c in got_network.formula)
    # an unbuilt body builds from its method's plan, which shares the
    # template's ground task, and its ground constraint under kept names
    unbuilt = substitute(drawn(template), theta).network
    assert unbuilt == rebuilt
    assert any(lt.task is template.task_of("2").task for lt in unbuilt.tasks)
    ordering = next(c for c in template.formula if isinstance(c.body, Ordering))
    assert any(c is ordering for c in unbuilt.formula)


def test_cached_labels_stay_out_of_equality_hash_and_repr():
    network = move_then_charge()
    read, unread = couple_over(drawn(network)), couple_over(drawn(network))
    assert read.labels == frozenset({"1", "2"})
    assert read.alternatives[0].network.labels == frozenset({"1", "2"})
    assert read == unread and hash(read) == hash(unread)
    assert repr(read) == repr(unread)
    assert network == move_then_charge() and hash(network) == hash(move_then_charge())
