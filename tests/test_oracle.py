from __future__ import annotations

import pytest
from hypothesis import example, given, settings, strategies as st

import oracle_reference
from htnact.constraints import (
    After,
    Before,
    Between,
    Constraint,
    FirstRef,
    LabelRef,
    LastRef,
    Ordering,
    TaskNetwork,
)
from htnact.corpus import corpus
from htnact.domain import Method, Operator, make_domain
from htnact.model import Atom, Constant, LabelledTask, Literal, Task, Variable
from htnact.oracle import (
    completions,
    constant_universe,
    reachable_networks,
    solutions_bounded,
)
from htnact.syntax import parse_problem
from test_search import transmits

loc1 = Constant("loc1")


def net(tasks, constraints=()):
    return TaskNetwork(frozenset(tasks), frozenset(constraints))


@pytest.fixture(scope="module")
def tiny():
    """Effects-bearing actions, two distinct no-ops and one refinable task."""
    p, q = Atom("p"), Atom("q")
    operators = [
        Operator("mk", (), (), (p,), ()),
        Operator("rm", (), (), (), (p,)),
        Operator("chk", (), (Literal(p),), (q,), ()),
        Operator("tick"),
        Operator("tock"),
    ]
    body = net(
        [LabelledTask("1", Task("mk")), LabelledTask("2", Task("chk"))],
        [Constraint(Ordering(LabelRef("1"), LabelRef("2")))],
    )
    methods = [Method("m", Task("go"), body)]
    return make_domain("tiny", operators, methods)


def test_completions_of_unordered_pair(tiny):
    d = net([LabelledTask("a", Task("mk")), LabelledTask("b", Task("rm"))])
    got = completions(d, frozenset(), tiny)
    assert got == {
        (Task("mk"), Task("rm")),
        (Task("rm"), Task("mk")),
    }


def test_completions_collapse_identical_tasks(tiny):
    d = net([LabelledTask("a", Task("nop")), LabelledTask("b", Task("nop"))])
    got = completions(d, frozenset(), tiny)
    assert got == {(Task("nop"), Task("nop"))}


def test_completions_empty_for_nonprimitive_network(tiny):
    d = net([LabelledTask("a", Task("go"))])
    assert completions(d, frozenset(), tiny) == frozenset()


def test_completions_respect_executability(tiny):
    d = net([LabelledTask("a", Task("chk"))])
    assert completions(d, frozenset(), tiny) == frozenset()
    assert completions(d, frozenset({Atom("p")}), tiny) == {(Task("chk"),)}


def test_completions_check_before_constraints_positionally(tiny):
    # b requires p just before it; only the order that asserts p first works
    d = net(
        [LabelledTask("a", Task("mk")), LabelledTask("b", Task("rm"))],
        [
            Constraint(Ordering(LabelRef("a"), LabelRef("b"))),
            Constraint(Before(Literal(Atom("p")), LabelRef("b"))),
        ],
    )
    assert completions(d, frozenset(), tiny) == {(Task("mk"), Task("rm"))}
    unordered = net(
        [LabelledTask("a", Task("mk")), LabelledTask("b", Task("rm"))],
        [Constraint(Before(Literal(Atom("p")), LabelRef("b")))],
    )
    assert completions(unordered, frozenset(), tiny) == {(Task("mk"), Task("rm"))}


def test_completions_check_negated_before(tiny):
    d = net(
        [LabelledTask("a", Task("mk")), LabelledTask("b", Task("rm"))],
        [Constraint(Before(Literal(Atom("p")), LabelRef("b")), negated=True)],
    )
    assert completions(d, frozenset(), tiny) == {(Task("rm"), Task("mk"))}


def test_completions_check_after_constraints(tiny):
    d = net(
        [LabelledTask("a", Task("mk")), LabelledTask("b", Task("rm"))],
        [Constraint(After(LabelRef("a"), Literal(Atom("p"))))],
    )
    # p must hold right after a: rm must not immediately follow... it may,
    # since the check is the state just after a, before b runs
    assert completions(d, frozenset(), tiny) == {
        (Task("mk"), Task("rm")),
        (Task("rm"), Task("mk")),
    }
    d2 = net(
        [LabelledTask("a", Task("nop")), LabelledTask("b", Task("mk"))],
        [Constraint(After(LabelRef("a"), Literal(Atom("p"))))],
    )
    assert completions(d2, frozenset(), tiny) == {
        (Task("mk"), Task("nop")),
    }


def test_completions_check_between_constraints(tiny):
    d = net(
        [
            LabelledTask("a", Task("mk")),
            LabelledTask("b", Task("rm")),
            LabelledTask("c", Task("nop")),
        ],
        [
            Constraint(Ordering(LabelRef("a"), LabelRef("c"))),
            Constraint(Between(LabelRef("a"), Literal(Atom("p")), LabelRef("c"))),
        ],
    )
    got = completions(d, frozenset(), tiny)
    # rm between a and c would break the window requirement on p
    assert (Task("mk"), Task("rm"), Task("nop")) not in got
    assert (Task("mk"), Task("nop"), Task("rm")) in got
    assert (Task("rm"), Task("mk"), Task("nop")) in got


def test_completions_ground_variables_against_the_universe():
    move = Operator(
        "goto",
        (Variable("W"),),
        (Literal(Atom("at", (Variable("W"),)), positive=False),),
        (Atom("at", (Variable("W"),)),),
        (),
    )
    domain = make_domain("g", [move], [])
    d = net([LabelledTask("a", Task("goto", (Variable("W"),)))])
    state = frozenset({Atom("at", (loc1,)), Atom("near", (Constant("x"),))})
    got = completions(d, state, domain)
    assert got == {(Task("goto", (Constant("x"),)),)}


def test_solutions_of_primitive_network_equal_completions(tiny):
    d = net([LabelledTask("a", Task("mk"))])
    assert solutions_bounded(d, frozenset(), tiny, 3) == completions(
        d, frozenset(), tiny
    )


def test_solutions_grow_monotonically_with_depth(tiny):
    d = net([LabelledTask("g", Task("go")), LabelledTask("z", Task("nop"))])
    shallow = solutions_bounded(d, frozenset(), tiny, 1)
    deeper = solutions_bounded(d, frozenset(), tiny, 2)
    deepest = solutions_bounded(d, frozenset(), tiny, 3)
    assert shallow <= deeper <= deepest
    assert deeper == deepest  # stabilizes once everything is primitive


def test_solutions_depth_zero_rejected(tiny):
    d = net([LabelledTask("a", Task("mk"))])
    with pytest.raises(ValueError):
        solutions_bounded(d, frozenset(), tiny, 0)


def test_rover_solution_set(rover, rover_nocali):
    solutions = solutions_bounded(
        rover_nocali.network, rover_nocali.state, rover, 4
    )
    rendered = {" . ".join(map(str, s)) for s in solutions}
    assert rendered == {
        "monitor . estabConn . extData(loc1) . sendExtData(loc1) . breakConn"
    }


def test_rover_solutions_never_mix_recipes(rover, rover_nocali):
    solutions = solutions_bounded(
        rover_nocali.network, rover_nocali.state, rover, 4
    )
    for seq in solutions:
        symbols = {t.symbol for t in seq}
        assert not ({"calibrate", "estabConn"} <= symbols)


def test_completions_are_permutations_of_the_tasks(tiny):
    d = net([LabelledTask("a", Task("mk")), LabelledTask("b", Task("rm"))])
    for seq in completions(d, frozenset(), tiny):
        assert sorted(t.symbol for t in seq) == ["mk", "rm"]


def _problem(rover, text):
    result = parse_problem(text, rover)
    assert result.ok, [str(d) for d in result.diagnostics]
    return result.value


def _assert_matches_reference(network, state, domain, depth=4):
    universe = constant_universe(network, state, domain)
    for net in reachable_networks(network, domain, depth):
        assert completions(net, state, domain, universe) == (
            oracle_reference.completions(net, state, domain, universe)
        ), str(net)
    assert solutions_bounded(network, state, domain, depth) == (
        oracle_reference.solutions_bounded(network, state, domain, depth)
    )


def test_forward_search_matches_brute_force_on_the_corpus():
    for case in corpus(200, 0):
        _assert_matches_reference(case.network, case.state, case.domain)


def test_forward_search_matches_brute_force_on_rover(
    rover, rover_problem, rover_nocali
):
    for problem in (rover_problem, rover_nocali):
        _assert_matches_reference(problem.network, problem.state, rover)
    housekeeping = _problem(rover, """\
problem housekeeping
state: raw, didExp(loc1), lander(lan1)
tasks:
  A: transmitData(loc1)
  H1: monitor
  H2: charge
  H3: move(lan1)
  H4: charge
""")
    _assert_matches_reference(housekeeping.network, housekeeping.state, rover)


def test_forward_search_instantiates_each_task_once(monkeypatch):
    # seven unordered tasks, none executable: a permutation search would
    # instantiate the first task of each of the 5040 orderings
    p = Atom("p")
    domain = make_domain("blocked", [Operator("need", (), (Literal(p),), (), ())], [])
    d = net([LabelledTask(str(i), Task("need")) for i in range(7)])
    calls = []
    original = Operator.instantiate

    def counting(self, task):
        calls.append(task)
        return original(self, task)

    monkeypatch.setattr(Operator, "instantiate", counting)
    assert completions(d, frozenset(), domain) == frozenset()
    assert len(calls) <= 7


def test_two_unordered_transmits_have_twenty_solutions(rover):
    # the brute-force reference gives the same 20 sequences, in about 20 s
    problem = _problem(rover, """\
problem two
state: didExp(loc1), didExp(loc2), lander(lan1)
tasks:
  A: transmitData(loc1)
  B: transmitData(loc2)
""")
    solutions = solutions_bounded(problem.network, problem.state, rover, 4)
    assert len(solutions) == 20


@pytest.mark.parametrize("calibrated", [True, False])
def test_the_search_matches_the_reference_search_on_two_transmits(rover, calibrated):
    """The reference renames bodies at every offer and deduplicates by
    fingerprint; the oracle's completions over its networks are the oracle's
    solutions.  (Brute-force completions would take about 20 s here.)"""
    problem = transmits(rover, 2, calibrated)
    state, universe = problem.state, constant_universe(problem.network, problem.state, rover)
    reference = frozenset().union(*(
        completions(net, state, rover, universe)
        for net in oracle_reference.reachable_networks(problem.network, rover, 4)
    ))
    solutions = solutions_bounded(problem.network, state, rover, 4)
    assert solutions == reference and len(solutions) == (10 if calibrated else 20)


@pytest.mark.parametrize("count", [1, 2, 3])
@pytest.mark.parametrize("calibrated", [True, False])
def test_reductions_in_any_order_meet(rover, count, calibrated):
    """Each transmit reduces in two steps to one of six networks, and the
    steps of different transmits commute: one network per combination of
    choices, whatever the order the reductions were taken in."""
    problem = transmits(rover, count, calibrated)
    networks = reachable_networks(problem.network, rover, 2 * count)
    assert len(networks) == len(set(networks)) == 6 ** count


def test_negated_between_remembers_its_escape():
    # two prefixes can reach the same placed tasks and state while only one
    # of them saw !p inside the window: the search must keep them apart
    p = Atom("p")
    domain = make_domain("escape", [
        Operator("go"),
        Operator("stop"),
        Operator("mk", (), (), (p,), ()),
        Operator("rm", (), (), (), (p,)),
    ], [])
    d = net(
        [
            LabelledTask("s", Task("go")),
            LabelledTask("x", Task("mk")),
            LabelledTask("y", Task("rm")),
            LabelledTask("e", Task("stop")),
        ],
        [Constraint(Between(LabelRef("s"), Literal(p), LabelRef("e")), negated=True)],
    )
    for state, count in ((frozenset(), 22), (frozenset({p}), 19)):
        expected = oracle_reference.completions(d, state, domain)
        assert len(expected) == count
        assert completions(d, state, domain) == expected


LABELS = ("a", "b", "c", "d", "e")
label_sets = st.frozensets(st.sampled_from(LABELS), min_size=1, max_size=3)
task_refs = st.one_of(
    st.sampled_from(LABELS).map(LabelRef),
    label_sets.map(FirstRef),
    label_sets.map(LastRef),
)
literals = st.builds(Literal, st.sampled_from((Atom("p"), Atom("q"))), st.booleans())
constraint_bodies = st.one_of(
    st.builds(Ordering, task_refs, task_refs),
    st.builds(Before, literals, task_refs),
    st.builds(After, task_refs, literals),
    st.builds(Between, task_refs, literals, task_refs),
)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.sampled_from(("mk", "rm", "chk", "nop", "tick", "tock")),
        min_size=5,
        max_size=5,
    ),
    st.lists(st.builds(Constraint, constraint_bodies, st.booleans()), max_size=4),
    st.frozensets(st.sampled_from((Atom("p"), Atom("q")))),
)
@example(  # rm.mk.tick and tick.rm.mk meet, but only the second escaped p
    symbols=["tick", "mk", "rm", "tock", "chk"],
    constraints=[
        Constraint(Between(LabelRef("a"), Literal(Atom("p")), LabelRef("d")), negated=True)
    ],
    state=frozenset(),
)
def test_forward_search_matches_brute_force_on_every_constraint_form(
    tiny, symbols, constraints, state
):
    # negated orderings and first[]/last[] endpoints, which the corpus does
    # not generate, on five tasks over the tiny domain; the distinct no-ops
    # keep orders that differ only in which no-op ran apart.  The example
    # fails a memo that forgets which windows escaped, at every seed
    d = net(
        [LabelledTask(l, Task(s)) for l, s in zip(LABELS, symbols)], constraints
    )
    assert completions(d, state, tiny) == oracle_reference.completions(d, state, tiny)
