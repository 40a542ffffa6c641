from __future__ import annotations

import pytest

from htnact.constraints import (
    Before,
    Between,
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
    NameGenerator,
    Task,
    Variable,
)
from htnact.reduction import reduce_task, relevant_method_bodies
from htnact.syntax import parse_domain

loc1 = Constant("loc1")
lan1 = Constant("lan1")


def test_relevant_bodies_for_top_task(rover):
    gen = NameGenerator()
    bodies = relevant_method_bodies(Task("transmitData", (loc1,)), rover, gen)
    assert [b.method for b in bodies] == ["m1", "m2"]
    m1_tasks = {lt.task.symbol for lt in bodies[0].network.tasks}
    assert m1_tasks == {"estabConn", "sendData", "breakConn"}
    send = next(
        lt for lt in bodies[0].network.tasks if lt.task.symbol == "sendData"
    )
    assert send.task.args == (loc1,)


def test_relevant_bodies_for_navigation(rover):
    gen = NameGenerator()
    bodies = relevant_method_bodies(Task("navigate", (lan1,)), rover, gen)
    assert [b.method for b in bodies] == ["m4", "m5"]
    for body in bodies:
        move = next(lt for lt in body.network.tasks if lt.task.symbol == "move")
        assert move.task.args == (lan1,)


def test_relevant_bodies_reject_primitive_tasks(rover):
    with pytest.raises(ValueError):
        relevant_method_bodies(Task("calibrate"), rover, NameGenerator())


def test_relevant_bodies_empty_when_nothing_matches(rover):
    bodies = relevant_method_bodies(
        Task("transmitData", (loc1, lan1)), rover, NameGenerator()
    )
    assert bodies == ()


SWAP_DOMAIN = """
domain swapper
operator put(A, B)
  pre:
  add:
  del:
method m1 swap(X, Y)
  tasks:
    1: put(X, Y)
    2: swap(X, Y)
  constraints:
    ord 1 < 2
"""


def _swap_body(*args):
    domain = parse_domain(SWAP_DOMAIN).value
    (body,) = relevant_method_bodies(Task("swap", args), domain, NameGenerator())
    return {lt.task.symbol: lt.task for lt in body.network.tasks}


def test_relevant_bodies_when_head_variables_reappear_in_the_task():
    X, Y, Z = Variable("X"), Variable("Y"), Variable("Z")
    assert _swap_body(Y, Z)["put"] == Task("put", (Y, Z))
    assert _swap_body(Y, X)["put"] == Task("put", (Y, X))


def test_the_instantiated_head_is_the_task():
    # the body repeats the head, so its copy shows the head under the binding
    terms = (Variable("X"), Variable("Y"), Variable("Z"), loc1)
    for a in terms:
        for b in terms:
            tasks = _swap_body(a, b)
            assert tasks["swap"] == Task("swap", (a, b))
            assert tasks["put"] == Task("put", (a, b))


def test_reduce_rewrites_orderings_and_conjoins_body(rover):
    # reduce the first task of <{A,B}, (A < B)> with the navigation recipe body
    gen = NameGenerator(labels={"A", "B"})
    bodies = relevant_method_bodies(Task("transmitData", (loc1,)), rover, gen)
    d2 = next(b for b in bodies if b.method == "m2").network
    d = TaskNetwork(
        frozenset(
            {
                LabelledTask("A", Task("transmitData", (loc1,))),
                LabelledTask("B", Task("charge")),
            }
        ),
        frozenset({Constraint(Ordering(LabelRef("A"), LabelRef("B")))}),
    )
    reduced = reduce_task(d, "A", d2)
    assert reduced.labels == {"6", "7", "B"}
    lander = next(
        c for c in reduced.formula
        if isinstance(c.body, Before) and c.body.literal.atom.symbol == "lander"
    )
    assert lander.body.ref == LabelRef("6")
    did = next(
        c for c in reduced.formula
        if isinstance(c.body, Before) and c.body.literal.atom.symbol == "didExp"
    )
    assert did.body.literal.atom.args == (loc1,)
    assert Constraint(Ordering(LabelRef("6"), LabelRef("7"))) in reduced.formula
    assert (
        Constraint(Ordering(LastRef(frozenset({"6", "7"})), LabelRef("B")))
        in reduced.formula
    )
    assert len(reduced.formula) == 4


def body_pair():
    return TaskNetwork(
        frozenset(
            {LabelledTask("x", Task("u")), LabelledTask("y", Task("v"))}
        ),
        frozenset({Constraint(Ordering(LabelRef("x"), LabelRef("y")))}),
    )


def test_reduce_retargets_each_constraint_kind():
    p = Literal(Atom("p"))
    d = TaskNetwork(
        frozenset(
            {LabelledTask("n", Task("g")), LabelledTask("m", Task("w"))}
        ),
        frozenset(
            {
                Constraint(Before(p, LabelRef("n"))),
                Constraint(Ordering(LabelRef("m"), LabelRef("n"))),
                Constraint(Between(LabelRef("m"), p, LabelRef("n"))),
            }
        ),
    )
    reduced = reduce_task(d, "n", body_pair())
    first = FirstRef(frozenset({"x", "y"}))
    assert Constraint(Before(p, first)) in reduced.formula
    assert Constraint(Ordering(LabelRef("m"), first)) in reduced.formula
    assert Constraint(Between(LabelRef("m"), p, first)) in reduced.formula


def test_reduce_rewrites_after_and_left_positions():
    from htnact.constraints import After

    p = Literal(Atom("p"))
    d = TaskNetwork(
        frozenset(
            {LabelledTask("n", Task("g")), LabelledTask("m", Task("w"))}
        ),
        frozenset(
            {
                Constraint(After(LabelRef("n"), p)),
                Constraint(Ordering(LabelRef("n"), LabelRef("m"))),
                Constraint(Between(LabelRef("n"), p, LabelRef("m"))),
            }
        ),
    )
    reduced = reduce_task(d, "n", body_pair())
    last = LastRef(frozenset({"x", "y"}))
    assert Constraint(After(last, p)) in reduced.formula
    assert Constraint(Ordering(last, LabelRef("m"))) in reduced.formula
    assert Constraint(Between(last, p, LabelRef("m"))) in reduced.formula


def test_reduce_replaces_labels_inside_existing_expressions():
    p = Literal(Atom("p"))
    d = TaskNetwork(
        frozenset(
            {LabelledTask("n", Task("g")), LabelledTask("m", Task("w"))}
        ),
        frozenset({Constraint(Before(p, FirstRef(frozenset({"n", "m"}))))}),
    )
    reduced = reduce_task(d, "n", body_pair())
    assert (
        Constraint(Before(p, FirstRef(frozenset({"x", "y", "m"}))))
        in reduced.formula
    )


def test_reduce_without_mention_keeps_formula():
    d = TaskNetwork(
        frozenset(
            {LabelledTask("n", Task("g")), LabelledTask("m", Task("w"))}
        ),
        frozenset({Constraint(Before(Literal(Atom("p")), LabelRef("m")))}),
    )
    reduced = reduce_task(d, "n", body_pair())
    assert d.formula <= reduced.formula
    assert len(reduced.tasks) == len(d.tasks) - 1 + 2


def test_reduce_rewrites_negated_constraints_identically():
    d = TaskNetwork(
        frozenset(
            {LabelledTask("n", Task("g")), LabelledTask("m", Task("w"))}
        ),
        frozenset(
            {Constraint(Ordering(LabelRef("m"), LabelRef("n")), negated=True)}
        ),
    )
    reduced = reduce_task(d, "n", body_pair())
    assert (
        Constraint(
            Ordering(LabelRef("m"), FirstRef(frozenset({"x", "y"}))),
            negated=True,
        )
        in reduced.formula
    )


def _primitive_refinements(network, domain, order_key):
    """Fully reduce ``network``, always expanding the order_key-smallest
    non-primitive task first, branching only over method choices."""
    gen = NameGenerator(labels=network.labels)
    done = []
    stack = [network]
    while stack:
        net = stack.pop()
        open_tasks = sorted(
            (
                lt
                for lt in net.tasks
                if domain.is_nonprimitive(lt.task.symbol)
            ),
            key=order_key,
        )
        if not open_tasks:
            done.append(net)
            continue
        target = open_tasks[0]
        for body in relevant_method_bodies(target.task, domain, gen):
            stack.append(reduce_task(net, target.label, body.network))
    return done


def _normalize_variables(network: TaskNetwork) -> TaskNetwork:
    from htnact.model import Substitution, variables_of

    mapping = {
        v: Variable(f"V{i}")
        for i, v in enumerate(sorted(variables_of(network), key=lambda v: v.name))
    }
    return network.substitute(Substitution(mapping))


def _isomorphic(left: TaskNetwork, right: TaskNetwork) -> bool:
    """Label- and variable-bijection equality, brute forced over the small
    groups of tasks sharing one rendering."""
    import itertools

    left = _normalize_variables(left)
    right = _normalize_variables(right)
    if len(left.tasks) != len(right.tasks) or len(left.formula) != len(right.formula):
        return False
    by_task_left: dict = {}
    by_task_right: dict = {}
    for lt in left.tasks:
        by_task_left.setdefault(str(lt.task), []).append(lt.label)
    for lt in right.tasks:
        by_task_right.setdefault(str(lt.task), []).append(lt.label)
    if by_task_left.keys() != by_task_right.keys():
        return False
    groups = sorted(by_task_left)
    if any(
        len(by_task_left[g]) != len(by_task_right[g]) for g in groups
    ):
        return False
    pools = [
        [
            dict(zip(sorted(by_task_left[g]), perm))
            for perm in itertools.permutations(sorted(by_task_right[g]))
        ]
        for g in groups
    ]
    from htnact.constraints import FirstRef, LastRef

    def rename_formula(formula, mapping):
        def ref(r):
            if isinstance(r, LabelRef):
                return LabelRef(mapping[r.label])
            labels = frozenset(mapping[l] for l in r.labels)
            return FirstRef(labels) if isinstance(r, FirstRef) else LastRef(labels)

        return frozenset(c.rewrite_refs(ref) for c in formula)

    for combo in itertools.product(*pools):
        mapping: dict = {}
        for piece in combo:
            mapping.update(piece)
        if rename_formula(left.formula, mapping) == right.formula:
            return True
    return False


def test_reduction_order_does_not_matter(rover):
    network = TaskNetwork(
        frozenset(
            {
                LabelledTask("A", Task("transmitData", (loc1,))),
                LabelledTask("B", Task("navigate", (lan1,))),
            }
        ),
        frozenset(),
    )
    ascending = _primitive_refinements(network, rover, lambda lt: lt.label)
    descending = _primitive_refinements(
        network, rover, lambda lt: tuple(-ord(ch) for ch in lt.label)
    )
    # 3 refinements of the transfer task x 2 of the standalone navigation
    assert len(ascending) == len(descending) == 6
    for net in ascending:
        assert sum(1 for other in descending if _isomorphic(net, other)) == 1
    for net in descending:
        assert sum(1 for other in ascending if _isomorphic(net, other)) == 1
