from __future__ import annotations

from dataclasses import fields, is_dataclass, replace as dc_replace

import pytest
from hypothesis import example, given, strategies as st

from htnact import model
from htnact.acting import (
    ACTION,
    ReductionCouple,
    apply,
    exec_all,
    initial_configuration,
    make_context,
)
from htnact.constraints import Constraint, TaskNetwork
from htnact.corpus import corpus
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
from htnact.reduction import Body
from htnact.trace import DefaultStrategy, reachable, run
from test_blocked import counter_problem

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


def test_substitution_applies_chains_and_cycles_simultaneously():
    chain = Substitution({X: Y, Y: a})
    assert substitute(Atom("p", (X, Y)), chain) == Atom("p", (Y, a))
    swap = Substitution({X: Y, Y: X})
    assert substitute(Atom("p", (X, Y)), swap) == Atom("p", (Y, X))


names = st.sampled_from(["X", "Y", "Z", "W"])
constants = st.sampled_from([loc1, lan1, a])
terms = st.one_of(constants, names.map(Variable))


@given(st.dictionaries(names.map(Variable), terms, max_size=4))
@example({X: Y, Y: a})
@example({X: Y, Y: Variable("Z"), Variable("Z"): X})
def test_substitution_takes_each_variable_to_its_own_term(mapping):
    """Chains and cycles included: nothing is resolved through another
    binding, and a task's arguments are each replaced once."""
    theta = Substitution(mapping)
    for name in ("X", "Y", "Z", "W"):
        v = Variable(name)
        assert theta.term(v) == mapping.get(v, v)
    task = Task("t", tuple(Variable(name) for name in ("X", "Y", "Z", "W")))
    assert substitute(task, theta).args == tuple(mapping.get(v, v) for v in task.args)


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


def linear_draws(labels, variables, draws) -> list[str]:
    """The names drawn by a scan of the suffixes from ``_2`` on every draw."""
    used = {True: set(labels), False: set(variables)}
    names = []
    for is_label, base in draws:
        name, k = base, 2
        while name in used[is_label]:
            name, k = f"{base}_{k}", k + 1
        used[is_label].add(name)
        names.append(name)
    return names


# bases with and without a suffix, and suffixed names with gaps such as 1_3
name_bases = st.sampled_from(["n", "1", "V", "1_3", "n_2", "n_2_2"])
seeded_names = st.lists(
    st.one_of(
        name_bases,
        st.builds("{}_{}".format, name_bases, st.integers(2, 7)),
    ),
    max_size=12,
)


@example(
    labels=["1", "1_3", "1_4", "1_3_2"],
    variables=["V", "V_2", "V_5"],
    draws=[(True, "1"), (True, "1"), (True, "1"), (True, "1_3"), (True, "1_3"),
           (False, "V"), (False, "V"), (False, "V"), (False, "V"), (False, "V")],
)
@given(
    labels=seeded_names,
    variables=seeded_names,
    draws=st.lists(st.tuples(st.booleans(), name_bases), max_size=40),
)
def test_name_generator_draws_the_names_of_the_linear_scan(labels, variables, draws):
    gen = NameGenerator(labels, variables)
    drawn = [
        gen.label(base) if is_label else gen.variable(base).name
        for is_label, base in draws
    ]
    assert drawn == linear_draws(labels, variables, draws)


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


# -- member-level substitution ---------------------------------------------------

def rebuilt(value, theta: Substitution):
    """``value`` under ``theta``, every part built anew from its fields."""
    if isinstance(value, Variable):
        return theta.term(value)
    if isinstance(value, (tuple, frozenset)):
        return type(value)(rebuilt(v, theta) for v in value)
    if isinstance(value, Body):  # a renaming: ``theta`` follows it
        own = value.theta
        return Body(value.template, value.index, value.fresh, Substitution(
            {v: rebuilt(own.term(v), theta) for v in value.template.body.variables}
        ))
    if is_dataclass(value):
        return type(value)(*(rebuilt(getattr(value, f.name), theta) for f in fields(value)))
    return value  # constants, labels, symbols, flags and indices


def check_substitution(value, theta: Substitution) -> None:
    """``substitute`` agrees with ``rebuilt``, and of a tuple or frozenset it
    keeps exactly the members that mention no variable ``theta`` binds."""
    got = substitute(value, theta)
    assert got == rebuilt(value, theta)
    bound = set(theta)
    if not variables_of(value) & bound:
        assert got is value
    elif isinstance(value, (tuple, frozenset)):
        kept = {id(m) for m in got}
        for member in value:
            assert (id(member) in kept) == (not variables_of(member) & bound)


def check_bindings(cfg, ctx) -> int:
    """``check_substitution`` on ``cfg``'s network and couples under the
    binding of each action it offers, and under the binding of each of its
    variables to a constant; returns how many bindings were tried."""
    bindings = [
        choice.binding
        for choice in exec_all(cfg, ctx, all_bindings=True)
        if choice.kind == ACTION and choice.binding
    ]
    bindings += [
        Substitution({v: Constant("k")})
        for v in sorted(variables_of((cfg.network, cfg.couples)))
    ]
    for theta in bindings:
        for value in (cfg.network, cfg.network.tasks, cfg.network.formula, cfg.couples):
            check_substitution(value, theta)
        for couple in cfg.couples:
            check_substitution(couple, theta)
            check_substitution(couple.pursued, theta)
            check_substitution(couple.alternatives, theta)
            for body in couple.alternatives:
                assert substitute(body, theta).network == rebuilt(body.network, theta)
    return len(bindings)


def test_substitution_matches_a_rebuild_along_a_deep_recursion():
    problem, domain = counter_problem(12)
    cfg0 = initial_configuration(problem.network, problem.state, domain)
    trace = run(cfg0, DefaultStrategy())
    ctx = make_context(domain, cfg0)
    tried = sum(check_bindings(step.config, ctx) for step in trace.steps)
    assert tried > 12 * 3  # each dec's binding, and X and Y of each level


def test_substitution_matches_a_rebuild_at_every_explored_configuration(
    rover, rover_problem, rover_nocali
):
    starts = [
        initial_configuration(p.network, p.state, rover)
        for p in (rover_problem, rover_nocali)
    ]
    starts += [
        initial_configuration(case.network, case.state, case.domain)
        for case in corpus(100, 0)
    ]
    tried = 0
    for cfg0 in starts:
        ctx = make_context(cfg0.domain, cfg0)
        for cfg, *_ in reachable(cfg0, ctx):
            tried += check_bindings(cfg, ctx)
    assert tried > 60


def rendered_task(task: Task) -> str:
    if not task.args:
        return task.symbol
    return f"{task.symbol}({', '.join(t.name for t in task.args)})"


def fresh_parts(value) -> dict:
    """Each cached ``variables``/``text`` part of ``value``, computed afresh."""
    if isinstance(value, Task):
        return {"variables": variables_of(value), "text": rendered_task(value)}
    if isinstance(value, LabelledTask):
        return {
            "variables": variables_of(value),
            "text": f"{value.label}:{rendered_task(value.task)}",
        }
    if isinstance(value, Constraint):
        return {"variables": variables_of(value)}
    if isinstance(value, TaskNetwork):
        return {"variables": variables_of((value.tasks, value.formula))}
    assert isinstance(value, ReductionCouple)
    members = sorted(value.pursued, key=lambda lt: (len(lt.label), lt.label))
    return {
        "members_text": " ".join(
            f"{lt.label}:{rendered_task(lt.task)}" for lt in members
        )
    }


def test_cached_variables_and_texts_match_afresh_and_stay_out_of_identity(
    rover, rover_problem
):
    problem, domain = counter_problem(6)
    configs = [
        step.config
        for p, d in ((problem, domain), (rover_problem, rover))
        for step in run(initial_configuration(p.network, p.state, d), DefaultStrategy()).steps
    ]
    values: list = []
    for cfg in configs:
        net = cfg.network
        values += [net, *net.tasks, *(lt.task for lt in net.tasks), *net.formula]
        values += [*cfg.couples, *(lt for c in cfg.couples for lt in c.pursued)]
        for body in (b for c in cfg.couples for b in c.alternatives):
            values += [body.network, *body.network.tasks, *body.network.formula]
    assert {type(v) for v in values} == {
        TaskNetwork, LabelledTask, Task, Constraint, ReductionCouple
    }
    assert any(c.variables for c in values if isinstance(c, Constraint))
    for value in values:
        parts = fresh_parts(value)
        fresh = dc_replace(value)  # equal fields, nothing cached yet
        assert not set(parts) & set(vars(fresh))
        assert {name: getattr(value, name) for name in parts} == parts
        assert set(parts) <= set(vars(value))
        assert fresh == value and hash(fresh) == hash(value)
        assert repr(fresh) == repr(value)
        assert not set(parts) & {f.name for f in fields(value)}
    couple = next(v for v in values if isinstance(v, ReductionCouple) and v.pursued)
    assert f": {couple.members_text} |" in str(couple)


def test_an_action_substitutes_only_the_members_its_binding_names(monkeypatch):
    problem, domain = counter_problem(12)
    cfg0 = initial_configuration(problem.network, problem.state, domain)
    steps = run(cfg0, DefaultStrategy()).steps
    index = max(
        i for i, s in enumerate(steps) if s.kind == ACTION and s.task.symbol == "dec"
    )
    before = steps[index - 1].config
    ctx = make_context(domain, before)
    (choice,) = [
        c for c in exec_all(before, ctx, all_bindings=True)
        if c.kind == ACTION and c.label == steps[index].label
    ]
    members = len(before.network.tasks) + sum(len(c.pursued) for c in before.couples)
    assert len(before.couples) > 12 and members > 100

    called = []
    real = model.LabelledTask.substitute

    def counted(self, theta):
        called.append(self)
        return real(self, theta)

    monkeypatch.setattr(model.LabelledTask, "substitute", counted)
    step = apply(before, choice)
    bound = set(choice.binding)
    assert called and all(variables_of(lt) & bound for lt in called)
    assert step.config == steps[index].config
