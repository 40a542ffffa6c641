"""Blocked couples and the cost of one configuration node.

``exec_via_replacement`` reads which actions can act off the action choices
at the node, and ``is_blocked``/``is_trace_blocked`` share its one test of
progress.  The references below are the per-couple loop those functions
replaced; every configuration explored from corpus cases and from both rover
problems must get the same answers from both.  The same configurations check
the per-search applicability memo against a fresh computation, and a search
must leave no reference cycle behind once it returns.  The searches take no
Python stack for their depth, and one that reaches the node budget raises
instead of returning part of its result.
"""
from __future__ import annotations

import gc
import inspect
import sys

import pytest

from htnact import acting
from htnact import trace as trace_module
from htnact.acting import (
    REPLACEMENT,
    Choice,
    applicable_substitutions,
    apply,
    exec_all,
    exec_via_action,
    exec_via_replacement,
    initial_configuration,
    is_applicable,
    is_blocked,
    is_successful,
    is_trace_blocked,
    make_context,
    primary_tasks,
    smallest_replaceable,
)
from htnact.agent import observe
from htnact.corpus import corpus
from htnact.model import Constant, Task, labelled_task_key
from htnact.reduction import has_relevant_method
from htnact.syntax import parse_domain, parse_problem
from htnact.trace import (
    DefaultStrategy,
    SearchBudgetExceeded,
    canonical_key,
    iter_successful_traces,
    run,
    sample_traces,
    successful_action_sequences,
)
from htnact.verify import check_extendability, traces_with_complete_replacements
from search_reference import reference_action_sequences


def reference_is_blocked(pursued, d, state, ctx) -> bool:
    members = {lt for lt in primary_tasks(d, ctx.domain) if lt in pursued}
    if not members:
        raise ValueError("pursued set shares no primary task with the network")
    for lt in members:
        if ctx.domain.is_primitive(lt.task.symbol):
            if is_applicable(lt.label, d, state, ctx) is not None:
                return False
        elif has_relevant_method(lt.task, ctx.domain):
            return False
    return True


def meeting_couples(cfg):
    primary_labels = {lt.label for lt in primary_tasks(cfg.network, cfg.domain)}
    return [c for c in cfg.sorted_couples() if c.labels & primary_labels]


def reference_replacements(cfg, ctx) -> tuple:
    choices = []
    for couple in meeting_couples(cfg):
        if not couple.alternatives:
            continue
        if not reference_is_blocked(couple.pursued, cfg.network, cfg.state, ctx):
            continue
        # complete: no pursued task has been executed yet; jump: the couple
        # is not among the smallest replaceable ones
        complete = all(lt in cfg.network.tasks for lt in couple.pursued)
        jump = couple not in smallest_replaceable(cfg.couples)
        for body in couple.alternatives:
            choices.append(
                Choice(REPLACEMENT, couple.origin, body=body, couple=couple,
                       complete=complete, jump=jump)
            )
    return tuple(choices)


def reference_is_trace_blocked(cfg, ctx) -> bool:
    meeting = meeting_couples(cfg)
    if any(c.alternatives for c in meeting):
        return False
    return all(
        reference_is_blocked(c.pursued, cfg.network, cfg.state, ctx) for c in meeting
    )


def explored(cfg0, limit: int = 200):
    """Up to ``limit`` distinct configurations reachable from ``cfg0``."""
    ctx = make_context(cfg0.domain, cfg0)
    seen = {canonical_key(cfg0)}
    stack, out = [cfg0], []
    while stack and len(out) < limit:
        cfg = stack.pop()
        out.append(cfg)
        for choice in exec_all(cfg, ctx, all_bindings=True):
            successor = apply(cfg, choice).config
            key = canonical_key(successor)
            if key not in seen:
                seen.add(key)
                stack.append(successor)
    return out


def starts(rover, rover_problem, rover_nocali):
    yield initial_configuration(rover_problem.network, rover_problem.state, rover)
    yield initial_configuration(rover_nocali.network, rover_nocali.state, rover)
    for case in corpus(100, 0):
        yield initial_configuration(case.network, case.state, case.domain)


def test_blocked_checks_agree_with_the_per_couple_reference(
    rover, rover_problem, rover_nocali
):
    nodes = replaced = trace_blocked = 0
    for cfg0 in starts(rover, rover_problem, rover_nocali):
        ctx = make_context(cfg0.domain, cfg0)
        for cfg in explored(cfg0):
            if is_successful(cfg):
                continue
            nodes += 1
            expected = reference_replacements(cfg, ctx)
            assert exec_via_replacement(cfg, ctx) == expected
            actions = exec_via_action(cfg, ctx, all_bindings=True)
            assert exec_via_replacement(cfg, ctx, actions) == expected
            expected_blocked = reference_is_trace_blocked(cfg, ctx)
            assert is_trace_blocked(cfg, ctx) == expected_blocked
            for couple in meeting_couples(cfg):
                args = (couple.pursued, cfg.network, cfg.state, ctx)
                assert is_blocked(*args) == reference_is_blocked(*args)
            replaced += bool(expected)
            trace_blocked += expected_blocked
    assert nodes > 1000 and replaced > 200 and trace_blocked > 100


# -- counting guards ------------------------------------------------------------

COUNTER_DOMAIN = """\
domain counter

operator dec(X, Y)
  pre: cnt(X), next(X, Y)
  add: cnt(Y)
  del: cnt(X)

operator a
  pre:
  add:
  del:

operator b
  pre:
  add:
  del:

method m1 loop
  tasks:
    1: dec(X, Y)
    2: loop
    3: a
  constraints:
    ord 1 < 2
    ord 2 < 3

method m2 loop
  tasks:
    4: b
    5: a
  constraints:
    ord 4 < 5
"""


def counter_problem(depth: int):
    domain = parse_domain(COUNTER_DOMAIN, "counter").value
    facts = ["cnt(c0)"] + [f"next(c{i}, c{i + 1})" for i in range(depth)]
    text = f"problem deep\nstate: {', '.join(facts)}\ntasks:\n  L: loop\n"
    return parse_problem(text, domain).value, domain


UNBOUNDED_DOMAIN = COUNTER_DOMAIN.replace(
    "    1: dec(X, Y)\n", "    1: a\n"
)


def test_counter_domains_give_the_reference_sets():
    sizes = {True: [], False: []}
    for depth in range(5):
        problem, domain = counter_problem(depth)
        cfg0 = initial_configuration(problem.network, problem.state, domain)
        for allow_partial in (True, False):
            narrowed = successful_action_sequences(
                cfg0, make_context(domain, cfg0), allow_partial=allow_partial
            )
            assert narrowed == reference_action_sequences(
                cfg0, make_context(domain, cfg0), allow_partial=allow_partial
            )
            sizes[allow_partial].append(len(narrowed))
    assert sizes == {True: [1, 3, 5, 7, 9], False: [1, 2, 3, 4, 5]}


def test_an_unbounded_recursion_stops_at_the_node_budget(monkeypatch):
    """Without a counter, ``loop`` reduces forever and every reduction adds a
    couple, so no key recurs: the search must stop at the budget, and its
    depth must cost no Python stack."""
    domain = parse_domain(UNBOUNDED_DOMAIN, "unbounded").value
    problem = parse_problem("problem open\nstate:\ntasks:\n  L: loop\n", domain).value
    cfg0 = initial_configuration(problem.network, problem.state, domain)
    monkeypatch.setattr(trace_module, "SEARCH_NODES", 300)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack()) + 40)
    try:
        with pytest.raises(SearchBudgetExceeded, match="more than 300"):
            successful_action_sequences(cfg0, make_context(domain, cfg0))
    finally:
        sys.setrecursionlimit(limit)


def test_exec_all_checks_each_primary_action_once(monkeypatch):
    problem, domain = counter_problem(10)
    cfg0 = initial_configuration(problem.network, problem.state, domain)
    trace = run(cfg0, DefaultStrategy())
    assert is_successful(trace.final)
    assert max(len(s.config.couples) for s in trace.steps) > 10

    calls = []
    real = acting.applicable_substitutions

    def counted(label, *args, **kwargs):
        calls.append(label)
        return real(label, *args, **kwargs)

    monkeypatch.setattr(acting, "applicable_substitutions", counted)
    for step in trace.steps:
        cfg = step.config
        ctx = make_context(domain, cfg)
        calls.clear()
        exec_all(cfg, ctx)
        actions = {
            lt.label
            for lt in primary_tasks(cfg.network, domain)
            if domain.is_primitive(lt.task.symbol)
        }
        assert len(calls) == len(set(calls))
        assert set(calls) <= actions


def test_explorer_builds_names_only_where_a_reduction_may_draw_them(
    monkeypatch, rover, rover_nocali
):
    """A search names a task's bodies on its first offer only, each
    ``(label, task)`` once, however many nodes offer it."""
    named = []
    real = acting.RunContext.absorb

    def recorded(self, task):
        named.append(task)
        return real(self, task)

    monkeypatch.setattr(acting.RunContext, "absorb", recorded)
    offers = []
    real_reduction = acting.exec_via_reduction

    def counted_reduction(cfg, *args, **kwargs):
        offered = real_reduction(cfg, *args, **kwargs)
        offers.extend(offered)
        return offered

    monkeypatch.setattr(acting, "exec_via_reduction", counted_reduction)
    cfg0 = initial_configuration(rover_nocali.network, rover_nocali.state, rover)
    ctx = make_context(rover, cfg0)
    assert successful_action_sequences(cfg0, ctx)
    assert len(named) == len(ctx.reductions) < len(offers)
    assert sorted(map(str, named)) == sorted(str(task) for _, task in ctx.reductions)


def test_every_context_of_a_lineage_shares_one_generator(monkeypatch, rover, rover_nocali):
    """A run's context, and the contexts that validate and rebuild its
    traces, share the lineage's generator and table of reductions, each with
    component tables of its own."""
    cfg0 = initial_configuration(rover_nocali.network, rover_nocali.state, rover)
    trace = run(cfg0, DefaultStrategy())
    assert trace.ctx.gen.label("A") == "A_2"  # the initial names are taken
    replaying = []
    real = trace_module.replay_step

    def recorded(prev, step, ctx):
        replaying.append(ctx)
        return real(prev, step, ctx)

    monkeypatch.setattr(trace_module, "replay_step", recorded)
    assert trace_module.validate_trace(trace) == []
    sampled = next(t for c in corpus(20, 0) for t in traces_with_complete_replacements(c))
    count = len(replaying)
    trace_module.eliminate_complete_replacements(sampled)
    assert 0 < count < len(replaying)
    for index, ctx in enumerate(replaying):
        producer = trace.ctx if index < count else sampled.ctx
        assert ctx.gen is producer.gen and ctx.reductions is producer.reductions
        assert ctx is not producer and ctx.tables is not producer.tables


def test_couples_mention_no_variable_the_network_lacks(rover, rover_problem, rover_nocali):
    """A couple pursues network tasks and executed, ground ones, so a
    context's names need not walk the pursued tasks for variables."""
    for cfg0 in starts(rover, rover_problem, rover_nocali):
        for cfg in explored(cfg0):
            for couple in cfg.couples:
                for lt in couple.pursued:
                    assert lt.variables <= cfg.network.variables, (lt, cfg.network)


def test_no_two_couples_share_an_origin(rover):
    """A lineage's generator never draws a name twice, so no reduction draws
    an origin again."""
    two = parse_problem(
        "problem two\nstate: didExp(loc1), didExp(loc2), lander(lan1)\n"
        "tasks:\n  A1: transmitData(loc1)\n  A2: transmitData(loc2)\n"
        "constraints:\n  ord A1 < A2\n",
        rover,
    ).value
    cfg0s = [initial_configuration(two.network, two.state, rover)] + [
        initial_configuration(case.network, case.state, case.domain)
        for case in corpus(100, 0)
    ]
    for cfg0 in cfg0s:
        for cfg in explored(cfg0):
            origins = [c.origin for c in cfg.couples]
            assert len(origins) == len(set(origins)), cfg.couples


# -- the applicability memo -------------------------------------------------------

def primary_actions(cfg):
    return [
        lt.label
        for lt in sorted(primary_tasks(cfg.network, cfg.domain), key=labelled_task_key)
        if cfg.domain.is_primitive(lt.task.symbol)
    ]


def test_memoised_applicability_equals_a_fresh_computation(
    rover, rover_problem, rover_nocali
):
    calls = entries = 0
    for cfg0 in starts(rover, rover_problem, rover_nocali):
        ctx = make_context(cfg0.domain, cfg0)
        for cfg in explored(cfg0):
            for label in primary_actions(cfg):
                args = (label, cfg.network, cfg.state)
                for limit in (None, 1):
                    fresh = make_context(cfg0.domain, cfg0)
                    assert applicable_substitutions(
                        *args, ctx, limit
                    ) == applicable_substitutions(*args, fresh, limit)
                    calls += 1
        entries += len(ctx.tables.applicable)
    assert calls > 3000 and entries < calls / 2


RESIDUAL_DOMAIN = """\
domain residual

operator go(X)
  pre: !at(X)
  add: at(X)
  del:
"""


def test_a_larger_universe_grounds_residual_variables_afresh():
    domain = parse_domain(RESIDUAL_DOMAIN, "residual").value
    problem = parse_problem(
        "problem open\nstate: at(home)\ntasks:\n  1: go(Z)\n", domain
    ).value
    cfg = initial_configuration(problem.network, problem.state, domain)
    ctx = make_context(domain, cfg)
    assert applicable_substitutions("1", cfg.network, cfg.state, ctx, None) == ()
    observed, _ = observe(cfg, [(None, Task("go", (Constant("far"),)))], ctx)
    found = applicable_substitutions("1", observed.network, observed.state, ctx, None)
    assert [str(theta) for theta in found] == ["{Z/far}"]


def test_searches_leave_no_reference_cycles(rover, rover_problem):
    cfg0 = initial_configuration(rover_problem.network, rover_problem.state, rover)
    gc.collect()
    gc.disable()
    try:
        assert successful_action_sequences(cfg0, make_context(rover, cfg0))
        assert sum(1 for _ in iter_successful_traces(cfg0, make_context(rover, cfg0)))
        assert sample_traces(cfg0, make_context(rover, cfg0), 3)
        assert check_extendability(rover_problem.network, rover_problem.state, rover) is None
        ctx = make_context(rover, cfg0)
        for label in primary_actions(cfg0):
            applicable_substitutions(label, cfg0.network, cfg0.state, ctx, None)
        del ctx
        assert gc.collect() == 0
    finally:
        gc.enable()


# -- search depth and the node budget ---------------------------------------------

def test_explorers_need_no_python_stack_for_search_depth():
    problem, domain = counter_problem(12)
    cfg0 = initial_configuration(problem.network, problem.state, domain)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack()) + 40)
    try:
        sequences = successful_action_sequences(cfg0, make_context(domain, cfg0))
        traces = list(iter_successful_traces(cfg0, make_context(domain, cfg0)))
        sampled = sample_traces(cfg0, make_context(domain, cfg0), 5)
    finally:
        sys.setrecursionlimit(limit)
    assert len(sequences) == 25
    assert {t.actions_performed() for t in traces} == sequences
    assert len(sampled) == 5
    assert max(len(t) for t in traces) > 40


def test_a_sample_stops_at_the_budget_instead_of_returning_a_part(
    monkeypatch, rover, rover_problem
):
    cfg0 = initial_configuration(rover_problem.network, rover_problem.state, rover)
    assert len(sample_traces(cfg0, make_context(rover, cfg0), 50)) == 27
    monkeypatch.setattr(trace_module, "SEARCH_NODES", 20)
    with pytest.raises(SearchBudgetExceeded, match="more than 20 configurations"):
        sample_traces(cfg0, make_context(rover, cfg0), 50)
