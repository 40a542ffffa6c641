"""Search keys by configuration equality, and the parts cached on values.

``trace.canonical_key`` is a configuration's ``(network, state, couples)``;
``key_reference.canonical_key`` renders a key that renames labels, so it
also puts together configurations that differ by a renaming.  Over every
configuration explored from corpus cases and both rover problems, one
``canonical_key`` never holds two reference keys, and searches memoised
under either key find the same results.  The parts cached on values (texts,
a couple's views, hashes) must never leak into equality, hashing or
``repr``, and must be built once per object; a cached hash must equal the
dataclass hash of the fields.
"""
from __future__ import annotations

from dataclasses import fields, replace as dc_replace

import pytest

import key_reference
from htnact import trace as trace_module
from htnact.acting import (
    ReductionCouple,
    apply,
    exec_all,
    initial_configuration,
    make_context,
)
from htnact.constraints import Before, Constraint, LabelRef, TaskNetwork, network
from htnact.corpus import corpus
from htnact.model import (
    Atom,
    Constant,
    LabelledTask,
    Literal,
    Substitution,
    Task,
    Variable,
    label_key,
)
from htnact.reduction import Body
from htnact.trace import canonical_key, successful_action_sequences
from htnact.verify import check_extendability
from test_constraints import drawn
from test_trace import reduced_twice


def explored_keys(cfg0) -> set:
    """``(key, reference key)`` of every configuration reachable from ``cfg0``.

    Configurations are told apart by the pair, so neither key can hide a
    configuration the other one separates.
    """
    ctx = make_context(cfg0.domain, cfg0)
    seen = {(canonical_key(cfg0), key_reference.canonical_key(cfg0))}
    stack = [cfg0]
    while stack:
        cfg = stack.pop()
        for choice in exec_all(cfg, ctx, all_bindings=True):
            successor = apply(cfg, choice).config
            keys = (canonical_key(successor), key_reference.canonical_key(successor))
            if keys not in seen:
                seen.add(keys)
                stack.append(successor)
    return seen


@pytest.fixture(scope="module")
def problems(rover, rover_problem, rover_nocali) -> list:
    """``(problem, domain)`` of both rover problems and 300 corpus cases."""
    cases = corpus(200, 0) + corpus(100, 100000)
    return [(p, rover) for p in (rover_problem, rover_nocali)] + [
        (case, case.domain) for case in cases
    ]


def test_canonical_key_refines_the_reference_partition(problems):
    pairs: set = set()
    for problem, domain in problems:
        pairs |= explored_keys(initial_configuration(problem.network, problem.state, domain))
    by_key: dict = {}
    by_reference: dict = {}
    for key, reference in pairs:
        by_key.setdefault(key, set()).add(reference)
        by_reference.setdefault(reference, set()).add(key)
    assert len(pairs) > 4000
    assert [refs for refs in by_key.values() if len(refs) > 1] == []
    # the reference's renaming merges some configurations that differ in
    # their labels alone, such as two equal tasks after either one acted
    assert any(len(keys) > 1 for keys in by_reference.values())


def searched(monkeypatch, key, problem, domain) -> tuple[list, list]:
    """The results of the keyed searches on ``problem`` under ``key``, and
    how many configurations each expanded."""
    counts = []
    real_exec_all = trace_module.exec_all

    def counted_exec_all(*args, **kwargs):
        counts[-1] += 1
        return real_exec_all(*args, **kwargs)

    monkeypatch.setattr(trace_module, "canonical_key", key)
    monkeypatch.setattr(trace_module, "exec_all", counted_exec_all)
    results = []
    for allow_partial in (True, False):
        counts.append(0)
        cfg0 = initial_configuration(problem.network, problem.state, domain)
        results.append(successful_action_sequences(
            cfg0, make_context(domain, cfg0), allow_partial=allow_partial
        ))
    counts.append(0)
    results.append(check_extendability(problem.network, problem.state, domain))
    monkeypatch.undo()
    return results, counts


def test_searches_under_either_key_find_the_same_results(monkeypatch, problems):
    found = 0
    for problem, domain in problems:
        reference, reference_nodes = searched(
            monkeypatch, key_reference.canonical_key, problem, domain
        )
        results, nodes = searched(monkeypatch, canonical_key, problem, domain)
        assert results == reference
        assert all(n >= r for n, r in zip(nodes, reference_nodes))
        found += bool(results[0])
    assert found > 100


# -- cached parts ---------------------------------------------------------------

def rendered(term_holder) -> str:
    """A task or atom rendered from its fields, as ``str`` did before caching."""
    if not term_holder.args:
        return term_holder.symbol
    return f"{term_holder.symbol}({', '.join(map(str, term_holder.args))})"


def pursued(couple: ReductionCouple) -> frozenset:
    return couple.members.union(*map(pursued, couple.children))


def recomputed(value) -> dict:
    """Each cached part of ``value``, computed afresh from its fields."""
    if isinstance(value, (Atom, Task)):
        return {"text": rendered(value)}
    if isinstance(value, Literal):
        return {"text": ("" if value.positive else "!") + rendered(value.atom)}
    if isinstance(value, LabelledTask):
        return {"text": f"{value.label}:{rendered(value.task)}"}
    if isinstance(value, Constraint):
        return {"text": ("not " if value.negated else "") + str(value.body)}
    if isinstance(value, TaskNetwork):
        return {"labels": frozenset(lt.label for lt in value.tasks)}
    if isinstance(value, Body):
        return {"variables": value.network.variables}
    assert isinstance(value, ReductionCouple)
    tasks = pursued(value)
    ordered = sorted(tasks, key=lambda lt: label_key(lt.label))
    return {
        "pursued": tasks,
        "labels": frozenset(lt.label for lt in tasks),
        "members_text": " ".join(f"{lt.label}:{rendered(lt.task)}" for lt in ordered),
    }


def cached_values(cfg) -> list:
    couples = sorted(cfg.couples, key=ReductionCouple.sort_key)
    bodies = [b for c in couples for b in c.alternatives]
    constraints = sorted(cfg.network.formula, key=str)
    literals = [c.body.literal for c in constraints if hasattr(c.body, "literal")]
    labelled = cfg.network.sorted_tasks()
    return (
        couples + bodies + constraints + literals
        + [lit.atom for lit in literals]
        + sorted(cfg.state, key=str)
        + labelled + [lt.task for lt in labelled]
        + [cfg.network] + [b.network for b in bodies]
    )


# the classes whose hash is cached, in ``_hash`` beside their cached parts
HASH_CACHED = (Atom, Task, LabelledTask, Constraint, TaskNetwork, ReductionCouple)


def test_cached_parts_match_recomputation_and_stay_out_of_identity(
    rover, rover_problem
):
    values = cached_values(reduced_twice(rover, rover_problem))
    assert {type(v) for v in values} == {
        ReductionCouple, Body, Constraint, Literal, Atom, Task, LabelledTask, TaskNetwork
    }
    for value in values:
        parts = recomputed(value)
        assert {name: getattr(value, name) for name in parts} == parts
        field_values = tuple(getattr(value, f.name) for f in fields(value))
        if isinstance(value, HASH_CACHED):
            # the dataclass hash of the fields, so set order and search order stay
            assert hash(value) == hash(field_values)
            assert vars(value)["_hash"] == hash(field_values)
            if not isinstance(value, ReductionCouple):  # hashed at construction
                parts["_hash"] = hash(field_values)
        fresh = dc_replace(value)  # equal fields, nothing cached yet
        assert not set(parts) & set(vars(fresh))
        assert set(parts) <= set(vars(value))
        assert fresh == value and value == fresh
        assert hash(fresh) == hash(value)
        assert repr(fresh) == repr(value)
        assert not set(parts) & {f.name for f in fields(value)}


def test_substituted_body_and_couple_get_fresh_parts():
    x = Variable("X")
    body = drawn(
        network(
            [LabelledTask("n1", Task("go", (x,)))],
            [Constraint(Before(Literal(Atom("at", (x,))), LabelRef("n1")))],
        )
    )
    child = ReductionCouple("t1", frozenset({LabelledTask("n2", Task("at", (x,)))}))
    couple = ReductionCouple(
        "T", frozenset({LabelledTask("t2", Task("go", (x,)))}), (body,), (child,)
    )
    assert couple.members_text == "n2:at(X) t2:go(X)"

    theta = Substitution({x: Constant("c")})
    bound_body, bound_couple = body.substitute(theta), couple.substitute(theta)
    assert bound_body is not body and bound_couple is not couple
    assert bound_couple.alternatives == (bound_body,)
    for value in (bound_couple, bound_couple.children[0], bound_body.network):
        assert {name: getattr(value, name) for name in recomputed(value)} == recomputed(value)
    assert bound_couple.members_text == "n2:at(c) t2:go(c)"
    assert str(bound_body.network) == "<n1:go(c) | before at(c) n1>"
    assert couple.members_text == "n2:at(X) t2:go(X)"  # the parent keeps its own
