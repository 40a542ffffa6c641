"""Canonical keys built from cached parts.

``trace.canonical_key`` reuses texts, sorted labels and key fragments cached
on immutable values; ``key_reference.canonical_key`` rebuilds its key from
scratch at every call.  The strings differ, but over every configuration
explored from corpus cases and both rover problems the two keys must put the
same configurations together.  The cached parts must never leak into
equality, hashing or ``repr``, and must be built once per object; a cached
hash must equal the dataclass hash of the fields.
"""
from __future__ import annotations

from dataclasses import fields, replace as dc_replace

import key_reference
from htnact import reduction
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


def test_canonical_key_partitions_configurations_like_the_reference(
    rover, rover_problem, rover_nocali
):
    starts = [
        initial_configuration(p.network, p.state, rover)
        for p in (rover_problem, rover_nocali)
    ]
    starts += [
        initial_configuration(case.network, case.state, case.domain)
        for case in corpus(200, 0) + corpus(100, 100000)
    ]
    pairs: set = set()
    for cfg0 in starts:
        pairs |= explored_keys(cfg0)
    by_key: dict = {}
    by_reference: dict = {}
    for key, reference in pairs:
        by_key.setdefault(key, set()).add(reference)
        by_reference.setdefault(reference, set()).add(key)
    assert len(pairs) > 4000
    assert [refs for refs in by_key.values() if len(refs) > 1] == []
    assert [keys for keys in by_reference.values() if len(keys) > 1] == []


# -- cached parts ---------------------------------------------------------------

def rendered(term_holder) -> str:
    """A task or atom rendered from its fields, as ``str`` did before caching."""
    if not term_holder.args:
        return term_holder.symbol
    return f"{term_holder.symbol}({', '.join(map(str, term_holder.args))})"


def fragment(body: Body) -> str:
    return f"{body.index}<{key_reference.network_fingerprint(body.network)}>"


def recomputed(value) -> dict:
    """Each cached part of ``value``, computed afresh from its fields."""
    if isinstance(value, (Atom, Task)):
        return {"text": rendered(value)}
    if isinstance(value, Literal):
        return {"text": ("" if value.positive else "!") + rendered(value.atom)}
    if isinstance(value, Constraint):
        return {
            "text": ("not " if value.negated else "") + str(value.body),
            "sorted_labels": tuple(sorted(value.labels(), key=label_key)),
        }
    if isinstance(value, Body):
        return {"key_fragment": fragment(value)}
    if isinstance(value, (LabelledTask, TaskNetwork)):
        return {}
    assert isinstance(value, ReductionCouple)
    members = sorted(value.members, key=lambda lt: (rendered(lt.task), label_key(lt.label)))
    return {
        "sorted_members": tuple((rendered(lt.task), len(lt.label), lt.label) for lt in members),
        "alternatives_key": " ".join(fragment(b) for b in value.alternatives),
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
    cfg = reduced_twice(rover, rover_problem)
    canonical_key(cfg)
    values = cached_values(cfg)
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
    body = Body(
        "m1", 0,
        network(
            [LabelledTask("n1", Task("go", (x,)))],
            [Constraint(Before(Literal(Atom("at", (x,))), LabelRef("n1")))],
        ),
    )
    couple = ReductionCouple("T", frozenset({LabelledTask("t1", Task("go", (x,)))}), (body,))
    assert "go(X)" in body.key_fragment and "at(X)" in body.key_fragment
    assert couple.sorted_members == (("go(X)", 2, "t1"),)

    theta = Substitution({x: Constant("c")})
    bound_body, bound_couple = body.substitute(theta), couple.substitute(theta)
    assert bound_body is not body and bound_couple is not couple
    for value in (bound_body, bound_couple):
        assert {name: getattr(value, name) for name in recomputed(value)} == recomputed(value)
    assert "go(c)" in bound_body.key_fragment and "X" not in bound_body.key_fragment
    assert bound_couple.sorted_members == (("go(c)", 2, "t1"),)
    assert bound_couple.alternatives_key == bound_body.key_fragment
    assert "go(X)" in body.key_fragment  # the parent keeps its own

    assert dc_replace(couple, alternatives=()).alternatives_key == ""


def test_alternative_bodies_are_fingerprinted_once_each(
    rover, rover_problem, monkeypatch
):
    """Across an exhaustive search, each ``Body`` object's network is
    fingerprinted at most once, however many nodes carry the body."""
    fingerprinted: dict = {}  # id(network) -> [network, calls]
    bodies: dict = {}  # id(body) -> body, kept alive so ids stay unique
    carried = 0

    original_fingerprint = reduction.network_fingerprint

    def counting_fingerprint(net, rename=None):
        fingerprinted.setdefault(id(net), [net, 0])[1] += 1
        return original_fingerprint(net, rename)

    original_key = trace_module.canonical_key

    def collecting_key(cfg):
        nonlocal carried
        for couple in cfg.couples:
            for body in couple.alternatives:
                bodies[id(body)] = body
                carried += 1
        return original_key(cfg)

    monkeypatch.setattr(reduction, "network_fingerprint", counting_fingerprint)
    monkeypatch.setattr(trace_module, "canonical_key", collecting_key)
    cfg0 = initial_configuration(rover_problem.network, rover_problem.state, rover)
    assert successful_action_sequences(cfg0, make_context(rover, cfg0))

    calls = sum(count for _, count in fingerprinted.values())
    assert 0 < calls <= len(bodies) < carried
    for net, count in fingerprinted.values():
        owners = [b for b in bodies.values() if b.network is net]
        assert count <= len(owners)
