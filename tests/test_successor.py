"""Successor configurations without steps.

``acting.successor`` builds the configuration a choice reaches; ``apply``
wraps it in a ``Step``, and the searches' walk (``trace.reachable``) calls
it alone.  On every edge of full walks the two must agree, the searches must
complete with ``apply`` unavailable, and the one-write constructors of
``Choice``, ``Step`` and ``Configuration`` must keep what the generated
frozen dataclass gives: no assignment, and the same ``==``, ``hash``,
``repr`` and signature.
"""
from __future__ import annotations

import dataclasses
import inspect
from collections import Counter

import pytest

from htnact import acting
from htnact import trace as trace_module
from htnact.acting import (
    ACTION,
    OBSERVATION,
    REDUCTION,
    REPLACEMENT,
    Choice,
    Configuration,
    Step,
    apply,
    exec_all,
    initial_configuration,
    make_context,
    successor,
)
from htnact.corpus import corpus
from htnact.model import LabelledTask, Task
from htnact.trace import reachable, successful_action_sequences
from htnact.verify import check_extendability
from search_reference import reference_action_sequences
from test_blocked import counter_problem


def walked_edges(cfg0, monkeypatch) -> list:
    """``(cfg, choice, successor)`` for each edge a full ``reachable`` walk
    from ``cfg0`` builds."""
    edges = []

    def recording(cfg, choice, ctx=None):
        nxt = successor(cfg, choice, ctx)
        edges.append((cfg, choice, nxt))
        return nxt

    monkeypatch.setattr(trace_module, "successor", recording)
    for _ in reachable(cfg0, make_context(cfg0.domain, cfg0)):
        pass
    monkeypatch.undo()
    return edges


def test_successor_is_the_configuration_apply_reaches_on_every_edge(
    rover, rover_problem, rover_nocali, monkeypatch
):
    starts = [
        initial_configuration(p.network, p.state, rover)
        for p in (rover_problem, rover_nocali)
    ]
    starts += [
        initial_configuration(case.network, case.state, case.domain)
        for case in corpus(100, 0)
    ]
    problem, domain = counter_problem(8)
    starts.append(initial_configuration(problem.network, problem.state, domain))
    kinds = Counter()
    for cfg0 in starts:
        for cfg, choice, nxt in walked_edges(cfg0, monkeypatch):
            # the walk's successor, from its tables, and one from fresh tables
            assert nxt == apply(cfg, choice).config == successor(cfg, choice)
            kinds[choice.kind] += 1
    assert kinds[ACTION] > 900 and kinds[REDUCTION] > 300 and kinds[REPLACEMENT] > 300
    observed = frozenset({LabelledTask("obs", Task("nop"))})
    choice = Choice(OBSERVATION, observed=observed)
    cfg = starts[0]
    reached = successor(cfg, choice)
    assert reached == apply(cfg, choice).config
    assert reached.network.tasks == cfg.network.tasks | observed


def test_the_searches_build_no_step(rover, rover_problem, rover_nocali, monkeypatch):
    expected = []
    for problem in (rover_problem, rover_nocali):
        cfg0 = initial_configuration(problem.network, problem.state, rover)
        expected.append(reference_action_sequences(cfg0, make_context(rover, cfg0)))

    def refuse(*args, **kwargs):
        raise AssertionError("a search built a step")

    monkeypatch.setattr(acting, "apply", refuse)
    monkeypatch.setattr(trace_module, "apply", refuse)
    for problem, sequences in zip((rover_problem, rover_nocali), expected):
        cfg0 = initial_configuration(problem.network, problem.state, rover)
        assert sequences
        assert successful_action_sequences(cfg0, make_context(rover, cfg0)) == sequences
        assert check_extendability(problem.network, problem.state, rover) is None
    case = corpus(20, 0)[0]
    assert check_extendability(case.network, case.state, case.domain) is None


def twin(cls):
    """A plain generated frozen dataclass with ``cls``'s name and fields."""
    fields = [
        (
            f.name, f.type,
            dataclasses.field(
                default=f.default, default_factory=f.default_factory,
                repr=f.repr, compare=f.compare, kw_only=f.kw_only,
            ),
        )
        for f in dataclasses.fields(cls)
    ]
    return dataclasses.make_dataclass(cls.__name__, fields, frozen=True)


def parameters(cls) -> list:
    return [(p.name, p.kind, p.default) for p in inspect.signature(cls).parameters.values()]


def test_one_write_constructors_keep_the_generated_contract(rover, rover_problem):
    cfg = initial_configuration(rover_problem.network, rover_problem.state, rover)
    ctx = make_context(rover, cfg)
    choices = exec_all(cfg, ctx)
    steps = [apply(cfg, choice, ctx) for choice in choices[:2]]
    samples = {
        Configuration: [cfg, steps[0].config, steps[1].config],
        Choice: list(choices[:2]),
        Step: steps,
    }
    assert [f.name for f in dataclasses.fields(Step) if f.kw_only] == [
        "config", "removed", "added",
    ]
    for cls, values in samples.items():
        plain = twin(cls)
        assert parameters(cls) == parameters(plain)
        parts = [{f.name: getattr(v, f.name) for f in dataclasses.fields(cls)} for v in values]
        for value, fields in zip(values, parts):
            again, other = cls(**fields), plain(**fields)
            assert again == value and hash(again) == hash(value)
            assert hash(value) == hash(other) and repr(value) == repr(other)
            for name in fields:
                with pytest.raises(dataclasses.FrozenInstanceError):
                    setattr(value, name, None)
        for a, b in zip(parts, parts[1:]):
            assert cls(**a) != cls(**b) and plain(**a) != plain(**b)
    with pytest.raises(TypeError):
        Step(ACTION, "1", None, None, None, (), None, None, None, frozenset(), cfg)
