"""Drawn bodies against the eager renaming, and how many are built.

A ``reduction.Body`` holds the names it was drawn with and builds its
network on first read.  ``tests/rename_reference.py`` keeps the renaming
that built every body at once.  Over every body a search draws from
``corpus(200, 0)``, both rover fixtures, three chained rover transmits and
a counter recursion: the draws
name exactly what the eager renaming names and build the same networks;
two bodies of one method are equal exactly when their networks are; a
substitution gives the same body whether or not the network was built; and
a body's variables and constants are its network's.  A run builds only the
bodies it takes.
"""
from __future__ import annotations

from dataclasses import replace as dc_replace

import pytest

import rename_reference
from htnact.acting import (
    REDUCTION,
    REPLACEMENT,
    initial_configuration,
    make_context,
)
from htnact.corpus import corpus
from htnact.domain import RenamingPlan
from htnact.model import Constant, Substitution, Variable, constants_of, variables_of
from htnact.reduction import relevant_method_bodies
from htnact.syntax import parse_problem
from htnact.trace import DefaultStrategy, reachable, run, validate_trace
from test_blocked import counter_problem


def searched(problem, domain):
    """The lineage context after ``reachable`` walked ``problem``, and every
    body the walk met: drawn, offered or held by a couple, bound or not."""
    cfg0 = initial_configuration(problem.network, problem.state, domain)
    ctx = make_context(domain, cfg0)
    bodies = [b for drawn in ctx.reductions.values() for b in drawn]
    for cfg, _, choices, _ in reachable(cfg0, ctx):
        bodies += [choice.body for choice in choices if choice.body is not None]
        bodies += [b for couple in cfg.couples for b in couple.alternatives]
    bodies += [b for drawn in ctx.reductions.values() for b in drawn]
    return cfg0, ctx, bodies


@pytest.fixture(scope="module")
def lineages(rover, rover_problem, rover_nocali):
    starts = [(case, case.domain) for case in corpus(200, 0)]
    starts += [(rover_problem, rover), (rover_nocali, rover), counter_problem(8)]
    starts.append((chained_transmits(rover, 3), rover))
    return [(domain, *searched(problem, domain)) for problem, domain in starts]


def test_draws_name_and_build_what_the_eager_renaming_does(lineages):
    """Each lineage's draws, repeated in order from a generator in its first
    state, give the recorded bodies; the eager renaming, from another such
    generator, names the same and builds equal networks."""
    drawn = 0
    for domain, cfg0, ctx, _ in lineages:
        lazy_gen, eager_gen = make_context(domain, cfg0).gen, make_context(domain, cfg0).gen
        for (_, task), recorded in ctx.reductions.items():
            again = relevant_method_bodies(task, domain, lazy_gen)
            eager = rename_reference.relevant_method_bodies(task, domain, eager_gen)
            assert again == recorded
            assert not any("network" in vars(b) for b in again)
            assert [(b.method, b.index, b.network) for b in recorded] == list(eager)
            assert [b.network for b in again] == [network for _, _, network in eager]
            drawn += len(recorded)
    assert drawn > 250


def test_bodies_of_a_method_are_equal_exactly_when_their_networks_are(lineages):
    """Compared pairwise among the bodies of one method under one set of
    labels (a body and its bound copies), and by network across all."""
    bodies = pairs = 0
    for _, _, _, met in lineages:
        by_network: dict = {}
        by_labels: dict = {}
        for body in met:
            by_network.setdefault((body.template, body.network), set()).add(body)
            by_labels.setdefault((body.template, body.fresh), []).append(body)
        for equal in by_network.values():
            assert len(equal) == 1
        for group in by_labels.values():
            for a in group:
                for b in group:
                    assert (a == b) == (a.network == b.network)
                    assert a != b or hash(a) == hash(b)
                    pairs += a is not b
        # equal bodies built apart hash equal
        for body in set(met):
            copy = dc_replace(body)
            assert copy == body and hash(copy) == hash(body)
            bodies += 1
    assert bodies > 250 and pairs > 20


def bindings(body) -> list[Substitution]:
    """Each variable of ``body`` bound to a constant, to a new variable and
    to another variable of the body."""
    variables = sorted(body.variables)
    out = []
    for v in variables:
        out.append(Substitution({v: Constant("k")}))
        out.append(Substitution({v: Variable("Fresh")}))
    if len(variables) > 1:
        out.append(Substitution({variables[0]: variables[1]}))
    return out


def test_substitute_is_the_same_before_and_after_a_build(lineages):
    tried = 0
    for _, _, _, met in lineages:
        for body in set(met):
            for theta in bindings(body):
                unbuilt = dc_replace(body).substitute(theta)
                built = dc_replace(body)
                built.network
                after = built.substitute(theta)
                assert "network" not in vars(unbuilt)
                assert unbuilt == after and hash(unbuilt) == hash(after)
                assert unbuilt.variables == after.variables
                assert unbuilt.network == after.network == body.network.substitute(theta)
                tried += 1
    assert tried > 60


def test_a_body_has_its_networks_names_and_terms_unbuilt(lineages):
    """Read before the network is built, a body's labels, variables and
    constants are the network's, never the template's."""
    for _, _, _, met in lineages:
        for body in set(met):
            unbuilt = dc_replace(body)
            found = (unbuilt.labels, unbuilt.variables, variables_of(unbuilt),
                     constants_of(unbuilt), variables_of((unbuilt,)))
            assert "network" not in vars(unbuilt)
            network = unbuilt.network
            assert found == (network.labels, network.variables, variables_of(network),
                             constants_of(network), variables_of(network))


def chained_transmits(rover, count: int):
    """``count`` uncalibrated ``transmitData`` tasks, each ordered before
    the next."""
    locations = [f"loc{i}" for i in range(count)]
    tasks = "".join(f"  A{i}: transmitData({loc})\n" for i, loc in enumerate(locations))
    chain = "".join(f"  ord A{i} < A{i + 1}\n" for i in range(count - 1))
    facts = [f"didExp({loc})" for loc in locations] + ["lander(lan1)"]
    text = f"problem chained\nstate: {', '.join(facts)}\ntasks:\n{tasks}constraints:\n{chain}"
    return parse_problem(text, rover).value


def test_a_run_builds_only_the_bodies_it_takes(rover, monkeypatch):
    """32 chained transmits run to success: every relevant body is drawn
    when its task is offered, 97 of them, but only the 65 taken (64
    reductions and a replacement) are built, and replaying the trace builds
    none."""
    built = []
    build = RenamingPlan.build

    def counted(plan, fresh, theta):
        built.append(fresh)
        return build(plan, fresh, theta)

    monkeypatch.setattr(RenamingPlan, "build", counted)
    problem = chained_transmits(rover, 32)
    cfg0 = initial_configuration(problem.network, problem.state, rover)
    trace = run(cfg0, DefaultStrategy())
    drawn = sum(len(bodies) for bodies in trace.ctx.reductions.values())
    taken = [s for s in trace.steps if s.kind in (REDUCTION, REPLACEMENT)]
    assert trace.final.network.tasks == frozenset()
    assert (len(built), len(taken), drawn) == (65, 65, 97)
    assert validate_trace(trace) == []
    assert len(built) == len(taken)
