"""Grounding and network rewrites against their unfiltered references.

``applicable_substitutions`` answers a variable-free action by evaluating its
literals, and matches the positive literals of any other against the state
before ranging over the universe; ``grounding_reference`` tries every
assignment of the universe.  An action's and a reduction's network rewrite
touch only the constraints that name the label (and an action also the
negated between-constraints it may discharge); ``rewrite_reference`` visits
every constraint.  At every configuration ``reachable`` visits, the two sides
must agree on every primary action's bindings, and on the network after every
action and reduction the walk takes.
"""
from __future__ import annotations

import grounding_reference
import rewrite_reference
from htnact.acting import (
    ACTION,
    REDUCTION,
    apply,
    applicable_substitutions,
    initial_configuration,
    make_context,
)
from htnact.constraints import Between
from htnact.corpus import corpus
from htnact.syntax import parse_domain, parse_problem
from htnact.trace import reachable
from test_blocked import counter_problem

ESCAPE_DOMAIN = """\
domain escape

operator seta
  pre:
  add: p
  del:

operator unseta
  pre:
  add:
  del: p

operator leaf
  pre:
  add:
  del:
"""

# m names neither end of the negated between, yet discharges it
ESCAPE_PROBLEM = """\
problem escape
state: q
tasks:
  a: seta
  m: unseta
  b: leaf
constraints:
  ord a < m
  not between a p b
"""

# variables bound by matching, by the universe alone, by a constraint's
# literal and by equalities, with a constant and between two variables
BIND_DOMAIN = """\
domain bind

operator pick(X)
  pre: item(X), !held(X)
  add: held(X)
  del:

operator pair(X, Y)
  pre: held(X), held(Y), =(X, Y)
  add: paired(X)
  del:

operator split(X, Y)
  pre: held(X), !=(X, Y)
  add: apart(Y)
  del:

operator drop(X)
  pre: held(X), =(X, c2)
  add:
  del: held(X)
"""

BIND_PROBLEM = """\
problem bind
state: item(c1), item(c2), item(c3)
tasks:
  A: pick(X)
  B: pick(Y)
  C: pair(Z, W)
  D: split(U, V)
  E: drop(T)
constraints:
  ord A < C
  before held(U) D
"""


def parsed(domain_text: str, problem_text: str):
    domain = parse_domain(domain_text, "walk").value
    problem = parse_problem(problem_text, domain).value
    return initial_configuration(problem.network, problem.state, domain)


def starts(rover, rover_problem, rover_nocali) -> list:
    configs = [
        initial_configuration(p.network, p.state, rover)
        for p in (rover_problem, rover_nocali)
    ]
    problem, domain = counter_problem(8)
    configs.append(initial_configuration(problem.network, problem.state, domain))
    configs += [
        initial_configuration(case.network, case.state, case.domain)
        for case in corpus(200, 100000)
    ]
    configs.append(parsed(ESCAPE_DOMAIN, ESCAPE_PROBLEM))
    configs.append(parsed(BIND_DOMAIN, BIND_PROBLEM))
    return configs


def walked(cfg0):
    """Each configuration ``reachable`` visits from ``cfg0``, with a context for
    it and the choices the walk took there."""
    ctx = make_context(cfg0.domain, cfg0)
    for cfg, _, choices, _ in reachable(cfg0, ctx):
        yield cfg, ctx, choices


def test_grounding_agrees_with_the_brute_force(rover, rover_problem, rover_nocali):
    ground = bearing = bound = 0
    for cfg0 in starts(rover, rover_problem, rover_nocali):
        for cfg, ctx, _ in walked(cfg0):
            d, state = cfg.network, cfg.state
            for lt in sorted(cfg.primary, key=lambda lt: lt.label):
                if not cfg.domain.is_primitive(lt.task.symbol):
                    continue
                every = applicable_substitutions(lt.label, d, state, ctx, limit=None)
                expected = grounding_reference.substitutions(
                    lt.label, d, state, cfg.domain, ctx.universe
                )
                assert len(set(every)) == len(every)
                assert set(every) == set(expected), (lt, str(d))
                first = applicable_substitutions(lt.label, d, state, ctx, limit=1)
                assert first == every[:1]
                if grounding_reference.variables(lt.label, d, cfg.domain):
                    bearing += 1
                    bound += bool(expected)
                else:
                    ground += 1
    assert ground > 1000 and bearing > 100 and bound > 10


def test_rewrites_agree_with_the_unfiltered_ones(rover, rover_problem, rover_nocali):
    actions = reductions = escapes = 0
    for cfg0 in starts(rover, rover_problem, rover_nocali):
        for cfg, ctx, choices in walked(cfg0):
            d = cfg.network
            for choice in choices:
                after = apply(cfg, choice, ctx).config.network
                if choice.kind == ACTION:
                    theta = choice.binding
                    state = rewrite_reference.state_after(cfg.state, choice.task, cfg.domain)
                    assert after == rewrite_reference.network_after(
                        choice.label, d, theta, state
                    )
                    actions += 1
                    escapes += sum(
                        c.negated and isinstance(c.body, Between)
                        and choice.label not in c.labels()
                        and c.substitute(theta) not in after.formula
                        for c in d.formula
                    )
                elif choice.kind == REDUCTION:
                    assert after == rewrite_reference.reduced_network(
                        d, choice.label, choice.body.network
                    )
                    reductions += 1
    assert actions > 1000 and reductions > 500 and escapes > 0
