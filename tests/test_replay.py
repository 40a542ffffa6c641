"""Replay by membership: a recorded step is legal exactly when its
predecessor offers it.

``tests/mutation_corpus.py`` builds the valid traces and their one-step
forgeries; every source must validate and every forgery must be rejected at
the step it forges, with the same problems under any string hashing.
"""
from __future__ import annotations

import json
import os
import subprocess
import sys
from dataclasses import replace as dc_replace
from pathlib import Path

import pytest

import htnact
from htnact.acting import (
    REDUCTION,
    REPLACEMENT,
    Choice,
    ReductionCouple,
    Step,
    apply,
    exec_all,
    exec_via_action,
    exec_via_reduction,
    initial_configuration,
    make_context,
    primary_tasks,
)
from htnact.model import Task
from htnact.reduction import relevant_method_bodies
from htnact.syntax import parse_domain, parse_problem
from htnact.trace import DefaultStrategy, Trace, run, validate_trace
from mutation_corpus import mutants, renamed, sources

KINDS = {
    "forged body",
    "forged body: task variable unlinked",
    "forged body: constraint negated",
    "dropped alternative",
    "added alternative",
    "alternatives unlike the couple's",
    "reused label",
    "label shared by two bodies",
    "wrong binding: extra variable",
    "wrong binding: value outside the universe",
    "forged action task",
    "flipped complete flag",
    "flipped jump flag",
    "another couple named",
    "swapped observation",
}


@pytest.fixture(scope="module")
def corpus_traces():
    return sources()


def test_every_unmutated_source_validates(corpus_traces):
    for name, trace in corpus_traces:
        assert validate_trace(trace) == [], name


def test_every_mutant_is_rejected_at_the_step_it_forges(corpus_traces):
    seen = set()
    for name, trace in corpus_traces:
        for kind, index, mutant in mutants(trace):
            seen.add(kind)
            problems = validate_trace(mutant)
            assert problems, (name, kind, index)
            assert all(p.startswith(f"step {index} ") for p in problems), problems
    assert seen == KINDS


def test_a_reduction_with_another_methods_body_is_rejected(rover, rover_problem):
    cfg = initial_configuration(rover_problem.network, rover_problem.state, rover)
    steps = run(cfg, DefaultStrategy()).steps
    assert steps[2].describe() == "reduction A with m1"
    m3 = next(s.body for s in steps if s.kind == REDUCTION and s.body.method == "m3")
    forged = apply(steps[1].config, Choice(REDUCTION, "A", steps[2].task, body=m3))
    problems = validate_trace(Trace(steps[:2] + [forged], None))
    assert len(problems) == 1 and problems[0].startswith("step 2 (reduction A with m3)")


def test_fresh_names_in_any_order_validate(rover, rover_problem):
    """The recorded body and alternative carry names that reverse the label
    order the offered ones have; a renaming of the body's own names is all
    that differs, so the step is legal."""
    cfg = initial_configuration(rover_problem.network, rover_problem.state, rover)
    ctx = make_context(rover, cfg)
    offered = exec_via_reduction(cfg, ctx, "A")[0]
    assert offered.body.method == "m1" and offered.alternatives[0].method == "m2"
    body = renamed(offered.body, {"1": "z3", "2": "z2", "3": "z1"})
    alternative = renamed(offered.alternatives[0], {"6": "y7", "7": "y6"}, (("L", "Q"),))
    step = apply(cfg, dc_replace(offered, body=body, alternatives=(alternative,)))
    assert validate_trace(Trace([Step("initial", config=cfg), step], ctx)) == []
    clash = renamed(offered.alternatives[0], {"6": "z3", "7": "y6"}, (("L", "Q"),))
    step = apply(cfg, dc_replace(offered, body=body, alternatives=(clash,)))
    assert validate_trace(Trace([Step("initial", config=cfg), step], ctx))


HIDING_DOMAIN = """\
domain hiding

operator go
  pre: p
  add:
  del:

operator ok
  pre:
  add:
  del:

method m1 top
  tasks:
    1: ok
"""


def test_an_initial_tree_that_hides_a_task_under_a_couple_is_rejected():
    """A forged initial tree hides the never-reduced action ``A`` under a
    couple ``X`` holding an untried body: ``A`` is stuck, so replay offers to
    replace it by ``m1``'s body, and only the initial check rejects the
    trace."""
    domain = parse_domain(HIDING_DOMAIN, "hiding").value
    problem = parse_problem("problem hiding\nstate:\ntasks:\n  A: go\n  B: ok\n", domain).value
    honest = initial_configuration(problem.network, problem.state, domain)
    m1 = relevant_method_bodies(Task("top"), domain, make_context(domain, honest).gen)[0]
    hidden = frozenset(lt for lt in problem.network.tasks if lt.label == "A")
    hiding = ReductionCouple("X", hidden, (m1,))
    forged = dc_replace(
        honest, couples=ReductionCouple(None, problem.network.tasks - hidden, (), (hiding,))
    )
    ctx = make_context(domain, forged)
    replacement = next(c for c in exec_all(forged, ctx) if c.kind == REPLACEMENT)
    assert replacement.describe() == "replacement X with m1 (complete)"
    steps = [Step("initial", config=forged), apply(forged, replacement, ctx)]
    assert validate_trace(Trace(steps, ctx)) == [
        "initial configuration is not its network's initial configuration"
    ]


def test_label_restriction_keeps_exactly_that_labels_choices(corpus_traces):
    for _, trace in corpus_traces:
        for step in trace.steps:
            cfg = step.config
            ctx = make_context(cfg.domain, cfg)
            for lt in primary_tasks(cfg.network, cfg.domain):
                for offer in (exec_via_action, exec_via_reduction):
                    whole = offer(cfg, ctx)
                    assert offer(cfg, ctx, label=lt.label) == tuple(
                        c for c in whole if c.label == lt.label
                    )


VALIDATE_CORPUS_SCRIPT = r"""
import json
from mutation_corpus import problem_lists
print(json.dumps(problem_lists()))
"""


def test_validation_problems_do_not_depend_on_string_hashing():
    tests = Path(__file__).parent
    path = os.pathsep.join((str(Path(htnact.__file__).parents[1]), str(tests)))
    outputs = set()
    for hash_seed in ("1", "2"):
        done = subprocess.run(
            [sys.executable, "-c", VALIDATE_CORPUS_SCRIPT],
            env=dict(os.environ, PYTHONPATH=path, PYTHONHASHSEED=hash_seed),
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert done.returncode == 0, done.stderr
        outputs.add(done.stdout)
    assert len(outputs) == 1
    assert len(json.loads(outputs.pop())) > 300
