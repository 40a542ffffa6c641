"""Replay by membership: a recorded step is legal exactly when its
predecessor offers it, found by equality.  A run lineage names a task's
bodies once, so every offer of a reduction carries the same names, and
those names are fresh.

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
    ordered_alternatives,
    primary_tasks,
)
from htnact.corpus import corpus
from htnact.model import Task
from htnact.reduction import relevant_method_bodies
from htnact.syntax import parse_domain, parse_problem
from htnact.trace import DefaultStrategy, Trace, reachable, run, validate_trace
from mutation_corpus import mutants, renamed, sources
from test_search import transmits

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
    trace = run(cfg, DefaultStrategy())
    steps = trace.steps
    assert steps[2].describe() == "reduction A with m1"
    m3 = next(s.body for s in steps if s.kind == REDUCTION and s.body.method == "m3")
    forged = apply(steps[1].config, Choice(REDUCTION, "A", steps[2].task, body=m3))
    problems = validate_trace(Trace(steps[:2] + [forged], trace.ctx))
    assert len(problems) == 1 and problems[0].startswith("step 2 (reduction A with m3)")


def test_a_reduction_under_other_fresh_names_is_rejected(rover, rover_problem):
    """A lineage names a task's bodies once, so a reduction whose body or
    alternative carries any other fresh names is not the one offered, even
    where only a renaming of the body's own names differs."""
    cfg = initial_configuration(rover_problem.network, rover_problem.state, rover)
    ctx = make_context(rover, cfg)
    offered = exec_via_reduction(cfg, ctx, "A")[0]
    assert offered.body.method == "m1" and offered.alternatives[0].method == "m2"

    def problems(body, alternative) -> list[str]:
        step = apply(cfg, dc_replace(offered, body=body, alternatives=(alternative,)))
        return validate_trace(Trace([Step("initial", config=cfg), step], ctx))

    body, (alternative,) = offered.body, offered.alternatives
    assert problems(body, alternative) == []
    forged = [
        (renamed(body, {"1": "z3", "2": "z2", "3": "z1"}), alternative),
        (body, renamed(alternative, {"6": "y7", "7": "y6"}, (("L", "Q"),))),
        (body, renamed(alternative, {}, (("L", "Q"),))),
    ]
    for pair in forged:
        assert pair != (body, alternative)
        found = problems(*pair)
        assert len(found) == 1 and found[0].startswith("step 1 (reduction A with m1)"), found


def lineage_tables(rover):
    """Each start's lineage table after ``reachable`` walked it, with every
    reduction the walk was offered: two rover transmits and corpus cases."""
    starts = [(transmits(rover, 2), rover)] + [(c, c.domain) for c in corpus(30, 0)]
    for problem, domain in starts:
        cfg0 = initial_configuration(problem.network, problem.state, domain)
        ctx = make_context(domain, cfg0)
        offers = [
            choice
            for _, _, choices, _ in reachable(cfg0, ctx)
            for choice in choices
            if choice.kind == REDUCTION
        ]
        yield cfg0, ctx.reductions, offers


def test_every_offer_of_a_task_carries_the_same_bodies(rover):
    """A lineage names a task's bodies on its first offer; every later
    offer, on any branch, carries the recorded ones."""
    _, table, offers = next(lineage_tables(rover))
    carried: dict = {}
    for choice in offers:
        bodies = ordered_alternatives((choice.body,) + choice.alternatives)
        carried.setdefault((choice.label, choice.task), set()).add(bodies)
    assert len(offers) > 2 * len(carried) > 0
    assert {key: found.pop() for key, found in carried.items() if len(found) == 1} == table


def test_no_name_is_shared_by_two_entries_of_a_lineage_table(rover):
    """Every label and fresh variable of a recorded body is its own: no
    other body of its entry, no other entry and no initial configuration
    names it (what replay used to check at every step)."""
    entries = 0
    for cfg0, table, _ in lineage_tables(rover):
        entries += len(table)
        owner: dict = {("label", label): None for label in cfg0.network.labels}
        owner.update((("variable", v.name), None) for v in cfg0.network.variables)
        for (label, task), bodies in table.items():
            for body in bodies:
                names = [("label", name) for name in body.network.labels]
                names += [
                    ("variable", v.name) for v in body.network.variables - task.variables
                ]
                for name in names:
                    assert owner.setdefault(name, (label, body)) == (label, body), name
    assert entries > 20


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
