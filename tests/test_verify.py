from __future__ import annotations

import pytest

from htnact.corpus import corpus
from htnact.oracle import solutions_bounded
from htnact.verify import (
    SuiteResult,
    check_equivalence,
    check_sequence_elimination,
    suite_elimination,
)
from test_search import transmits

REWRITE_FAILURE = "elimination failed: no offered execution matches (offered for T1: nothing)"


def test_elimination_failure_is_reported_not_raised():
    # corpus case 100046 samples traces whose rebuilt form cannot replay a
    # later replacement; the suite must report that as a failed case
    result = suite_elimination(corpus(1, 100046))
    assert isinstance(result, SuiteResult)
    assert not result.passed
    assert any("seed 100046" in d for d in result.details)


@pytest.mark.parametrize("seed, failures", [(100046, 2), (300026, 3)])
def test_sequence_elimination_holds_where_the_trace_rewrite_fails(seed, failures):
    """Forbidding complete replacements loses no action sequence on the two
    cases whose sampled traces ``eliminate_complete_replacements`` cannot
    rebuild; the suite counts the sequence check and still reports each
    failed rewrite."""
    (case,) = corpus(1, seed)
    assert check_sequence_elimination(case.network, case.state, case.domain) is None
    result = suite_elimination([case])
    assert not result.passed
    assert result.checked == failures + 1
    assert result.details == [f"seed {seed}: {REWRITE_FAILURE}"] * failures


@pytest.mark.parametrize("seed", [0, 100000, 200000, 300000])
def test_sequence_elimination_holds_on_the_scan(seed):
    """The gate ``acting_solution_set`` rests on: on each of the 300 cases
    the complete-replacement-free search finds every sequence."""
    failures = [
        f"seed {case.seed}: {problem}"
        for case in corpus(300, seed)
        if (problem := check_sequence_elimination(case.network, case.state, case.domain))
    ]
    assert failures == []


@pytest.mark.parametrize("calibrated, sequences", [(True, 54), (False, 108)])
def test_acting_equals_planning_on_three_transmits(rover, calibrated, sequences):
    problem = transmits(rover, 3, calibrated)
    assert check_equivalence(problem.network, problem.state, rover, depth=6) is None
    assert len(solutions_bounded(problem.network, problem.state, rover, 6)) == sequences
