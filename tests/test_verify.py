from __future__ import annotations

from htnact.corpus import corpus
from htnact.verify import SuiteResult, suite_elimination


def test_elimination_failure_is_reported_not_raised():
    # corpus case 100046 samples traces whose rebuilt form cannot replay a
    # later replacement; the suite must report that as a failed case
    result = suite_elimination(corpus(1, 100046))
    assert isinstance(result, SuiteResult)
    assert not result.passed
    assert any("seed 100046" in d for d in result.details)
