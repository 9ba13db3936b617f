import pytest

import treesat.verify as verify
from treesat.verify import CheckResult, check_names, format_report, run_checks

EXPECTED_NAMES = [
    "unit-chain-dominance",
    "pair-chain-equivalence",
    "path-counts",
    "depth-formulas",
    "two-tree-verdicts",
    "substitution-suite",
    "redundancy-entailment",
    "implicit-decision",
    "engine-trustworthiness",
    "bench-report",
]


def test_registered_check_names():
    assert check_names() == EXPECTED_NAMES


def test_run_checks_rejects_unknown_names():
    with pytest.raises(ValueError, match="unknown checks: nonsense"):
        run_checks(only=["nonsense"])


def test_run_checks_filters_by_name():
    results = run_checks(only=["unit-chain-dominance", "substitution-suite"])
    assert [r.name for r in results] == ["unit-chain-dominance", "substitution-suite"]
    assert all(r.passed for r in results)
    assert all(r.seconds >= 0 for r in results)


def test_exceptions_become_named_failures(monkeypatch):
    def explode(k):
        raise RuntimeError("wired to fail")

    monkeypatch.setattr(verify, "build_unit_chain", explode)
    (result,) = run_checks(only=["unit-chain-dominance"])
    assert not result.passed
    assert result.details == "raised RuntimeError: wired to fail"


def test_time_limit_overrun_fails_the_check(monkeypatch):
    slow_clock = iter([0.0, 100.0, 100.0, 200.0])
    monkeypatch.setattr(verify.time, "perf_counter", lambda: next(slow_clock))
    (result,) = run_checks(only=["unit-chain-dominance"])
    assert not result.passed
    assert "over the 1s bound" in result.details


def test_format_report_layout():
    results = [
        CheckResult("alpha", True, "all good", 0.51),
        CheckResult("beta", False, "broke", 2.04),
    ]
    report = format_report(results)
    assert report.splitlines() == [
        "[pass] alpha (0.5s): all good",
        "[FAIL] beta (2.0s): broke",
        "2 checks, 1 passed, 1 failed",
    ]
