"""Acceptance checklist.

Each test runs one named check from the verification module and prints a
single pass/fail line, so the checklist reads the same here and under
`treesat verify`.
"""

from treesat.verify import run_checks


def _criterion(number: int, check: str) -> None:
    (result,) = run_checks(only=[check])
    flag = "pass" if result.passed else "FAIL"
    print(f"criterion {number:02d} [{flag}] {check} ({result.seconds:.1f}s): {result.details}")
    assert result.passed, f"{check}: {result.details}"


def test_criterion_01_chain_dominance():
    _criterion(1, "unit-chain-dominance")


def test_criterion_02_pair_chain_equivalence():
    _criterion(2, "pair-chain-equivalence")


def test_criterion_03_tree_path_counts():
    _criterion(3, "path-counts")


def test_criterion_04_depth_formulas():
    _criterion(4, "depth-formulas")


def test_criterion_05_composed_tree_verdicts():
    _criterion(5, "two-tree-verdicts")


def test_criterion_06_substitution_suite():
    _criterion(6, "substitution-suite")


def test_criterion_07_redundancy_entailment():
    _criterion(7, "redundancy-entailment")


def test_criterion_08_implicit_decision_clause():
    _criterion(8, "implicit-decision")


def test_criterion_10_engine_trustworthiness():
    _criterion(10, "engine-trustworthiness")


def test_criterion_11_bench_report():
    _criterion(11, "bench-report")
