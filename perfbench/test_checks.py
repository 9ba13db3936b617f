"""Each benchmark check accepts the program's genuine output and rejects
a corrupted copy of it; per-layer metrics come out of spans as stated.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import treesat as ts  # noqa: E402
from checks import (  # noqa: E402
    CheckFailed,
    check_chain,
    check_dimacs,
    check_model,
    check_refutation,
    check_size,
    check_unit_derivation,
    check_verdict,
    clause_lits,
    expected_composition_size,
    expected_tree_size,
)
from tracing import layer_metrics  # noqa: E402


def _steps(result):
    return [(s.left, s.right, s.var, s.result) for s in result.trace]


@pytest.fixture(scope="module")
def refutation():
    formula = ts.compose_two_trees(2, ts.Closing.MATCHED)
    result = ts.saturate(formula)
    return clause_lits(formula), _steps(result), [c.lits for c in result.store], result


def test_refutation_accepts_the_genuine_trace(refutation):
    originals, steps, stored, _ = refutation
    check_refutation(originals, steps, stored)


@pytest.mark.parametrize("field", [0, 1, 2])
def test_refutation_rejects_a_tampered_step(refutation, field):
    originals, steps, stored, _ = refutation
    tampered = list(steps)
    i = len(tampered) // 2
    step = list(tampered[i])
    step[field] = step[field] + 1 if field == 2 else step[1 - field]
    tampered[i] = tuple(step)
    with pytest.raises(CheckFailed):
        check_refutation(originals, tampered, stored)


def test_refutation_rejects_a_tampered_store(refutation):
    originals, steps, stored, _ = refutation
    tampered = list(stored)
    last = steps[-1][3]
    tampered[last] = (1,)
    with pytest.raises(CheckFailed):
        check_refutation(originals, steps, tampered)


def test_refutation_rejects_a_trace_that_stops_short(refutation):
    originals, steps, stored, _ = refutation
    with pytest.raises(CheckFailed):
        check_refutation(originals, steps[:-1], stored)


def test_chain_accepts_the_genuine_chain_and_rejects_a_changed_one(refutation):
    originals, steps, _, result = refutation
    empty_id = steps[-1][3]
    resolved = ts.decision_chain_of(result, empty_id).resolved
    check_chain(steps, len(originals), empty_id, resolved)
    with pytest.raises(CheckFailed):
        check_chain(steps, len(originals), empty_id, resolved[::-1])


def test_unit_derivation_accepts_the_root_unit_and_rejects_a_tampered_step():
    formula = ts.build_binomial_tree(ts.TreeSpec(k=3))
    result = ts.saturate(formula, ts.Budget(max_clauses=2_000, max_steps=20_000))
    stored = [c.lits for c in result.store]
    unit_id = stored.index((1,))
    steps = _steps(result)
    originals = clause_lits(formula)
    check_unit_derivation(originals, steps, stored, unit_id, 1)
    with pytest.raises(CheckFailed):
        check_unit_derivation(originals, steps, stored, unit_id, -1)
    tampered = [(l, r, v + 1, res) if res == unit_id else (l, r, v, res) for l, r, v, res in steps]
    with pytest.raises(CheckFailed):
        check_unit_derivation(originals, tampered, stored, unit_id, 1)


def test_model_check_rejects_a_wrong_model():
    formula = ts.compose_two_trees(3, ts.Closing.CROSSED)
    verdict = ts.dpll_sat(formula)
    clauses = clause_lits(formula)
    check_model("crossed", clauses, formula.num_vars, verdict.model)
    for var in range(1, formula.num_vars + 1):
        flipped = dict(verdict.model)
        flipped[var] = not flipped[var]
        try:
            check_model("crossed", clauses, formula.num_vars, flipped)
        except CheckFailed:
            break
    else:
        pytest.fail("no single flip was rejected")
    partial = {v: b for v, b in verdict.model.items() if v != formula.num_vars}
    with pytest.raises(CheckFailed):
        check_model("crossed", clauses, formula.num_vars, partial)


def test_open_tree_root_false_model_is_checked():
    open_tree = ts.build_binomial_tree(ts.TreeSpec(k=3, closure=None))
    closed = ts.build_binomial_tree(ts.TreeSpec(k=3))
    for formula, ok in ((open_tree, True), (closed, False)):
        model = {v: v != 1 for v in range(1, formula.num_vars + 1)}
        if ok:
            check_model("open", clause_lits(formula), formula.num_vars, model)
        else:
            with pytest.raises(CheckFailed):
                check_model("closed", clause_lits(formula), formula.num_vars, model)


def test_verdict_check_rejects_a_wrong_verdict():
    verdict = ts.dpll_sat(ts.compose_two_trees(3, ts.Closing.MATCHED))
    check_verdict("matched", str(verdict.status), "unsat")
    with pytest.raises(CheckFailed):
        check_verdict("matched", "sat", "unsat")
    with pytest.raises(CheckFailed):
        check_verdict("closed", "budget-exhausted", "dominant")


@pytest.mark.parametrize("k", [2, 3, 5])
def test_sizes_match_the_generators_and_reject_a_wrong_size(k):
    composition = ts.compose_two_trees(k, ts.Closing.MATCHED)
    check_size("compose", composition, expected_composition_size(k))
    check_size("tree", ts.build_binomial_tree(ts.TreeSpec(k=k)), expected_tree_size(k, closed=True))
    open_tree = ts.build_binomial_tree(ts.TreeSpec(k=k, closure=None))
    check_size("open", open_tree, expected_tree_size(k, closed=False))
    with pytest.raises(CheckFailed):
        check_size("compose", composition, expected_composition_size(k + 1))
    short = ts.CnfFormula(composition.clauses[:-1], composition.num_vars, composition.atlas)
    with pytest.raises(CheckFailed):
        check_size("compose", short, expected_composition_size(k))


def test_dimacs_check_rejects_a_changed_round_trip():
    formula = ts.build_binomial_tree(ts.TreeSpec(k=4))
    text = ts.write_dimacs(formula)
    parsed = ts.parse_dimacs(text)
    check_dimacs("tree", formula, text, parsed, ts.write_dimacs(parsed))
    with pytest.raises(CheckFailed):
        check_dimacs("tree", formula, text, parsed, text.replace("c meta k 4", "c meta k 5"))
    changed = ts.CnfFormula(parsed.clauses[1:], parsed.num_vars, parsed.atlas, parsed.metadata)
    with pytest.raises(CheckFailed):
        check_dimacs("tree", formula, text, changed, text)


def test_layer_metrics_keep_the_deep_pairs_call_out_of_dpll():
    setup = [["forge.compose_two_trees", 0.0, 0.5, -1, {"clauses": 100}]]
    one_pass = [
        ["op.matched-40", 1.0, 4.0, -1, {"refute_steps": 159}],
        ["oracle.dpll_sat", 1.0, 2.0, 0, {"nodes": 10, "propagations": 40}],
        ["op.deep-pairs", 4.0, 7.0, -1, {}],
        ["oracle.dpll_sat", 4.0, 7.0, 2, {}],
    ]
    metrics = layer_metrics(setup, [one_pass])
    assert metrics["forge.build_s"] == 0.5
    assert metrics["forge.clauses_per_s"] == 200
    assert metrics["oracle.dpll_s"] == 1.0
    assert metrics["oracle.deep_pairs_s"] == 3.0
    assert metrics["oracle.dpll_nodes"] == 10
    assert metrics["oracle.us_per_propagation"] == 25_000
    assert metrics["resolution.saturate_s"] == 0


def test_run_refuses_a_directory_without_the_sources(tmp_path):
    ignore = shutil.ignore_patterns("out", "__pycache__")
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=ignore)
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    args = ["--workload", "refute", "--seed", "1", "--seconds", "1"]
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
