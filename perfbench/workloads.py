"""The benchmark's workloads.

Each `build_*` function takes the freshly imported package, the Api the
operations call it through, and the workload seed, and returns the
inputs it made in set-up: a list of operations, each run once per pass,
and checks on the inputs themselves.  An operation's `run` calls the
package and returns its outputs; its `check` verifies them with
`checks` and returns counts for the report: `refute_steps` feeds the
end-to-end `steps_to_refute`, `root_unit_id` the per-layer metric of
that name.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable

from checks import (
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

ROOT = 1  # every generator registers the root variable first

REFUTE_KS = range(2, 9)

# The sweep budget of `treesat bench`.
SWEEP_MAX_CLAUSES = 20_000
SWEEP_MAX_STEPS = 200_000
DOMINANCE_KS = range(3, 13)
REDUNDANT_KS = (4, 6, 8, 10, 12)
REDUNDANCY_NODE = (1, 1)
REDUNDANCY_COUNT = 4
OPEN_K = 3

DECIDE_K = 40
BRUTE_KS = (3, 4)
# Independent pairs (x|y)(~x|~y): satisfiable, but deeper than Python's
# recursion limit for a DPLL that recurses once per branch.
DEEP_PAIRS = 1500


@dataclass
class Op:
    label: str
    run: Callable[[], dict]
    check: Callable[[dict], dict]
    timed: bool = True  # counted in wall_s


@dataclass
class Inputs:
    ops: list[Op]
    checks: list[Callable[[], None]] = field(default_factory=list)


def _steps(result) -> list[tuple[int, int, int, int]]:
    return [(s.left, s.right, s.var, s.result) for s in result.trace]


# ---------------------------------------------------------------------------
# refute: saturate the matched composition to the empty clause, then find
# it, take its decision chain and replay the trace, as
# `treesat saturate --chain --trace` does.  The compositions are fixed;
# the seed does not enter.


def _refute_op(ts, api, k: int, formula) -> Op:
    empty = ts.Clause(())
    originals = clause_lits(formula)

    def run() -> dict:
        result = api.saturate(formula)
        empty_id = api.clause_id(result, empty)
        chain = api.decision_chain_of(result, empty_id)
        replayed = api.replay_trace(formula, result.trace)
        return {"result": result, "empty_id": empty_id, "chain": chain, "replayed": replayed}

    def check(out: dict) -> dict:
        result = out["result"]
        stored = [c.lits for c in result.store]
        steps = _steps(result)
        check_refutation(originals, steps, stored)
        if out["empty_id"] != steps[-1][3]:
            raise CheckFailed(f"k={k}: clause_id gives {out['empty_id']}, not the empty clause")
        check_chain(steps, len(originals), out["empty_id"], out["chain"].resolved)
        if [c.lits for c in out["replayed"]] != stored:
            raise CheckFailed(f"k={k}: replay_trace does not rebuild the store")
        return {"refute_steps": result.counters.steps}

    return Op(f"matched-{k}", run, check)


def build_refute(ts, api, seed: int) -> Inputs:
    inputs = Inputs([])
    for k in REFUTE_KS:
        formula = api.compose_two_trees(k, ts.Closing.MATCHED)
        inputs.ops.append(_refute_op(ts, api, k, formula))
        inputs.checks.append(
            lambda k=k, f=formula: check_size(
                f"compose-matched k={k}", f, expected_composition_size(k)
            )
        )
    return inputs


# ---------------------------------------------------------------------------
# dominance: is_dominant_by_resolution on the root of closed trees at the
# sweep budget, plus one open tree whose root is not dominant.  The seed
# picks the entailed redundancy clauses of the REDUNDANT_KS trees.


def _dominance_op(api, budget, k: int, formula, closed: bool) -> Op:
    originals = clause_lits(formula)

    def run() -> dict:
        verdict = api.is_dominant_by_resolution(formula, ROOT, budget)
        return {"verdict": str(verdict), "result": api.take_saturation()}

    def check(out: dict) -> dict:
        if not closed:
            if out["verdict"] == "dominant":
                raise CheckFailed(f"open k={k}: the root is reported dominant")
            return {}
        check_verdict(f"closed k={k}", out["verdict"], "dominant")
        result = out["result"]
        stored = [c.lits for c in result.store]
        try:
            unit_id = stored.index((ROOT,))
        except ValueError:
            raise CheckFailed(f"closed k={k}: the root unit is not in the store") from None
        check_unit_derivation(originals, _steps(result), stored, unit_id, ROOT)
        return {"refute_steps": result.counters.steps, "root_unit_id": unit_id}

    return Op(f"{'closed' if closed else 'open'}-{k}", run, check)


def _open_root_false_model(formula) -> None:
    """Root false with every slot true satisfies the open tree, so its
    root is not dominant."""
    model = {v: v != ROOT for v in range(1, formula.num_vars + 1)}
    check_model(f"open k={OPEN_K}", clause_lits(formula), formula.num_vars, model)


def build_dominance(ts, api, seed: int) -> Inputs:
    budget = ts.Budget(max_clauses=SWEEP_MAX_CLAUSES, max_steps=SWEEP_MAX_STEPS)
    rng = random.Random(seed)
    inputs = Inputs([])
    for k in DOMINANCE_KS:
        extra = REDUNDANCY_COUNT if k in REDUNDANT_KS else 0
        redundancy = (
            (ts.RedundancySpec(REDUNDANCY_NODE, extra, rng.randrange(2**32)),) if extra else ()
        )
        formula = api.build_binomial_tree(ts.TreeSpec(k=k, redundancy=redundancy))
        inputs.ops.append(_dominance_op(api, budget, k, formula, closed=True))
        inputs.checks.append(
            lambda k=k, f=formula, extra=extra: check_size(
                f"closed k={k}", f, expected_tree_size(k, closed=True, extra=extra)
            )
        )
    open_tree = api.build_binomial_tree(ts.TreeSpec(k=OPEN_K, closure=None))
    inputs.ops.append(_dominance_op(api, budget, OPEN_K, open_tree, closed=False))
    inputs.checks += [
        lambda: check_size(f"open k={OPEN_K}", open_tree, expected_tree_size(OPEN_K, closed=False)),
        lambda: _open_root_false_model(open_tree),
    ]
    return inputs


# ---------------------------------------------------------------------------
# decide: generate, write and parse DIMACS, then decide with DPLL (and
# brute force where it fits).  No resolution runs here.  The formulas are
# fixed; the seed does not enter.


def _round_trip(api, formula) -> tuple[str, object]:
    text = api.write_dimacs(formula)
    return text, api.parse_dimacs(text)


def _check_round_trip(ts, label: str, out: dict, expected_size) -> None:
    check_size(label, out["formula"], expected_size)
    parsed = out["parsed"]
    check_dimacs(label, out["formula"], out["text"], parsed, ts.write_dimacs(parsed))


def _check_decision(label: str, formula, verdict, expected: str) -> None:
    check_verdict(label, str(verdict.status), expected)
    if expected == "sat":
        check_model(label, clause_lits(formula), formula.num_vars, verdict.model)


def _composition_op(ts, api, closing: str) -> Op:
    label = f"{closing}-{DECIDE_K}"

    def run() -> dict:
        formula = api.compose_two_trees(DECIDE_K, ts.Closing(closing))
        text, parsed = _round_trip(api, formula)
        return {"formula": formula, "text": text, "parsed": parsed, "verdict": api.dpll_sat(parsed)}

    def check(out: dict) -> dict:
        _check_round_trip(ts, label, out, expected_composition_size(DECIDE_K))
        verdict = out["verdict"]
        _check_decision(label, out["formula"], verdict, "unsat" if closing == "matched" else "sat")
        return {"refute_steps": verdict.nodes} if closing == "matched" else {}

    return Op(label, run, check)


def _tree_op(ts, api) -> Op:
    label = f"closed-{DECIDE_K}"

    def run() -> dict:
        formula = api.build_binomial_tree(ts.TreeSpec(k=DECIDE_K))
        text, parsed = _round_trip(api, formula)
        dominant = api.is_dominant(parsed, ROOT, oracle=api.dpll_sat)
        return {"formula": formula, "text": text, "parsed": parsed, "dominant": dominant}

    def check(out: dict) -> dict:
        _check_round_trip(ts, label, out, expected_tree_size(DECIDE_K, closed=True))
        check_verdict(label, out["dominant"], True)
        return {}

    return Op(label, run, check)


def _brute_op(ts, api, k: int, closing: str) -> Op:
    label = f"brute-{closing}-{k}"

    def run() -> dict:
        formula = api.compose_two_trees(k, ts.Closing(closing))
        return {"formula": formula, "verdict": api.brute_force_sat(formula)}

    def check(out: dict) -> dict:
        check_size(label, out["formula"], expected_composition_size(k))
        expected = "unsat" if closing == "matched" else "sat"
        _check_decision(label, out["formula"], out["verdict"], expected)
        return {}

    return Op(label, run, check)


def _deep_pairs_op(api, formula) -> Op:
    def run() -> dict:
        return {"verdict": api.dpll_sat(formula)}

    def check(out: dict) -> dict:
        _check_decision("deep-pairs", formula, out["verdict"], "sat")
        return {}

    return Op("deep-pairs", run, check, timed=False)


def build_decide(ts, api, seed: int) -> Inputs:
    pairs = []
    for i in range(DEEP_PAIRS):
        x, y = 2 * i + 1, 2 * i + 2
        pairs += [ts.make_clause([x, y]), ts.make_clause([-x, -y])]
    deep = ts.build_formula(pairs, num_vars=2 * DEEP_PAIRS)
    ops = [_composition_op(ts, api, c) for c in ("matched", "crossed")]
    ops.append(_tree_op(ts, api))
    ops += [_brute_op(ts, api, k, c) for k in BRUTE_KS for c in ("matched", "crossed")]
    ops.append(_deep_pairs_op(api, deep))
    return Inputs(ops)


WORKLOADS = {"refute": build_refute, "dominance": build_dominance, "decide": build_decide}
