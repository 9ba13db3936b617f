"""Desk-scale verification checklist.

Every check exercises one end-to-end property of the toolkit: chain and
tree dominance, path counts, composed-tree verdicts, redundancy and
substitution behaviour, engine trustworthiness, and the bench report.
Checks return structured results so the command line and the test suite
share one implementation.  Checks with a pinned wall-time bound fail
when they exceed it.
"""

from __future__ import annotations

import math
import random
import time
from typing import Callable, NamedTuple, Sequence

from .bench import COLUMNS, export_csv, fit_power_law, parse_csv, run_sweep, uncensored
from .counts import binary_var_count, binomial_var_count, count_paths
from .forge import (
    Closing,
    Closure,
    NamedLit,
    RedundancySpec,
    TreeSpec,
    build_binary_tree,
    build_binomial_tree,
    build_pair_chain,
    build_unit_chain,
    compose_two_trees,
)
from .formula import ROOT, Clause, build_formula, make_clause, slot_name
from .oracle import Verdict, brute_force_sat, dpll_sat, entails, is_dominant
from .resolution import (
    Budget,
    SaturationStatus,
    decision_chain_of,
    resolve,
    saturate,
)


class CheckResult(NamedTuple):
    name: str
    passed: bool
    details: str
    seconds: float


_CHECKS: list[tuple[str, float | None, Callable[[], tuple[bool, str]]]] = []


def _register(name: str, limit_seconds: float | None = None):
    def wrap(fn: Callable[[], tuple[bool, str]]):
        _CHECKS.append((name, limit_seconds, fn))
        return fn

    return wrap


def check_names() -> list[str]:
    return [name for name, _, _ in _CHECKS]


def run_checks(only: Sequence[str] | None = None) -> list[CheckResult]:
    if only is not None:
        unknown = [n for n in only if n not in check_names()]
        if unknown:
            raise ValueError(f"unknown checks: {', '.join(unknown)}")
    results = []
    for name, limit, fn in _CHECKS:
        if only is not None and name not in only:
            continue
        start = time.perf_counter()
        try:
            passed, details = fn()
        except Exception as exc:
            passed, details = False, f"raised {type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        if passed and limit is not None and elapsed > limit:
            passed = False
            details += f"; took {elapsed:.1f}s, over the {limit:.0f}s bound"
        results.append(CheckResult(name, passed, details, elapsed))
    return results


def format_report(results: Sequence[CheckResult]) -> str:
    lines = []
    for r in results:
        flag = "pass" if r.passed else "FAIL"
        lines.append(f"[{flag}] {r.name} ({r.seconds:.1f}s): {r.details}")
    failed = sum(1 for r in results if not r.passed)
    lines.append(f"{len(results)} checks, {len(results) - failed} passed, {failed} failed")
    return "\n".join(lines)


@_register("unit-chain-dominance", limit_seconds=1.0)
def _check_unit_chain() -> tuple[bool, str]:
    for k in range(2, 9):
        formula = build_unit_chain(k)
        root = formula.atlas.id_of(ROOT)
        result = saturate(formula)
        cid = result.clause_id(Clause((root,)))
        if cid is None:
            return False, f"k={k}: unit clause on the root never derived"
        length = len(decision_chain_of(result, cid).resolved)
        if length != k - 1:
            return False, f"k={k}: chain length {length}, expected {k - 1}"
        if not is_dominant(formula, root, oracle=brute_force_sat):
            return False, f"k={k}: enumeration does not confirm dominance"
        if not is_dominant(formula, root):
            return False, f"k={k}: dpll does not confirm dominance"
    return True, "k=2..8: root unit derived along a chain of k-1 variables; both oracles confirm dominance"


@_register("pair-chain-equivalence")
def _check_pair_chain() -> tuple[bool, str]:
    for k in range(2, 7):
        formula = build_pair_chain(k)
        root = formula.atlas.id_of(ROOT)
        if not dpll_sat(formula).is_sat:
            return False, f"k={k}: formula unexpectedly unsatisfiable"
        if not is_dominant(formula, root):
            return False, f"k={k}: root not dominant"
        if k >= 3:
            hop = formula.atlas.id_of("x3.1")
            link = Clause((root, hop))
            result = saturate(formula, Budget(max_clauses=20_000, max_steps=200_000, goal=link))
            cid = result.clause_id(link)
            if cid is None:
                return False, f"k={k}: two-hop link clause never derived"
            steps = len(decision_chain_of(result, cid).resolved)
            if steps != 3:
                return False, f"k={k}: two-hop link derived in {steps} steps, expected 3"
    return True, "k=2..6: satisfiable with dominant root; k>=3: two-hop link derived in exactly 3 steps"


@_register("path-counts", limit_seconds=5.0)
def _check_path_counts() -> tuple[bool, str]:
    for k in range(1, 25):
        for closure in (None, Closure("alias")) if k >= 2 else (None,):
            formula = build_binomial_tree(TreeSpec(k=k, closure=closure))
            root = formula.atlas.id_of(ROOT)
            # The alias writes the root literal into boundary row 1.
            ends = [root] if closure else []
            ends += [formula.atlas.id_of(slot_name(k + 1, row)) for row in range(len(ends) + 1, k + 2)]
            got = count_paths(formula, root)
            if got != {lit: math.comb(k, i) for i, lit in enumerate(ends)}:
                return False, f"k={k} closure {closure}: paths per row {[got.get(lit, 0) for lit in ends]}, {sum(got.values())} in all"
    for k in range(1, 11):
        formula = build_binary_tree(k)
        leaves = {formula.atlas.id_of(f"b{k}.{i}"): 1 for i in range(1, 2**k + 1)}
        if count_paths(formula, formula.atlas.id_of(ROOT)) != leaves:
            return False, f"binary k={k}: not one path to each of the {2**k} leaves"
    return True, "built binomial trees k=1..24, open and alias-closed: C(k, r-1) paths to row r, 2^k in all; built binary trees k=1..10: one path per leaf"


@_register("depth-formulas")
def _check_depth_formulas() -> tuple[bool, str]:
    for k in range(1, 31):
        tree = binomial_var_count(k)
        built = [(tree, build_binomial_tree(TreeSpec(k=k, closure=None)))]
        if k >= 2:
            built.append((tree - 1, build_binomial_tree(TreeSpec(k=k))))
            built += [(2 * tree - 3, compose_two_trees(k, closing)) for closing in Closing]
        if k <= 12:
            built.append((binary_var_count(k), build_binary_tree(k)))
        for want, formula in built:
            if formula.num_vars != want:
                return False, f"{formula.metadata}: {formula.num_vars} variables, closed form {want}"
    return True, "built binomial trees and compositions k<=30 and binary trees k<=12 have the closed-form variable counts"


@_register("two-tree-verdicts")
def _check_two_trees() -> tuple[bool, str]:
    failures = []
    for k in (2, 3, 4):
        for closing in (Closing.MATCHED, Closing.CROSSED):
            want = Verdict.UNSAT if closing is Closing.MATCHED else Verdict.SAT
            got = brute_force_sat(compose_two_trees(k, closing)).status
            if got is not want:
                failures.append(f"enumeration k={k} {closing} gave {got}")
    for k in range(2, 9):
        for closing in (Closing.MATCHED, Closing.CROSSED):
            want = Verdict.UNSAT if closing is Closing.MATCHED else Verdict.SAT
            got = dpll_sat(compose_two_trees(k, closing)).status
            if got is not want:
                failures.append(f"dpll k={k} {closing} gave {got}")
    for k in (2, 3, 4):
        result = saturate(compose_two_trees(k, Closing.MATCHED))
        if result.status is not SaturationStatus.EMPTY_DERIVED:
            failures.append(
                f"saturation matched k={k} ended {result.status} at default budgets "
                f"(store {len(result.store)}, steps {result.counters.steps})"
            )
    if failures:
        return False, "; ".join(failures)
    return True, "enumeration k=2..4 and dpll k=2..8 verdicts exact; matched saturation empty-derived k=2..4"


@_register("substitution-suite")
def _check_substitutions() -> tuple[bool, str]:
    closed = build_binomial_tree(TreeSpec(k=3, closure=Closure("alias")))
    if not is_dominant(closed, closed.atlas.id_of(ROOT), oracle=brute_force_sat):
        return False, "alias closure: root not dominant"
    opened = build_binomial_tree(TreeSpec(k=3, closure=None))
    if is_dominant(opened, opened.atlas.id_of(ROOT), oracle=brute_force_sat):
        return False, "no closure: root unexpectedly dominant"
    paired = build_binomial_tree(TreeSpec(
        k=3,
        closure=None,
        substitutions=(
            ("s4.2", NamedLit("z0")),
            ("s4.4", NamedLit("z0", negated=True)),
        ),
    ))
    if not is_dominant(paired, paired.atlas.id_of(ROOT), oracle=brute_force_sat):
        return False, "z/~z at two boundary slots: root not dominant"
    return True, "alias closure dominant; closure removed not dominant; z/~z at two boundary slots dominant again"


@_register("redundancy-entailment")
def _check_redundancy() -> tuple[bool, str]:
    for k in (3, 4):
        formula = build_binomial_tree(TreeSpec(k=k))
        baseline = dpll_sat(formula).status
        non_leaf = [(level, row) for level in range(1, k) for row in range(1, level + 1)]
        for level, row in non_leaf:
            seed = 100 * k + 10 * level + row
            spec = TreeSpec(k, redundancy=(RedundancySpec((level, row), 20, seed),))
            extended = build_binomial_tree(spec)
            extra = extended.clauses[formula.num_clauses :]
            if len(extra) != 20:
                return False, f"k={k} node ({level},{row}): got {len(extra)} clauses"
            for clause in extra:
                if not entails(formula, clause):
                    return False, f"k={k} node ({level},{row}): {clause} not entailed"
            if dpll_sat(extended).status is not baseline:
                return False, f"k={k} node ({level},{row}): verdict changed"
    return True, "k=3..4: 20 seeded clauses per non-leaf node, all entailed, verdicts unchanged"


@_register("implicit-decision")
def _check_implicit() -> tuple[bool, str]:
    via = "s5.2"
    closed = build_binomial_tree(TreeSpec(
        k=4, closure=Closure("alias"), implicit_nodes=(((2, 1), via),),
    ))
    entry = closed.atlas.id_of("s2.1")
    left = closed.atlas.id_of("s3.1")
    target = Clause(tuple(sorted((-entry, left), key=abs)))
    result = saturate(closed, Budget(max_clauses=50_000, max_steps=500_000, goal=target))
    cid = result.clause_id(target)
    if cid is None:
        return False, f"switching resolvent {target} not derived within 50k clauses"
    opened = build_binomial_tree(TreeSpec(
        k=4, closure=None, implicit_nodes=(((2, 1), via),),
    ))
    if is_dominant(opened, opened.atlas.id_of(ROOT), oracle=brute_force_sat):
        return False, "root stays dominant without the closure"
    return True, (
        f"switching resolvent ({target}) rebuilt through descendants at store id {cid}; "
        "removing the closure loses dominance"
    )


def _clause_true(clause, assignment: dict[int, bool]) -> bool:
    if clause is None:
        return True
    return any(assignment.get(abs(l), False) == (l > 0) for l in clause.lits)


@_register("engine-trustworthiness", limit_seconds=60.0)
def _check_engine() -> tuple[bool, str]:
    rng = random.Random(2024)

    for trial in range(1000):
        n = rng.randint(3, 20)
        pivot = rng.randint(1, n)
        sides = []
        for sign in (1, -1):
            pool = [v for v in range(1, n + 1) if v != pivot]
            extra = rng.sample(pool, rng.randint(0, min(3, len(pool))))
            sides.append(make_clause(
                [sign * pivot] + [v if rng.random() < 0.5 else -v for v in extra]
            ))
        first, second = sides
        resolvent = resolve(first, second, pivot)
        seen = sorted({abs(l) for l in first.lits} | {abs(l) for l in second.lits})
        for bits in range(1 << len(seen)):
            assignment = {v: bool(bits >> i & 1) for i, v in enumerate(seen)}
            if (_clause_true(first, assignment) and _clause_true(second, assignment)
                    and not _clause_true(resolvent, assignment)):
                return False, f"unsound resolvent on pair {trial}: {first} | {second}"

    found = 0
    attempts = 0
    while found < 200:
        attempts += 1
        if attempts > 10_000:
            return False, "could not collect 200 unsatisfiable formulas"
        n = rng.randint(4, 5)
        clauses = []
        for _ in range(8 * n):
            picked = rng.sample(range(1, n + 1), 3)
            clauses.append(make_clause([v if rng.random() < 0.5 else -v for v in picked]))
        formula = build_formula(clauses, n, None, {})
        if brute_force_sat(formula).status is not Verdict.UNSAT:
            continue
        found += 1
        if saturate(formula).status is not SaturationStatus.EMPTY_DERIVED:
            return False, f"refutation missed on an unsatisfiable {n}-variable formula"

    for trial in range(1000):
        n = rng.randint(1, 10)
        clauses = []
        for _ in range(rng.randint(1, 5 * n)):
            width = rng.randint(1, min(3, n))
            picked = rng.sample(range(1, n + 1), width)
            clause = make_clause([v if rng.random() < 0.5 else -v for v in picked])
            if clause is not None:
                clauses.append(clause)
        if not clauses:
            continue
        formula = build_formula(clauses, n, None, {})
        if brute_force_sat(formula).status is not dpll_sat(formula).status:
            return False, f"oracle disagreement on formula {trial}"

    return True, "1000 sound resolvents; 200 complete refutations; 1000 oracle agreements"


@_register("bench-report", limit_seconds=300.0)
def _check_bench() -> tuple[bool, str]:
    records = run_sweep(["binomial"], range(2, 13), repetitions=3)
    if len(records) != 33:
        return False, f"expected 33 records, got {len(records)}"
    first_rep = [r for r in records if r.repetition == 0]
    for prev, cur in zip(first_rep, first_rep[1:]):
        if cur.variables <= prev.variables or cur.clauses <= prev.clauses:
            return False, f"sizes not strictly increasing at k={cur.k}"
    outcomes = {}
    for r in records:
        outcomes.setdefault(r.k, set()).add((r.dpll_verdict, r.saturation_status, r.derived_clauses))
    for k, seen in outcomes.items():
        if len(seen) != 1:
            return False, f"results vary across repetitions at k={k}"
    if any(r.dpll_verdict != "sat" for r in records):
        return False, "unexpected dpll verdict in sweep"
    text = export_csv(records)
    lines = text.splitlines()
    if len(lines) != 34 or lines[0].split(",") != list(COLUMNS):
        return False, "csv not well-formed"
    recovered = parse_csv(text)
    def strip(r):
        return r._replace(saturation_seconds=0.0, dpll_seconds=0.0)
    if [strip(r) for r in recovered] != [strip(r) for r in records]:
        return False, "csv round trip lost non-timing fields"
    kept = uncensored(records)
    nodes_fit = fit_power_law([(r.variables, r.dpll_nodes) for r in records])
    derived_fit = fit_power_law([(r.variables, r.derived_clauses) for r in kept])
    if nodes_fit is None or derived_fit is None:
        return False, "scaling fit failed"
    return True, (
        f"33 runs, stable verdicts, csv round-trips; dpll nodes ~ n^{nodes_fit.exponent:.2f} "
        f"(residual {nodes_fit.residual:.3f}), derived clauses ~ n^{derived_fit.exponent:.2f} "
        f"(residual {derived_fit.residual:.3f}, fit over the {len(kept)} runs that did not stop "
        f"at the saturation budget; {33 - len(kept)} did)"
    )
