import random

import pytest

from treesat import oracle
from treesat.forge import FAMILIES, build_unit_chain, compose_two_trees, Closing
from treesat.formula import Clause, build_formula, make_clause
from treesat.oracle import (
    BRUTE_FORCE_VAR_CAP,
    OracleVerdict,
    Verdict,
    _check_model,
    brute_force_sat,
    dpll_sat,
    entails,
    is_dominant,
)

UNSAT_TWO_VARS = build_formula(
    [Clause((1, 2)), Clause((1, -2)), Clause((-1, 2)), Clause((-1, -2))]
)


def all_models(formula, max_vars=20):
    """Yield every satisfying assignment in lexicographic order."""
    n = formula.num_vars
    if n > max_vars:
        raise ValueError(f"{n} variables exceeds the enumeration cap {max_vars}")
    lit_rows = [c.lits for c in formula.clauses]
    for m in range(1 << n):
        model = {i: bool(m >> (n - i) & 1) for i in range(1, n + 1)}
        if all(any(model[abs(l)] == (l > 0) for l in c) for c in lit_rows):
            yield model


def _simplify(clauses, lit):
    """Assign `lit` true: drop satisfied clauses, strip the complement.
    Returns None on an emptied clause (conflict)."""
    out = []
    for c in clauses:
        if lit in c:
            continue
        if -lit in c:
            reduced = tuple(l for l in c if l != -lit)
            if not reduced:
                return None
            out.append(reduced)
        else:
            out.append(c)
    return out


def reference_dpll(formula):
    """The earlier `dpll_sat`, which copies the clause list at every
    assignment; kept as the referee for the counts and models of the
    occurrence-list version."""
    nodes = propagations = 0
    trail = []
    # Untried branches as (clauses before the branch, trail length to
    # restore, branch literal); literal 0 is the root, which sets nothing.
    stack = [([c.lits for c in formula.clauses], 0, 0)]
    while stack:
        clauses, mark, lit = stack.pop()
        if lit:
            clauses = _simplify(clauses, lit)
            if clauses is None:
                continue
        del trail[mark:]
        if lit:
            trail.append(lit)
        nodes += 1
        # Units first (the first in clause order), then every pure literal,
        # until neither applies.  An empty clause is a conflict.
        while clauses is not None:
            short = next((c for c in clauses if len(c) < 2), None)
            if short is not None:
                if not short:
                    clauses = None
                    break
                forced = [short[0]]
            else:
                polarity = {}
                for c in clauses:
                    for l in c:
                        polarity[abs(l)] = polarity.get(abs(l), 0) | (1 if l > 0 else 2)
                forced = [v if p == 1 else -v for v, p in sorted(polarity.items()) if p != 3]
                if not forced:
                    break
            for l in forced:
                trail.append(l)
                propagations += 1
                clauses = _simplify(clauses, l)
        if clauses is None:
            continue
        if not clauses:
            model = dict.fromkeys(range(1, formula.num_vars + 1), False)
            model.update((abs(l), l > 0) for l in trail)
            _check_model(formula, model)
            return OracleVerdict(Verdict.SAT, model, nodes, propagations)
        var = min(abs(l) for c in clauses for l in c)
        stack.append((clauses, len(trail), -var))
        stack.append((clauses, len(trail), var))
    return OracleVerdict(Verdict.UNSAT, None, nodes, propagations)


def random_formula(rng, max_vars=10, max_clauses=25):
    n = rng.randint(2, max_vars)
    clauses = []
    for _ in range(rng.randint(1, max_clauses)):
        width = rng.randint(1, min(3, n))
        chosen = rng.sample(range(1, n + 1), width)
        clause = make_clause([v if rng.random() < 0.5 else -v for v in chosen])
        if isinstance(clause, Clause):
            clauses.append(clause)
    return build_formula(clauses, n)


def test_brute_force_first_model_golden():
    # The cyclic chain admits x1=True, x2=False, x3=False as its
    # lexicographically first model, reached at the fifth assignment.
    verdict = brute_force_sat(build_unit_chain(3))
    assert verdict.status is Verdict.SAT
    assert verdict.model == {1: True, 2: False, 3: False}
    assert verdict.nodes == 5


def test_brute_force_unsat_counts_all_assignments():
    verdict = brute_force_sat(UNSAT_TWO_VARS)
    assert verdict.status is Verdict.UNSAT
    assert verdict.model is None
    assert verdict.nodes == 4


def test_brute_force_crosses_chunk_boundary():
    # 22 variables spill past the 2**16 block size, so the outer loop
    # must run; the unit (x1) only holds in the upper half.
    f = build_formula([Clause((1,))], 22)
    verdict = brute_force_sat(f)
    assert verdict.model == {v: v == 1 for v in range(1, 23)}
    assert verdict.nodes == 2**21 + 1


def _split_formula(rng, n, extra=()):
    """Random clauses of width 1-3 over the variables on the outer bits of
    the brute-force sweep (1..n - _CHUNK_BITS), over those in its block,
    or over both, each literal of either sign."""
    cut = n - oracle._CHUNK_BITS
    outer, block = range(1, cut + 1), range(cut + 1, n + 1)
    clauses = list(extra)
    kinds = [(outer,)] + [(block, block), (outer, block), (outer, block, block)] * 3
    for _ in range(rng.randint(n // 2, n)):
        pools = rng.choice(kinds)
        chosen = {rng.choice(pool) for pool in pools}
        clause = make_clause(v if rng.random() < 0.5 else -v for v in chosen)
        if clause is not None:
            clauses.append(clause)
    return build_formula(clauses, n)


@pytest.mark.parametrize("n", [17, 18, 19, 20])
def test_brute_force_blocks_match_a_single_block(n, monkeypatch):
    # At 2**20 every n here fits one block, so there is no outer loop and
    # no clause is swept into the base ahead of it.
    rng = random.Random(n)
    formulas = [_split_formula(rng, n) for _ in range(12)]
    formulas.append(_split_formula(rng, n, [Clause(())]))
    formulas.append(_split_formula(rng, n, [Clause((n,)), Clause((-n,))]))  # base is 0
    blocked = [brute_force_sat(f) for f in formulas]
    # Some models are found past the first block.
    assert any(v.is_sat and v.nodes > 1 << oracle._CHUNK_BITS for v in blocked)
    monkeypatch.setattr(oracle, "_CHUNK_BITS", 20)
    assert [brute_force_sat(f) for f in formulas] == blocked


def test_check_model_counts_a_missing_variable_as_false():
    f = build_formula([Clause((1,)), Clause((-3,))], 3)
    _check_model(f, {1: True})
    with pytest.raises(AssertionError, match="model fails clause 2 3$"):
        _check_model(build_formula([Clause((1,)), Clause((2, 3))], 3), {1: True})


def test_brute_force_refuses_large_formulas():
    f = build_formula([Clause((1,))], BRUTE_FORCE_VAR_CAP + 1)
    with pytest.raises(ValueError):
        brute_force_sat(f)


def test_dpll_verdicts_on_tree_compositions():
    assert not dpll_sat(compose_two_trees(3, Closing.MATCHED)).is_sat
    assert dpll_sat(compose_two_trees(3, Closing.CROSSED)).is_sat


# (family, k) -> (status, nodes, propagations).  Pinned exactly, so any
# change to DPLL's propagation or branching order shows here.
DPLL_COUNTS = {
    ("unit-chain", 4): (Verdict.SAT, 1, 3),
    ("pair-chain", 6): (Verdict.SAT, 2, 5),
    ("binary", 4): (Verdict.SAT, 1, 15),
    ("binomial", 8): (Verdict.SAT, 2, 35),
    ("compose-matched", 3): (Verdict.UNSAT, 11, 22),
    ("compose-matched", 8): (Verdict.UNSAT, 31, 142),
    ("compose-crossed", 8): (Verdict.SAT, 9, 71),
    ("multi-branching", 3): (Verdict.SAT, 1, 12),
    ("compose-matched", 40): (Verdict.UNSAT, 159, 3278),
    ("compose-crossed", 40): (Verdict.SAT, 41, 1639),
    ("compose-matched", 80): (Verdict.UNSAT, 319, 12958),
}


def test_dpll_counts_nodes_and_propagations():
    for (family, k), expected in DPLL_COUNTS.items():
        verdict = dpll_sat(FAMILIES[family](k))
        assert (verdict.status, verdict.nodes, verdict.propagations) == expected, (family, k)


def _outcome(verdict):
    return (verdict.status, verdict.model, verdict.nodes, verdict.propagations)


def test_dpll_matches_the_reference_on_random_formulas():
    # Widths 2..4 with a few original units and empty clauses, so the
    # first-short-clause rule meets both before any branch.
    rng = random.Random(14)
    for case in range(600):
        n = rng.randint(1, 14)
        clauses = []
        for _ in range(rng.randint(0, 4 * n)):
            roll = rng.random()
            width = 0 if roll < 0.005 else 1 if roll < 0.03 else min(n, rng.randint(2, 4))
            chosen = rng.sample(range(1, n + 1), width)
            clause = make_clause([v if rng.random() < 0.5 else -v for v in chosen])
            if isinstance(clause, Clause):
                clauses.append(clause)
        f = build_formula(clauses, n)
        assert _outcome(dpll_sat(f)) == _outcome(reference_dpll(f)), case


def test_dpll_matches_the_reference_on_every_family():
    for family, build in FAMILIES.items():
        for k in range(2, 9):
            f = build(k)
            assert _outcome(dpll_sat(f)) == _outcome(reference_dpll(f)), (family, k)


def test_dpll_searches_deeper_than_the_recursion_limit():
    # 1,500 independent pairs (x|y)(~x|~y): no unit and no pure literal
    # anywhere, so every pair is one branch, each forcing its partner.
    clauses = []
    for x in range(1, 3001, 2):
        clauses += [Clause((x, x + 1)), Clause((-x, -(x + 1)))]
    f = build_formula(clauses)
    verdict = dpll_sat(f)
    assert verdict.is_sat
    assert all(any(verdict.model[abs(l)] == (l > 0) for l in c.lits) for c in clauses)
    assert (verdict.nodes, verdict.propagations) == (1501, 1500)


def test_oracles_agree_on_an_empty_clause():
    f = build_formula([Clause((1, 2)), Clause(())])
    assert not brute_force_sat(f).is_sat
    assert not dpll_sat(f).is_sat
    assert not is_dominant(f, 1)


def test_oracles_agree_on_random_formulas():
    rng = random.Random(11)
    for _ in range(150):
        f = random_formula(rng)
        assert brute_force_sat(f).status is dpll_sat(f).status


def test_brute_force_matches_model_enumeration():
    rng = random.Random(12)
    for _ in range(60):
        f = random_formula(rng, max_vars=8)
        models = list(all_models(f))
        verdict = brute_force_sat(f)
        if models:
            assert verdict.is_sat and verdict.model == models[0]
        else:
            assert not verdict.is_sat


def test_all_models_lexicographic_order():
    f = build_formula([Clause((1, 2))])
    assert list(all_models(f)) == [
        {1: False, 2: True},
        {1: True, 2: False},
        {1: True, 2: True},
    ]
    big = build_formula([Clause((1,))], 21)
    with pytest.raises(ValueError):
        next(all_models(big))


def test_is_dominant_detects_the_forced_root():
    chain = build_unit_chain(3)
    assert is_dominant(chain, 1)
    assert is_dominant(chain, 1, oracle=brute_force_sat)
    assert not is_dominant(chain, -1)
    assert not is_dominant(chain, 2)
    assert not is_dominant(chain, -2)


def test_is_dominant_edge_cases():
    assert not is_dominant(UNSAT_TWO_VARS, 1)
    for lit in (4, 0):
        with pytest.raises(ValueError):
            is_dominant(build_unit_chain(3), lit)


def test_entails_units_and_originals():
    chain = build_unit_chain(3)
    assert entails(chain, Clause((1,)))
    assert entails(chain, Clause((1, 2)))
    assert not entails(chain, Clause((2,)))
    assert not entails(chain, Clause((-1,)))
    with pytest.raises(ValueError):
        entails(chain, Clause((9,)))


def test_entailment_is_consistent_with_model_enumeration():
    rng = random.Random(13)
    for _ in range(40):
        f = random_formula(rng, max_vars=7)
        chosen = rng.sample(range(1, f.num_vars + 1), 2)
        clause = make_clause([v if rng.random() < 0.5 else -v for v in chosen])
        if not isinstance(clause, Clause):
            continue
        by_models = all(
            any(m[abs(l)] == (l > 0) for l in clause.lits) for m in all_models(f)
        )
        assert entails(f, clause) == by_models
