import hashlib
import heapq
import random
import re

import pytest

from treesat.bench import default_sweep_budget
from treesat.forge import (
    FAMILIES,
    Closing,
    TreeSpec,
    build_binomial_tree,
    build_unit_chain,
    compose_two_trees,
)
from treesat.formula import (
    ROOT, Clause, build_formula, make_clause,
)
from treesat.oracle import brute_force_sat, dpll_sat, entails
from treesat.resolution import (
    DEFAULT_MAX_CLAUSES,
    DEFAULT_MAX_STEPS,
    Budget,
    ResolutionDominance,
    ResolutionStep,
    SaturationCounters,
    SaturationStatus,
    decision_chain_of,
    export_chain_dot,
    export_trace,
    is_dominant_by_resolution,
    replay_trace,
    resolve,
    saturate,
)


def test_resolve_produces_canonical_resolvent():
    assert resolve(Clause((1, 2)), Clause((-2, 3)), 2) == Clause((1, 3))
    assert resolve(Clause((-2, 3)), Clause((1, 2)), 2) == Clause((1, 3))
    assert resolve(Clause((1,)), Clause((-1,)), 1) == Clause(())


def test_resolve_detects_tautologies_and_bad_parents():
    assert resolve(Clause((1, 2)), Clause((-1, -2)), 1) is None
    with pytest.raises(ValueError):
        resolve(Clause((1, 2)), Clause((2, 3)), 2)
    with pytest.raises(ValueError):
        resolve(Clause((1, 2)), Clause((-2, 3)), 1)


def _random_clause(rng: random.Random) -> Clause:
    variables = rng.sample(range(1, 7), rng.randint(1, 5))
    return make_clause([v if rng.random() < 0.5 else -v for v in variables])


def _random_formula(rng: random.Random, min_vars: int, max_vars: int, max_width: int):
    """n in min_vars..max_vars variables, 2..3n clauses of widths
    1..max_width, tautologies dropped."""
    n = rng.randint(min_vars, max_vars)
    clauses = [
        make_clause([v if rng.random() < 0.5 else -v
                     for v in rng.sample(range(1, n + 1), rng.randint(1, min(n, max_width)))])
        for _ in range(rng.randint(2, 3 * n))
    ]
    return build_formula([c for c in clauses if c is not None], n)


def reference_saturate(formula, budget):
    """`saturate`'s policy restated on frozensets with plain scans: goal
    atoms lowest in the atom order, width-then-id selection, a given clause
    skipped when a stored proper subset exists, the processed clauses it
    properly subsumes withdrawn, partners whose greatest literal is the
    complement of its own in ascending id, resolvents dropped as tautology,
    over-width, duplicate or subsumed in that order, and both budgets."""
    goal = frozenset(budget.goal.lits) if budget.goal is not None else frozenset()
    goal_atoms = {abs(lit) for lit in goal}

    def greatest(clause):
        return max(clause, key=lambda lit: (abs(lit) not in goal_atoms, abs(lit)))

    max_width = formula.num_vars if budget.max_width is None else budget.max_width
    store = [frozenset(c.lits) for c in formula.clauses]
    unprocessed = [(len(c), i) for i, c in enumerate(store)]
    heapq.heapify(unprocessed)
    live, trace = [], []
    steps = tautologies = duplicates = over_width = subsumed = retired = 0
    status, stopped_by = "saturated", None
    if any(c <= goal for c in store):
        status = "empty-derived" if frozenset() in store else "goal-derived"
    while status == "saturated" and unprocessed:
        if len(store) >= budget.max_clauses:
            status, stopped_by = "budget-exhausted", "max_clauses"
            break
        g = heapq.heappop(unprocessed)[1]
        if any(c < store[g] for c in store):
            retired += 1
            continue
        retired += sum(store[g] < store[j] for j in live)
        live = [j for j in live if not store[g] < store[j]]
        top = greatest(store[g])
        for j in sorted(j for j in live if greatest(store[j]) == -top):
            if steps >= budget.max_steps:
                status, stopped_by = "budget-exhausted", "max_steps"
                break
            steps += 1
            resolvent = (store[g] | store[j]) - {top, -top}
            if any(-lit in resolvent for lit in resolvent):
                tautologies += 1
            elif len(resolvent) > max_width:
                over_width += 1
            elif resolvent in store:
                duplicates += 1
            elif any(c < resolvent for c in store):
                subsumed += 1
            else:
                store.append(resolvent)
                heapq.heappush(unprocessed, (len(resolvent), len(store) - 1))
                trace.append(ResolutionStep(min(j, g), max(j, g), abs(top), len(store) - 1))
                if resolvent <= goal:
                    status = "goal-derived" if resolvent else "empty-derived"
                    break
                if len(store) >= budget.max_clauses:
                    status, stopped_by = "budget-exhausted", "max_clauses"
                    break
        live.append(g)
    if status == "saturated" and over_width:
        status, stopped_by = "budget-exhausted", "max_width"
    counters = SaturationCounters(
        steps, len(trace), tautologies, duplicates, over_width, subsumed, retired
    )
    return status, stopped_by, counters, tuple(trace), store


def _renumbered(formula, seed: int):
    """The formula with its variable ids permuted by a seeded shuffle, so
    that saturation meets the same clauses in another atom order."""
    ids = list(range(1, formula.num_vars + 1))
    random.Random(seed).shuffle(ids)
    new = dict(zip(range(1, formula.num_vars + 1), ids))
    clauses = [make_clause([new[l] if l > 0 else -new[-l] for l in c.lits]) for c in formula.clauses]
    return build_formula(clauses, formula.num_vars)


def test_resolve_agrees_with_the_literal_merge_reference():
    rng = random.Random(7)
    for _ in range(2000):
        c1, c2 = _random_clause(rng), _random_clause(rng)
        for var in range(1, 7):
            if var in c1.lits and -var in c2.lits:
                pos, neg = c1, c2
            elif var in c2.lits and -var in c1.lits:
                pos, neg = c2, c1
            else:
                continue
            expected = make_clause(
                [l for l in pos.lits if l != var] + [l for l in neg.lits if l != -var]
            )
            assert resolve(c1, c2, var) == expected


def test_saturate_unit_pair_derives_empty_clause():
    result = saturate(build_formula([Clause((1,)), Clause((-1,))]))
    assert result.status is SaturationStatus.EMPTY_DERIVED
    assert result.store == (Clause((1,)), Clause((-1,)), Clause(()))
    assert result.trace == (ResolutionStep(0, 1, 1, 2),)
    assert result.clause_id(Clause(())) == 2


def test_saturate_unit_chain_reaches_fixpoint():
    result = saturate(build_unit_chain(3))
    assert result.status is SaturationStatus.SATURATED
    assert result.n_original == 3
    # (-2 3) and (1 -3) meet on their greatest atom 3, (1 -2) and (1 2)
    # on 2; no other pair is eligible.
    assert result.derived == (Clause((1, -2)), Clause((1,)))
    assert (result.counters.steps, result.counters.added) == (2, 2)
    assert result.counters.duplicates == 0
    # (1) withdraws the processed (1 2), (1 -3) and (1 -2).
    assert result.counters.retired == 3


def test_saturation_counters_partition_the_steps():
    for formula in (build_unit_chain(5), compose_two_trees(2, Closing.MATCHED)):
        c = saturate(formula).counters
        assert c.steps == c.added + c.tautologies + c.duplicates + c.over_width + c.subsumed


def test_saturate_is_deterministic():
    matched = compose_two_trees(2, Closing.MATCHED)
    crossed = compose_two_trees(2, Closing.CROSSED)
    deeper = compose_two_trees(3, Closing.MATCHED)
    runs = ((matched, None), (crossed, Budget(max_clauses=500)), (deeper, None))
    for formula, budget in runs:
        first = saturate(formula, budget)
        second = saturate(formula, budget)
        assert first.store == second.store
        assert first.trace == second.trace
        assert first.status is second.status


# Status, counters, store size and a digest of the exported trace, pinned
# from runs of ordered resolution with forward subsumption, with subsumed
# given clauses skipped and with the processed clauses a given clause
# subsumes withdrawn; a faster kernel must reproduce them exactly,
# step-budget trips, over-width, duplicate and subsumed drops and retired
# clauses included.  In id order the compositions yield no resolvent
# wider than 2, so the width caps drop nothing, and only tautologies are
# dropped; the last two rows renumber the variables, which makes every
# drop and a step-budget trip after over-width drops show.  The last two
# are the deepest inputs of the benchmark's `refute` and `dominance`
# workloads, the closed tree without the workload's redundancy clauses.
GOLDEN_RUNS = [
    (
        "matched-2",
        lambda: compose_two_trees(2, Closing.MATCHED),
        None,
        ("empty-derived", 8, 8, 0, 0, 0, 0, 17, 26, "241a6d989e72db55"),
    ),
    (
        "matched-3",
        lambda: compose_two_trees(3, Closing.MATCHED),
        None,
        ("empty-derived", 15, 15, 0, 0, 0, 0, 29, 51, "df6c467df3379743"),
    ),
    (
        "matched-4",
        lambda: compose_two_trees(4, Closing.MATCHED),
        None,
        ("empty-derived", 24, 24, 0, 0, 0, 0, 45, 84, "20876ef1f7b9b8c9"),
    ),
    (
        "closed-tree-3",
        lambda: build_binomial_tree(TreeSpec(k=3)),
        Budget(20_000, 200_000),
        ("saturated", 8, 8, 0, 0, 0, 0, 16, 26, "6fdbe35dcf644019"),
    ),
    (
        "crossed-4-width-3",
        lambda: compose_two_trees(4, Closing.CROSSED),
        Budget(max_width=3, max_steps=5000),
        ("saturated", 26, 24, 2, 0, 0, 0, 40, 84, "3071b995c4433561"),
    ),
    (
        "crossed-5-width-2",
        lambda: compose_two_trees(5, Closing.CROSSED),
        Budget(max_width=2, max_steps=5000),
        ("saturated", 38, 36, 2, 0, 0, 0, 60, 126, "82302fa68ad75de7"),
    ),
    (
        "renumbered-crossed-4",
        lambda: _renumbered(compose_two_trees(4, Closing.CROSSED), 1),
        None,
        ("saturated", 532, 282, 158, 5, 0, 87, 207, 342, "5d7e1173013e19a0"),
    ),
    (
        "renumbered-matched-5-width-3",
        lambda: _renumbered(compose_two_trees(5, Closing.MATCHED), 1),
        Budget(max_width=3, max_steps=100),
        ("budget-exhausted", 100, 34, 8, 0, 57, 1, 40, 124, "1adc65e05ec6c591"),
    ),
    (
        "matched-8",
        lambda: compose_two_trees(8, Closing.MATCHED),
        None,
        ("empty-derived", 80, 80, 0, 0, 0, 0, 149, 296, "ab45470e6a6df717"),
    ),
    (
        "closed-tree-12-root-goal",
        lambda: build_binomial_tree(TreeSpec(k=12)),
        Budget(20_000, 200_000, goal=Clause((1,))),
        ("goal-derived", 78, 78, 0, 0, 0, 0, 135, 312, "95d464c8056ff937"),
    ),
]


@pytest.mark.parametrize(
    "build, budget, expected", [r[1:] for r in GOLDEN_RUNS], ids=[r[0] for r in GOLDEN_RUNS]
)
def test_saturate_matches_golden_runs(build, budget, expected):
    result = saturate(build(), budget)
    c = result.counters
    digest = hashlib.sha256(export_trace(result).encode()).hexdigest()[:16]
    observed = (
        str(result.status), c.steps, c.added, c.tautologies, c.duplicates, c.over_width,
        c.subsumed, c.retired, len(result.store), digest,
    )
    assert observed == expected


def test_forward_subsumption_drops_a_resolvent_and_a_goal_run_stops_at_its_subsumer():
    # (1 2) is derived before (2 3 -5) is given.  It subsumes neither
    # (1 5) nor (2 3 -5), so both stay partners, and their resolvent
    # (1 2 3) is dropped.
    formula = build_formula(
        [Clause((1, 6)), Clause((2, -6)), Clause((1, 5)), Clause((2, 3, -5))]
    )
    plain = saturate(formula)
    assert plain.status is SaturationStatus.SATURATED
    assert plain.derived == (Clause((1, 2)),)
    assert plain.counters.subsumed == 1  # (1 2 3), subsumed by (1 2)
    assert plain.counters.retired == 0
    goal = saturate(formula, Budget(goal=Clause((1, 2, 3))))
    assert goal.status is SaturationStatus.GOAL_DERIVED
    assert goal.store == plain.store
    assert goal.counters.subsumed == 0
    assert goal.counters.steps < plain.counters.steps


def test_a_wide_goal_run_ends_at_a_stored_subset_of_the_goal():
    # (1 2) is stored first, so the goal (1 2 3) itself is dropped when
    # (1 5) and the derived (2 3 -5) yield it; (1 2) subsumes the goal and
    # ends the run.  The goal's atoms are the lowest ids, so the goal run
    # is a prefix of the plain one.
    formula = build_formula(
        [Clause((1, 6)), Clause((2, -6)), Clause((1, 5)), Clause((2, 3, -5, -7)), Clause((7,))]
    )
    plain = saturate(formula)
    assert plain.derived == (Clause((1, 2)), Clause((2, 3, -5)))
    assert plain.counters.subsumed == 1
    assert Clause((1, 2, 3)) not in plain.store
    goal = saturate(formula, Budget(goal=Clause((1, 2, 3))))
    assert goal.status is SaturationStatus.GOAL_DERIVED
    assert goal.store[-1] == Clause((1, 2))
    assert goal.trace == plain.trace[: len(goal.trace)]
    assert goal.counters.subsumed == 0


def test_wide_resolvent_is_subsumed_by_a_narrow_clause():
    # The two wide clauses meet on their greatest atom 11.  The resolvent
    # (2..10) has more sub-masks than the store has clauses, so the test
    # goes through the stored clauses instead.
    formula = build_formula([
        Clause((2, 3, 4, 5, 6, 7, 8, 9, 11)),
        Clause((2, 3, 4, 5, 6, 7, 8, 10, -11)),
        Clause((9, 10)),
    ])
    result = saturate(formula)
    assert result.status is SaturationStatus.SATURATED
    assert not result.derived
    assert (result.counters.steps, result.counters.subsumed) == (1, 1)


def test_a_narrow_given_clause_subsumed_through_the_sub_mask_walk_is_skipped():
    # Four stored clauses, so the width-2 given (1 2) walks its two
    # sub-masks and finds (1).
    result = saturate(build_formula(
        [Clause((1,)), Clause((1, 2)), Clause((-2, 3)), Clause((4, 5))]
    ))
    assert result.status is SaturationStatus.SATURATED
    assert result.counters.retired == 1
    # (1 2) never joins the partners, so (1 3) is never derived.
    assert not result.derived
    assert result.counters.steps == 0


def test_a_wide_given_clause_subsumed_through_the_scan_is_skipped():
    # 2^5 sub-masks against three stored clauses: the test scans the store.
    result = saturate(build_formula(
        [Clause((1, 2, 3, 4, 5)), Clause((2, 4)), Clause((-5, 6))]
    ))
    assert result.status is SaturationStatus.SATURATED
    assert result.counters.retired == 1
    assert not result.derived
    assert result.counters.steps == 0


def test_a_given_clause_does_not_subsume_itself():
    # Each given is stored, so a scan that matched the clause itself would
    # skip every clause.  No clause here is a subset of another, so none
    # is retired.
    alone = saturate(build_formula([Clause((1, 2))]))
    assert alone.status is SaturationStatus.SATURATED
    assert alone.counters.retired == 0
    pair = saturate(build_formula([Clause((1, 3)), Clause((2, -3))]))
    assert pair.derived == (Clause((1, 2)),)
    assert pair.counters.retired == 0


def test_a_processed_clause_that_the_given_clause_subsumes_is_withdrawn():
    # (2 5) is derived from (2 5 6) and (2 5 -6) and withdraws them and
    # the processed (1 2 5) when it is given.  So the later (3 4 -5),
    # whose greatest literal -5 clashes with that of (1 2 5) and (2 5),
    # meets only (2 5): one step, where meeting (1 2 5) first would store
    # (1 2 3 4) before (2 3 4).
    formula = build_formula(
        [Clause((1, 2, 5)), Clause((2, 5, 6)), Clause((2, 5, -6)), Clause((3, 4, -5))]
    )
    result = saturate(formula)
    assert result.status is SaturationStatus.SATURATED
    assert result.derived == (Clause((2, 5)), Clause((2, 3, 4)))
    assert result.trace == (ResolutionStep(1, 2, 6, 4), ResolutionStep(3, 4, 5, 5))
    later = result.trace[1:]
    assert not any({0, 1, 2} & {step.left, step.right} for step in later)
    assert (result.counters.steps, result.counters.retired) == (2, 3)
    assert tuple(replay_trace(formula, result.trace)) == result.store


def test_saturation_agrees_with_dpll_on_random_formulas():
    rng = random.Random(31)
    for _ in range(300):
        formula = _random_formula(rng, 2, 10, 4)
        n = formula.num_vars
        refuted = saturate(formula).status is SaturationStatus.EMPTY_DERIVED
        assert refuted != dpll_sat(formula).is_sat, formula
        for lit in (s * v for v in range(1, n + 1) for s in (1, -1)):
            verdict = is_dominant_by_resolution(formula, lit)
            # `entails` asks DPLL to refute the formula plus the unit {-lit}.
            entailed = entails(formula, Clause((lit,)))
            assert (verdict is ResolutionDominance.DOMINANT) == entailed, (formula, lit)


def test_no_stored_resolvent_is_subsumed_by_an_older_clause():
    rng = random.Random(11)
    for _ in range(200):
        formula = _random_formula(rng, 3, 12, 9)
        result = saturate(formula, Budget(max_steps=2_000))
        seen: list[frozenset[int]] = []
        for i, clause in enumerate(result.store):
            lits = frozenset(clause.lits)
            if i >= result.n_original:
                assert not any(old < lits for old in seen), (formula, clause)
            seen.append(lits)
        assert tuple(replay_trace(formula, result.trace)) == result.store


def test_saturate_matches_the_reference_policy_on_random_formulas():
    rng = random.Random(2029)
    for _ in range(400):
        formula = _random_formula(rng, 2, 9, 4)
        n = formula.num_vars
        atoms = rng.sample(range(1, n + 1), rng.randint(1, min(n, 3)))
        goal = rng.choice([None, make_clause([v if rng.random() < 0.5 else -v for v in atoms])])
        # Budgets close to what the run needs, so that both of them trip.
        budget = Budget(
            rng.choice([len(formula.clauses) + rng.randint(0, 6), DEFAULT_MAX_CLAUSES]),
            rng.choice([rng.randint(0, 10), DEFAULT_MAX_STEPS]),
            rng.choice([None, 2, 3]),
            goal,
        )
        result = saturate(formula, budget)
        observed = (
            str(result.status), result.stopped_by, result.counters, result.trace,
            [frozenset(c.lits) for c in result.store],
        )
        assert observed == reference_saturate(formula, budget), (formula, budget)


@pytest.mark.parametrize("field", ["max_clauses", "max_steps", "max_width"])
def test_budget_rejects_a_negative_limit(field):
    with pytest.raises(ValueError, match=f"^{field} must be non-negative, got -5$"):
        Budget(**{field: -5})
    assert getattr(Budget(**{field: 0}), field) == 0


def test_a_pair_that_clashes_on_more_than_its_greatest_atom_is_one_tautology():
    # The two clauses are eligible on 3 and clash on 1 and 2 too: one step,
    # counted as a tautology.
    formula = build_formula([Clause((1, 2, 3)), Clause((-1, -2, -3))])
    none = saturate(formula, Budget(max_steps=0))
    assert none.status is SaturationStatus.BUDGET_EXHAUSTED
    assert none.counters.steps == 0
    full = saturate(formula)
    assert full.status is SaturationStatus.SATURATED
    assert full.stopped_by is None
    assert (full.counters.steps, full.counters.tautologies) == (1, 1)


def test_empty_clause_among_originals_short_circuits():
    result = saturate(build_formula([Clause(()), Clause((1,))]))
    assert result.status is SaturationStatus.EMPTY_DERIVED
    assert result.stopped_by is None
    assert result.counters.steps == 0


def test_clause_budget_stops_growth():
    formula = compose_two_trees(3, Closing.MATCHED)
    result = saturate(formula, Budget(max_clauses=formula.num_clauses))
    assert result.status is SaturationStatus.BUDGET_EXHAUSTED
    assert result.counters.steps == 0
    assert not result.derived

    capped = saturate(formula, Budget(max_clauses=formula.num_clauses + 5))
    assert capped.status is SaturationStatus.BUDGET_EXHAUSTED
    assert capped.stopped_by == "max_clauses"
    assert len(capped.derived) == 5


def test_step_budget_stops_work():
    result = saturate(compose_two_trees(3, Closing.MATCHED), Budget(max_steps=7))
    assert result.status is SaturationStatus.BUDGET_EXHAUSTED
    assert result.stopped_by == "max_steps"
    assert result.counters.steps == 7


def test_width_bound_filters_resolvents():
    result = saturate(build_unit_chain(4), Budget(max_width=1))
    assert result.status is SaturationStatus.BUDGET_EXHAUSTED
    assert result.stopped_by == "max_width"
    assert not result.derived
    assert result.counters.over_width > 0


def test_decision_chain_of_the_derived_unit():
    result = saturate(build_unit_chain(3))
    unit_id = result.clause_id(Clause((1,)))
    chain = decision_chain_of(result, unit_id)
    assert chain.clause == Clause((1,))
    # (1 -2) is resolved out of (-2 3) and (1 -3) on 3, then (1) on 2.
    assert chain.resolved == (3, 2)


def test_decision_chain_lengths_scale_with_chain_size():
    for k in range(2, 9):
        result = saturate(build_unit_chain(k))
        unit_id = result.clause_id(Clause((1,)))
        assert unit_id is not None
        assert len(decision_chain_of(result, unit_id).resolved) == k - 1


def test_decision_chain_of_original_and_empty():
    result = saturate(build_formula([Clause((1,)), Clause((-1,))]))
    original = decision_chain_of(result, 0)
    assert original.resolved == () and original.clause == Clause((1,))
    empty = decision_chain_of(result, 2)
    assert empty.resolved == (1,) and empty.clause == Clause(())
    with pytest.raises(ValueError):
        decision_chain_of(result, 99)


def test_dominance_verdicts_print_as_their_values():
    assert [str(v) for v in ResolutionDominance] == ["dominant", "not-shown", "budget-exhausted"]


def test_dominance_by_resolution():
    chain = build_unit_chain(4)
    assert is_dominant_by_resolution(chain, 1) is ResolutionDominance.DOMINANT
    assert is_dominant_by_resolution(chain, 2) is ResolutionDominance.NOT_SHOWN
    tight = Budget(max_steps=5)
    verdict = is_dominant_by_resolution(compose_two_trees(3, Closing.MATCHED), 1, tight)
    assert verdict is ResolutionDominance.BUDGET_EXHAUSTED
    for lit in (99, 0):
        with pytest.raises(ValueError):
            is_dominant_by_resolution(chain, lit)


def test_width_capped_dominance_run_is_budget_exhausted():
    # Uncapped the root is DOMINANT; at width 1 the run drops resolvents
    # and runs dry, which shows nothing about the root unit.
    tree = build_binomial_tree(TreeSpec(k=6))
    verdict = is_dominant_by_resolution(tree, 1, Budget(max_width=1))
    assert verdict is ResolutionDominance.BUDGET_EXHAUSTED


def test_replay_trace_reconstructs_the_store():
    for k in (2, 3):
        formula = compose_two_trees(k, Closing.MATCHED)
        result = saturate(formula)
        assert tuple(replay_trace(formula, result.trace)) == result.store
        assert all(step.left < step.right for step in result.trace)


def test_replay_trace_rejects_tampered_steps():
    formula = build_formula([Clause((1,)), Clause((-1,))])
    trace = saturate(formula).trace
    reordered = (ResolutionStep(trace[0].left, trace[0].right, trace[0].var, 5),)
    with pytest.raises(ValueError):
        replay_trace(formula, reordered)


@pytest.mark.parametrize(
    "step,fragment",
    [
        (ResolutionStep(0, 2, 1, 4), "parents are not complementary on variable 1"),
        (ResolutionStep(0, 1, 1, 4), "resolves to a tautology on replay"),
        (ResolutionStep(2, 3, 1, 9), "out of order on replay"),
    ],
)
def test_replay_trace_names_the_failing_step(step, fragment):
    formula = build_formula([Clause((1, 2)), Clause((-1, -2)), Clause((1,)), Clause((-1,))])
    with pytest.raises(ValueError, match=f"step {re.escape(str(step))}.*{fragment}"):
        replay_trace(formula, (step,))


def test_export_trace_lines():
    result = saturate(build_formula([Clause((1,)), Clause((-1,))]))
    assert export_trace(result) == "0 1 1 -> 2 : <empty>\n"
    quiet = saturate(build_formula([Clause((1,))]))
    assert export_trace(quiet) == ""


def test_export_chain_dot_shape():
    result = saturate(build_unit_chain(3))
    dot = export_chain_dot(result, result.clause_id(Clause((1,))))
    assert dot.startswith("digraph chain {")
    assert dot.rstrip().endswith("}")
    assert 'shape=box' in dot and 'shape=ellipse' in dot
    assert '[label="2"]' in dot and '[label="3"]' in dot
    with pytest.raises(ValueError):
        export_chain_dot(result, 99)


def test_goal_run_is_a_prefix_of_the_run_without_goal():
    budget = default_sweep_budget()
    for k in range(3, 9):
        formula = build_binomial_tree(TreeSpec(k=k))
        unit = Clause((formula.atlas.id_of(ROOT),))
        full = saturate(formula, budget)
        run = saturate(formula, budget._replace(goal=unit))
        assert run.status is SaturationStatus.GOAL_DERIVED, k
        assert run.stopped_by is None
        assert run.store[-1] == unit
        assert run.store == full.store[: len(run.store)]
        assert run.trace == full.trace[: len(run.trace)]
        assert run.counters.steps < full.counters.steps


def test_goal_stops_at_an_original_clause_and_at_the_empty_clause():
    formula = build_unit_chain(4)
    result = saturate(formula, Budget(goal=formula.clauses[2]))
    assert result.status is SaturationStatus.GOAL_DERIVED
    assert result.counters.steps == 0
    assert not result.derived
    refuted = saturate(build_formula([Clause((1,)), Clause((-1,))]), Budget(goal=Clause(())))
    assert refuted.status is SaturationStatus.EMPTY_DERIVED
    assert refuted.derived == (Clause(()),)


def test_goal_never_derived_leaves_the_run_unchanged():
    budget = default_sweep_budget()
    formula = build_binomial_tree(TreeSpec(k=3, closure=None))
    unit = Clause((formula.atlas.id_of(ROOT),))
    full = saturate(formula, budget)
    assert full.status is SaturationStatus.SATURATED
    assert full.counters.steps == 6
    assert saturate(formula, budget._replace(goal=unit)) == full


def test_a_goal_run_ends_at_the_first_subsumer_in_the_run_without_goal():
    # With the goal's atoms the lowest ids, 1..m, the atom order is that of
    # the run without the goal, so the goal run is a prefix of it.
    rng = random.Random(23)
    budget = Budget(max_steps=2_000)
    for _ in range(500):
        formula = _random_formula(rng, 2, 8, 4)
        # Goals may be wide and may name variables the formula lacks.
        m = rng.randint(1, min(4, formula.num_vars + 2))
        goal = make_clause([v if rng.random() < 0.5 else -v for v in range(1, m + 1)])
        full = saturate(formula, budget)
        run = saturate(formula, budget._replace(goal=goal))
        first = next(
            (i for i, c in enumerate(full.store) if set(c.lits) <= set(goal.lits)), None
        )
        if first is None:
            assert run == full, (formula, goal)
            continue
        end = max(first + 1, full.n_original)
        assert run.store == full.store[:end], (formula, goal)
        assert run.trace == full.trace[: end - full.n_original]
        expected = (
            SaturationStatus.GOAL_DERIVED if full.store[first].lits
            else SaturationStatus.EMPTY_DERIVED
        )
        assert run.status is expected


def test_a_goal_run_reaches_the_goal_exactly_when_the_formula_entails_it():
    # Any goal: its atoms come lowest, so a saturated store holds a subset
    # of the goal whenever the formula entails it.
    rng = random.Random(2028)
    for _ in range(2_000):
        formula = _random_formula(rng, 2, 6, 4)
        n = formula.num_vars
        goal = make_clause([v if rng.random() < 0.5 else -v
                            for v in rng.sample(range(1, n + 3), rng.randint(0, 4))])
        result = saturate(formula, Budget(goal=goal))
        assert result.status is not SaturationStatus.BUDGET_EXHAUSTED
        reached = result.status is not SaturationStatus.SATURATED
        # Literals on variables the formula lacks are false in some model.
        inside = make_clause([lit for lit in goal.lits if abs(lit) <= n])
        assert reached == entails(formula, inside, brute_force_sat), (formula, goal)


def test_dominance_by_resolution_agrees_with_the_oracle():
    budget = Budget(max_clauses=5_000, max_steps=50_000)
    for name, build in FAMILIES.items():
        for k in range(2, 9):
            formula = build(k)
            root = formula.atlas.id_of(ROOT)
            lits = (
                [s * v for v in range(1, formula.num_vars + 1) for s in (1, -1)]
                if k <= 3 else [root]
            )
            for lit in lits:
                verdict = is_dominant_by_resolution(formula, lit, budget)
                if verdict is ResolutionDominance.BUDGET_EXHAUSTED:
                    continue
                # Deriving the unit, or the empty clause, shows it is entailed.
                entailed = entails(formula, Clause((lit,)))
                assert (verdict is ResolutionDominance.DOMINANT) == entailed, (name, k, lit)


def test_dominance_by_resolution_agrees_with_the_oracle_under_renumbering():
    # Each unit goal puts its own atom lowest, and the renumberings reorder
    # the rest, so the verdicts do not rest on the order the generators
    # number variables in (the test above runs the generators' order).
    for name, build in FAMILIES.items():
        for k in (2, 3):
            for seed in (1, 2, 3):
                formula = _renumbered(build(k), seed)
                for lit in (s * v for v in range(1, formula.num_vars + 1) for s in (1, -1)):
                    verdict = is_dominant_by_resolution(formula, lit)
                    entailed = entails(formula, Clause((lit,)))
                    expected = (
                        ResolutionDominance.DOMINANT if entailed else ResolutionDominance.NOT_SHOWN
                    )
                    assert verdict is expected, (name, k, seed, lit)
