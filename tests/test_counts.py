import math

import pytest

from treesat.counts import binary_var_count, binomial_var_count, count_paths
from treesat.forge import (
    Closing,
    Closure,
    TreeSpec,
    build_binary_tree,
    build_binomial_tree,
    compose_two_trees,
)
from treesat.formula import ROOT, slot_name


def pascal_rows(k: int) -> list[tuple[int, ...]]:
    """Boundary-by-boundary path tallies via the additive recurrence:
    paths(l+1, r) = paths(l, r) + paths(l, r-1).  Row list is 0-indexed
    by depth; entry d has d+1 rows."""
    if k < 0:
        raise ValueError("depth must be non-negative")
    rows: list[tuple[int, ...]] = [(1,)]
    for _ in range(k):
        prev = rows[-1]
        rows.append(
            tuple(
                (prev[i] if i < len(prev) else 0) + (prev[i - 1] if i > 0 else 0)
                for i in range(len(prev) + 1)
            )
        )
    return rows


def test_size_formula_validation():
    for fn in (binary_var_count, binomial_var_count, pascal_rows):
        with pytest.raises(ValueError):
            fn(-1)


def boundary_rows(spec):
    """Paths from the root literal to each boundary row of a built tree;
    the aliased row's paths arrive at the root literal."""
    formula = build_binomial_tree(spec)
    root = formula.atlas.id_of(ROOT)
    root_lit = -root if spec.root_negated else root
    arrivals = count_paths(formula, root_lit)
    aliased = spec.closure.row if spec.closure and spec.closure.kind == "alias" else None
    rows = tuple(
        arrivals.pop(root_lit if row == aliased else formula.atlas.id_of(slot_name(spec.k + 1, row)))
        for row in range(1, spec.k + 2)
    )
    assert arrivals == {}
    return rows


def test_count_paths_reads_binomial_rows_off_built_trees():
    rows = pascal_rows(12)
    for k in range(1, 13):
        assert boundary_rows(TreeSpec(k=k, closure=None)) == rows[k]
        assert sum(rows[k]) == 2**k
    for k in range(2, 13):
        for row in (1, k // 2 + 1, k + 1):
            assert boundary_rows(TreeSpec(k=k, closure=Closure("alias", row))) == rows[k]
            negated = TreeSpec(k=k, closure=Closure("alias", row), root_negated=True)
            assert boundary_rows(negated) == rows[k]
    assert boundary_rows(TreeSpec(k=3)) == (1, 3, 3, 1)


def test_count_paths_reaches_each_binary_leaf_once():
    formula = build_binary_tree(6)
    arrivals = count_paths(formula, formula.atlas.id_of(ROOT))
    assert arrivals == {formula.atlas.id_of(f"b6.{i}"): 1 for i in range(1, 65)}


def test_count_paths_stops_at_the_shared_root_of_a_composition():
    for closing in Closing:
        for k in (2, 5, 9):
            formula = compose_two_trees(k, closing)
            for entry in (1, -1):
                arrivals = count_paths(formula, entry)
                assert sum(arrivals.values()) == 2**k
                # Row 1 of each tree is aliased to a root literal.
                assert sum(paths for lit, paths in arrivals.items() if abs(lit) == 1) == 1


def test_count_paths_without_triples_is_empty():
    formula = build_binomial_tree(TreeSpec(k=3))
    assert count_paths(formula, -1) == {}


def test_pascal_rows_recurrence():
    rows = pascal_rows(4)
    assert rows == [(1,), (1, 1), (1, 2, 1), (1, 3, 3, 1), (1, 4, 6, 4, 1)]
    for k in range(11):
        assert pascal_rows(k)[-1] == tuple(math.comb(k, i) for i in range(k + 1))
