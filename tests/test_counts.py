import math

import pytest

from treesat.counts import (
    ENUMERATION_DEPTH_CAP,
    binary_depth_for,
    binary_var_count,
    binomial_depth_for,
    binomial_var_count,
    candidate_combinations,
    enumerate_paths,
    leaf_path_counts,
)


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


def test_binary_size_round_trip():
    for k in range(13):
        n = binary_var_count(k)
        assert n == 2 ** (k + 1) - 1
        assert 2**k == (n + 1) // 2
        assert binary_depth_for(n) == k
        assert binary_depth_for(n + 1) == k
        if n > 1:
            assert binary_depth_for(n - 1) == k - 1


def test_binomial_size_round_trip():
    for k in range(1001):
        n = binomial_var_count(k)
        assert n == (k + 1) * (k + 2) // 2
        assert binomial_depth_for(n) == k
        if n > 1:
            assert binomial_depth_for(n - 1) == k - 1


def test_size_formula_validation():
    for fn in (binary_depth_for, binomial_depth_for):
        with pytest.raises(ValueError):
            fn(0)
    for fn in (binary_var_count, binomial_var_count, leaf_path_counts, pascal_rows):
        with pytest.raises(ValueError):
            fn(-1)


def test_candidate_combinations():
    for m in range(2, 6):
        for k in range(1, 31):
            expected = 1
            for _ in range(k):
                expected *= m
            assert candidate_combinations(m, k) == expected
    with pytest.raises(ValueError):
        candidate_combinations(1, 3)
    with pytest.raises(ValueError):
        candidate_combinations(2, 0)


def test_leaf_path_counts_golden():
    assert leaf_path_counts(3) == (1, 3, 3, 1)


def test_path_enumeration_matches_closed_form():
    for k in range(13):
        walked = enumerate_paths(k)
        assert walked == leaf_path_counts(k) == tuple(math.comb(k, i) for i in range(k + 1))
        assert sum(walked) == 2**k


def test_enumeration_depth_cap():
    with pytest.raises(ValueError, match="closed form"):
        enumerate_paths(ENUMERATION_DEPTH_CAP + 1)
    with pytest.raises(ValueError):
        enumerate_paths(-1)


def test_pascal_rows_recurrence():
    rows = pascal_rows(4)
    assert rows == [(1,), (1, 1), (1, 2, 1), (1, 3, 3, 1), (1, 4, 6, 4, 1)]
    for k in range(11):
        assert pascal_rows(k)[-1] == leaf_path_counts(k)
