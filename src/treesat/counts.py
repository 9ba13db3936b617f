"""Closed-form size formulas and explicit path counting.

Everything here is exact integer arithmetic; there is no floating point
anywhere in a result.  The explicit enumerator really walks all 2**k
left/right selection sequences and is the independent cross-check for
the binomial closed forms.
"""

from __future__ import annotations

import math

ENUMERATION_DEPTH_CAP = 24


def binary_depth_for(n: int) -> int:
    """Largest depth k whose perfect binary tree fits n variables:
    k = floor(log2(n + 1)) - 1, floored at 0."""
    if n < 1:
        raise ValueError("variable count must be positive")
    return max(0, (n + 1).bit_length() - 2)


def binary_var_count(k: int) -> int:
    """Variables of the depth-k perfect binary tree: 2**(k+1) - 1."""
    if k < 0:
        raise ValueError("depth must be non-negative")
    return 2 ** (k + 1) - 1


def binomial_var_count(k: int) -> int:
    """Variables of the depth-k pair-sharing tree: (k+1)(k+2)/2."""
    if k < 0:
        raise ValueError("depth must be non-negative")
    return (k + 1) * (k + 2) // 2


def binomial_depth_for(n: int) -> int:
    """Largest k with (k+1)(k+2)/2 <= n, via exact integer square root:
    k = floor((sqrt(8n + 1) - 3) / 2), floored at 0."""
    if n < 1:
        raise ValueError("variable count must be positive")
    s = math.isqrt(8 * n + 1)
    return max(0, (s - 3) // 2)


def candidate_combinations(m: int, k: int) -> int:
    """Assignment combinations for k independent m-way choices: m**k."""
    if m < 2:
        raise ValueError("at least two choices per step are required")
    if k < 1:
        raise ValueError("at least one step is required")
    return m**k


def leaf_path_counts(k: int) -> tuple[int, ...]:
    """Closed-form path counts per boundary row: entry i is C(k, i), the
    paths arriving at row i + 1; together they total 2**k."""
    if k < 0:
        raise ValueError("depth must be non-negative")
    return tuple(math.comb(k, i) for i in range(k + 1))


def enumerate_paths(k: int) -> tuple[int, ...]:
    """Walk every left/right selection sequence through the depth-k tree.

    A sequence is a k-bit word; starting at row 1, each right selection
    moves to row + 1 (node (l, r) hands over to (l+1, r) or (l+1, r+1)).
    The tally is compared against nothing here: it IS the oracle the
    closed forms are tested against.
    """
    if k < 0:
        raise ValueError("depth must be non-negative")
    if k > ENUMERATION_DEPTH_CAP:
        raise ValueError(
            f"2**{k} sequences exceed the enumeration limit (k <= {ENUMERATION_DEPTH_CAP}); "
            "use leaf_path_counts for the closed form"
        )
    rows = [0] * (k + 1)
    for sequence in range(1 << k):
        rows[sequence.bit_count()] += 1
    return tuple(rows)
