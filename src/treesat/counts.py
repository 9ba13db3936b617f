"""Closed-form size formulas and path counts read off a built formula.

Everything here is exact integer arithmetic.  `count_paths` walks the
decision triples of a formula that `forge` built, so the closed forms
are checked against the clause list, not against a restatement of them.
"""

from __future__ import annotations

import math

from .formula import CnfFormula


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


def count_paths(formula: CnfFormula, entry: int) -> dict[int, int]:
    """Paths from the triples entered by literal `entry` to the pair
    members where they end, as {member literal: paths}.

    A decision triple is a clause (e a b) whose sign-flipped siblings
    (e a ~b) and (e ~a b) are clauses too.  Level by level, member m
    enters the triples of ~m and shared members add their counts.  A path
    ends at a member whose complement enters no triple, or was entered
    before, or that lies on `entry`'s variable, so cycles end."""
    present = {clause.lits for clause in formula.clauses}
    members: dict[int, list[int]] = {}
    for lits in (clause.lits for clause in formula.clauses if clause.width == 3):
        flips = [lits[:j] + (-lits[j],) + lits[j + 1 :] in present for j in range(3)]
        for i, j, k in ((0, 1, 2), (1, 0, 2), (2, 0, 1)):
            if flips[j] and flips[k]:
                members.setdefault(lits[i], []).extend((lits[j], lits[k]))
    arrivals: dict[int, int] = {}
    entered: set[int] = set()
    level = {entry: 1}
    while level:
        entered.update(level)
        reached: dict[int, int] = {}
        for lit, paths in level.items():
            for member in members.get(lit, ()):
                reached[member] = reached.get(member, 0) + paths
        level = {}
        for member, paths in reached.items():
            if abs(member) == abs(entry) or -member in entered or -member not in members:
                arrivals[member] = arrivals.get(member, 0) + paths
            else:
                level[-member] = paths
    return arrivals
