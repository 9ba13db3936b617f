"""Path counts read off a built formula, and the closed-form variable
counts of the two trees.

`count_paths` walks the decision triples of a formula's clause list, so
`treesat analyze` and the verification checks count what `forge` built,
not a restatement of it.  The `depth-formulas` check compares the
variable counts of built formulas with the closed forms here.
"""

from __future__ import annotations

from .formula import CnfFormula


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
