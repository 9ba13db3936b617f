"""Correctness checks written apart from the package.

They read the program's outputs as plain data (clauses as tuples of
signed ints, trace steps as (left, right, var, result) ids, models as
dicts) and recompute what those outputs claim with set arithmetic, so a
fault in treesat cannot vouch for itself.  Every check raises
CheckFailed on a mismatch and returns None otherwise.
"""

from __future__ import annotations


class CheckFailed(Exception):
    """An output of the program disagrees with what the benchmark recomputes."""


def expected_tree_size(k: int, closed: bool, extra: int = 0) -> tuple[int, int]:
    """(variables, clauses) of a depth-k binomial tree with `extra` added
    clauses: the root plus b slots at each boundary b = 2..k+1, one slot
    fewer when the closure aliases it to the root, and three clauses at
    each of the k(k+1)/2 nodes."""
    variables = (k + 1) * (k + 2) // 2 - (1 if closed else 0)
    return variables, 3 * k * (k + 1) // 2 + extra


def expected_composition_size(k: int) -> tuple[int, int]:
    """(variables, clauses) of two closed depth-k trees sharing the root."""
    return (k + 1) * (k + 2) - 3, 3 * k * (k + 1)


def clause_lits(formula) -> list[tuple[int, ...]]:
    return [c.lits for c in formula.clauses]


def check_size(label: str, formula, expected: tuple[int, int]) -> None:
    lits = clause_lits(formula)
    used = max((abs(l) for c in lits for l in c), default=0)
    got = (formula.num_vars, len(lits))
    if got != expected or used > formula.num_vars:
        raise CheckFailed(
            f"{label}: {got[0]} variables and {got[1]} clauses "
            f"(highest variable used {used}), expected {expected[0]} and {expected[1]}"
        )


def _resolvent(left: frozenset, right: frozenset, var: int) -> frozenset:
    if var in left and -var in right:
        pos, neg = left, right
    elif -var in left and var in right:
        pos, neg = right, left
    else:
        raise CheckFailed(f"parents do not clash on variable {var}")
    out = (pos - {var}) | (neg - {-var})
    if any(-l in out for l in out):
        raise CheckFailed(f"resolvent on variable {var} is a tautology")
    return out


def replay(originals, steps, stored) -> dict[int, frozenset]:
    """Recompute `steps` from the original clauses; each resolvent must
    equal the clause the program stored under the step's result id, and
    each step may only use clauses known before it."""
    known = {i: frozenset(c) for i, c in enumerate(originals)}
    for left, right, var, result in steps:
        if left not in known or right not in known or result in known:
            raise CheckFailed(f"step {left} {right} {var} -> {result} is out of order")
        clause = _resolvent(known[left], known[right], var)
        if not 0 <= result < len(stored) or frozenset(stored[result]) != clause:
            raise CheckFailed(
                f"step {left} {right} {var} -> {result} gives {sorted(clause, key=abs)}, "
                "not the stored clause"
            )
        known[result] = clause
    return known


def check_refutation(originals, steps, stored) -> None:
    """Every step recomputes, and the last one derives the empty clause:
    a checked refutation proves the formula unsatisfiable."""
    steps = list(steps)
    if not steps:
        raise CheckFailed("the refutation has no steps")
    known = replay(originals, steps, stored)
    if known[steps[-1][3]]:
        raise CheckFailed("the last step does not derive the empty clause")


def ancestry(steps, clause_id: int) -> list[tuple[int, int, int, int]]:
    """The steps that derive `clause_id`, in the order they were taken."""
    step_for = {s[3]: s for s in steps}
    keep: dict[int, tuple] = {}
    todo = [clause_id]
    while todo:
        cid = todo.pop()
        if cid in keep or cid not in step_for:
            continue
        keep[cid] = step_for[cid]
        todo += [step_for[cid][0], step_for[cid][1]]
    return [keep[cid] for cid in sorted(keep)]


def check_unit_derivation(originals, steps, stored, clause_id: int, lit: int) -> None:
    """The recorded derivation of `clause_id` recomputes and gives {lit}."""
    known = replay(originals, ancestry(steps, clause_id), stored)
    if clause_id < len(originals) or known.get(clause_id) != {lit}:
        raise CheckFailed(f"clause {clause_id} is not derived as the unit {lit}")


def check_chain(steps, n_original: int, clause_id: int, resolved) -> None:
    """The decision chain is the derivation tree's resolved variables,
    left parent first, then right parent, then the step's own variable."""
    step_for = {s[3]: s for s in steps}
    memo: dict[int, tuple[int, ...]] = {}
    todo = [clause_id]
    while todo:
        cid = todo[-1]
        if cid in memo:
            todo.pop()
        elif cid < n_original:
            memo[cid] = ()
            todo.pop()
        elif cid not in step_for:
            raise CheckFailed(f"clause {cid} has no recorded derivation")
        else:
            left, right, var, _ = step_for[cid]
            missing = [p for p in (left, right) if p not in memo]
            if missing:
                todo += missing
            else:
                memo[cid] = memo[left] + memo[right] + (var,)
                todo.pop()
    if tuple(resolved) != memo[clause_id]:
        raise CheckFailed(f"decision chain of clause {clause_id} does not match its derivation")


def check_model(label: str, clauses, num_vars: int, model) -> None:
    """The model assigns every variable and satisfies every clause."""
    if model is None or set(model) != set(range(1, num_vars + 1)):
        raise CheckFailed(f"{label}: the model does not assign exactly variables 1..{num_vars}")
    for clause in clauses:
        if not any(model[abs(l)] == (l > 0) for l in clause):
            raise CheckFailed(f"{label}: the model falsifies clause {clause}")


def check_verdict(label: str, got, expected) -> None:
    if got != expected:
        raise CheckFailed(f"{label}: verdict {got}, expected {expected}")


def check_dimacs(label: str, formula, text: str, parsed, rewritten: str) -> None:
    """Parsing the written text gives back an equal formula (clauses,
    variable count, variable names, metadata), and writing the parsed
    formula again gives the same bytes."""

    def view(f):
        names = [(vid, str(name)) for vid, name in f.atlas.items()]
        return clause_lits(f), f.num_vars, names, dict(f.metadata)

    if view(parsed) != view(formula):
        raise CheckFailed(f"{label}: the DIMACS round trip changed the formula")
    if rewritten != text:
        raise CheckFailed(f"{label}: rewriting the parsed formula changed the DIMACS text")
