"""Satisfiability referees: exhaustive enumeration and DPLL.

Both oracles are deterministic.  The brute-force referee enumerates
assignments in lexicographic order (variable 1 most significant, False
before True) and returns the first model; DPLL uses unit propagation and
pure-literal elimination with a fixed branching rule (lowest variable id,
True branch first).  Sat verdicts are re-verified against every clause
before they are returned.

Brute force evaluates the last 16 variables as one 2^16-bit truth table
per clause, held in a Python integer, and loops over the values of the
rest (the outer bits).  The clauses with no outer literal are ANDed
together once, before that loop; at each outer value the others are
skipped when an outer literal is true, and ANDed in otherwise.

DPLL builds its state once per call: an occurrence list per literal,
per-clause counts of true literals and of literals not yet false, a count
per literal of the open clauses that hold it, and a heap of the open
clauses with at most one literal left.  An assignment updates them through
the literal's occurrences and goes on a trail; a backtrack pops the trail
back to the branch's mark and undoes each update (Eén & Sörensson, "An
Extensible SAT-solver", SAT 2003).  Pure literals are looked for only among
variables whose count just fell to zero, and the branch variable only above
the branch that led to the node, so no step scans every variable.  Units
are taken by original clause order, so watched literals, which find them in
another order, are not used.
"""

from __future__ import annotations

from enum import Enum
from heapq import heappop, heappush
from typing import NamedTuple

from .formula import Clause, CnfFormula, make_clause

BRUTE_FORCE_VAR_CAP = 28

# Assignments are evaluated in blocks of 2**_CHUNK_BITS at once, as bit
# vectors held in Python integers.  On the compositions at k = 3 and 4
# (17 and 27 variables), blocks of 12, 14, 16, 18 and 20 bits took 19, 4.6,
# 2.1, 3.9 and 16 ms: small blocks loop in Python more, large ones AND
# longer integers.
_CHUNK_BITS = 16


class Verdict(Enum):
    SAT = "sat"
    UNSAT = "unsat"

    def __str__(self) -> str:
        return self.value


class OracleVerdict(NamedTuple):
    status: Verdict
    model: dict[int, bool] | None
    nodes: int
    propagations: int

    @property
    def is_sat(self) -> bool:
        return self.status is Verdict.SAT


def _check_model(formula: CnfFormula, model: dict[int, bool]) -> None:
    """Raise on the first clause that no literal true in `model` meets; a
    variable the model leaves out counts as False."""
    true_lits = {v if model.get(v, False) else -v for v in range(1, formula.num_vars + 1)}
    for clause in formula.clauses:
        if true_lits.isdisjoint(clause.lits):
            raise AssertionError(f"model fails clause {clause}")


def _bit_table(position: int, size_bits: int) -> int:
    """Truth table of mask bit `position` over all masks 0..size_bits-1,
    packed as an integer: bit j is set iff (j >> position) & 1."""
    block = 1 << position
    table = ((1 << block) - 1) << block
    span = block << 1
    while span < size_bits:
        table |= table << span
        span <<= 1
    return table


def brute_force_sat(formula: CnfFormula) -> OracleVerdict:
    """Try every assignment; Sat verdicts carry the lexicographically
    first model.  Refuses formulas above BRUTE_FORCE_VAR_CAP variables."""
    n = formula.num_vars
    if n > BRUTE_FORCE_VAR_CAP:
        raise ValueError(
            f"{n} variables exceeds the brute-force cap of {BRUTE_FORCE_VAR_CAP}; use dpll_sat"
        )
    # Mask bit n-i holds variable i so that integer order equals
    # lexicographic order over (x1, ..., xn) with False < True.  The low
    # _CHUNK_BITS mask bits are swept as one truth-table block per
    # iteration; the outer loop enumerates the remaining high bits.  Each
    # clause keeps its block mask and, as `pos` and `neg`, the outer bits
    # of its positive and negative literals; one with neither is ANDed
    # into `base` once, ahead of the outer loop.
    low = min(n, _CHUNK_BITS)
    size = 1 << low
    full = (1 << size) - 1
    tables = [_bit_table(b, size) for b in range(low)]

    base = full
    outer_clauses = []
    for clause in formula.clauses:
        low_mask = pos = neg = 0
        for lit in clause.lits:
            bit = n - abs(lit)
            if bit < low:
                low_mask |= tables[bit] if lit > 0 else full ^ tables[bit]
            elif lit > 0:
                pos |= 1 << (bit - low)
            else:
                neg |= 1 << (bit - low)
        if pos or neg:
            outer_clauses.append((low_mask, pos, neg))
        else:
            base &= low_mask

    for h in range(1 << (n - low)):
        alive = base
        for low_mask, pos, neg in outer_clauses:
            if h & pos or ~h & neg:
                continue
            alive &= low_mask
            if not alive:
                break
        if alive:
            m = (h << low) | ((alive & -alive).bit_length() - 1)
            model = {i: bool(m >> (n - i) & 1) for i in range(1, n + 1)}
            _check_model(formula, model)
            return OracleVerdict(Verdict.SAT, model, m + 1, 0)
    return OracleVerdict(Verdict.UNSAT, None, 1 << n, 0)


def dpll_sat(formula: CnfFormula) -> OracleVerdict:
    """Unit propagation + pure literals + deterministic branching over
    occurrence lists and per-clause counters.  The first short clause in
    original order is taken next (an empty one is a conflict); with none,
    every pure literal is set at once in ascending variable order; with
    neither, the lowest variable still in an open clause is branched on,
    True first.  Unset variables are False in a model.  One loop runs over
    a stack of untried branches; a backtrack undoes the trail back to the
    branch's mark, so search depth is not bounded by the recursion limit."""
    n = formula.num_vars
    clauses = [c.lits for c in formula.clauses]
    # Tables indexed by a literal have 2n + 1 slots: literal v sits at
    # index v and literal -v at index -v, which Python counts from the end.
    occurs: list[list[int]] = [[] for _ in range(2 * n + 1)]
    for i, lits in enumerate(clauses):
        for lit in lits:
            occurs[lit].append(i)
    in_open = [len(ids) for ids in occurs]  # open clauses holding the literal
    true_count = [0] * len(clauses)  # a clause is open while this is 0
    live = [len(lits) for lits in clauses]  # literals not yet false
    value = [0] * (n + 1)  # per variable: 1 true, -1 false, 0 unset
    # Open clauses with at most one live literal, by original index; an
    # entry whose clause has since been satisfied is dropped when seen.
    short = [i for i, width in enumerate(live) if width < 2]
    # Variables that may have become pure: one of their literals has left
    # its last open clause.  At the root every variable is a candidate.
    pure = list(range(1, n + 1))
    trail: list[int] = []

    def assign(lit: int) -> bool:
        """Set `lit` true; False if that leaves an open clause empty."""
        value[abs(lit)] = 1 if lit > 0 else -1
        trail.append(lit)
        for i in occurs[lit]:
            if not true_count[i]:
                for l in clauses[i]:
                    in_open[l] -= 1
                    if not in_open[l]:
                        pure.append(abs(l))
            true_count[i] += 1
        ok = True
        for i in occurs[-lit]:
            live[i] -= 1
            if not true_count[i] and live[i] < 2:
                if live[i]:
                    heappush(short, i)
                else:
                    ok = False
        return ok

    def undo(mark: int) -> None:
        while len(trail) > mark:
            lit = trail.pop()
            value[abs(lit)] = 0
            for i in occurs[lit]:
                true_count[i] -= 1
                if not true_count[i]:
                    for l in clauses[i]:
                        in_open[l] += 1
            for i in occurs[-lit]:
                live[i] += 1

    nodes = propagations = 0
    # Untried branches as (trail length to restore, branch literal);
    # literal 0 is the root, which sets nothing.
    stack = [(0, 0)]
    while stack:
        mark, lit = stack.pop()
        if lit:
            undo(mark)
            # A mark is only taken where no open clause is short and no
            # variable is pure, so nothing left in either list is live; and
            # every open clause has two unset literals, so `lit` empties none.
            short.clear()
            pure.clear()
            assign(lit)
        nodes += 1
        # Units first (the first in clause order), then every pure literal,
        # until neither applies.  An empty clause is a conflict.
        while True:
            while short and true_count[short[0]]:
                heappop(short)
            if short:
                i = short[0]
                if not live[i]:
                    break
                propagations += 1
                if not assign(next(l for l in clauses[i] if not value[abs(l)])):
                    break
                continue
            if pure:
                # Signs are read before any is set: setting one pure literal
                # can take another variable out of every open clause.
                forced = [
                    v if in_open[v] else -v
                    for v in sorted(set(pure))
                    if not value[v] and (not in_open[v]) != (not in_open[-v])
                ]
                pure.clear()
                if forced:
                    for l in forced:
                        propagations += 1
                        assign(l)
                    continue
            # Every variable below the branch that led here is set or in no
            # open clause, so the lowest one still open is found from there.
            # With none, no clause is open: an open one would be short.
            var = abs(lit) or 1
            while var <= n and (value[var] or not (in_open[var] or in_open[-var])):
                var += 1
            if var > n:
                model = {v: value[v] > 0 for v in range(1, n + 1)}
                _check_model(formula, model)
                return OracleVerdict(Verdict.SAT, model, nodes, propagations)
            stack.append((len(trail), -var))
            stack.append((len(trail), var))
            break
    return OracleVerdict(Verdict.UNSAT, None, nodes, propagations)


def is_dominant(formula: CnfFormula, lit: int, oracle=dpll_sat) -> bool:
    """True iff the formula is satisfiable and forces `lit` true in every
    model (the literal's complement makes it unsatisfiable)."""
    if not 1 <= abs(lit) <= formula.num_vars:
        raise ValueError(f"variable {abs(lit)} not in formula")
    return oracle(formula).is_sat and entails(formula, Clause((lit,)), oracle)


def entails(formula: CnfFormula, clause: Clause, oracle=dpll_sat) -> bool:
    """True iff every model of the formula satisfies `clause` (checked by
    refuting formula plus the negated clause literals)."""
    for lit in clause.lits:
        if abs(lit) > formula.num_vars:
            raise ValueError(f"variable {abs(lit)} not in formula")
    negated = [make_clause([-l]) for l in clause.lits]
    return not oracle(formula.with_extra(negated)).is_sat
