"""Satisfiability referees: exhaustive enumeration and DPLL.

Both oracles are deterministic.  The brute-force referee enumerates
assignments in lexicographic order (variable 1 most significant, False
before True) and returns the first model; DPLL uses unit propagation and
pure-literal elimination with a fixed branching rule (lowest variable id,
True branch first).  Sat verdicts are re-verified against every clause
before they are returned.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .formula import Clause, CnfFormula, make_clause

BRUTE_FORCE_VAR_CAP = 28

# Assignments are evaluated in blocks of 2**_CHUNK_BITS at once, as bit
# vectors held in Python integers.
_CHUNK_BITS = 20


class Verdict(Enum):
    SAT = "sat"
    UNSAT = "unsat"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class OracleVerdict:
    status: Verdict
    model: dict[int, bool] | None
    nodes: int
    propagations: int

    @property
    def is_sat(self) -> bool:
        return self.status is Verdict.SAT


def _check_model(formula: CnfFormula, model: dict[int, bool]) -> None:
    for clause in formula.clauses:
        if not any(model.get(abs(l), False) == (l > 0) for l in clause.lits):
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


def brute_force_sat(formula: CnfFormula, max_vars: int = BRUTE_FORCE_VAR_CAP) -> OracleVerdict:
    """Try every assignment; Sat verdicts carry the lexicographically
    first model.  Refuses formulas above `max_vars` variables."""
    n = formula.num_vars
    if n > max_vars:
        raise ValueError(
            f"{n} variables exceeds the brute-force cap of {max_vars}; "
            "raise max_vars explicitly or use dpll_sat"
        )
    # Mask bit n-i holds variable i so that integer order equals
    # lexicographic order over (x1, ..., xn) with False < True.  The low
    # mask bits are swept as one truth-table block per iteration; the
    # remaining high bits are enumerated by the outer loop.
    low = min(n, _CHUNK_BITS)
    size = 1 << low
    full = (1 << size) - 1
    tables = [_bit_table(b, size) for b in range(low)]

    clause_info = []
    for clause in formula.clauses:
        low_mask = 0
        high_lits = []
        for lit in clause.lits:
            bit = n - abs(lit)
            if bit < low:
                low_mask |= tables[bit] if lit > 0 else full ^ tables[bit]
            else:
                high_lits.append((bit - low, lit > 0))
        clause_info.append((low_mask, high_lits))

    for h in range(1 << (n - low)):
        alive = full
        for low_mask, high_lits in clause_info:
            if any((h >> hb & 1) == want for hb, want in high_lits):
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


def _simplify(clauses: list[tuple[int, ...]], lit: int) -> list[tuple[int, ...]] | None:
    """Assign `lit` true: drop satisfied clauses, strip the complement.
    Returns None on an emptied clause (conflict)."""
    out: list[tuple[int, ...]] = []
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


def dpll_sat(formula: CnfFormula) -> OracleVerdict:
    """Unit propagation + pure literals + deterministic branching, run as
    one loop over a stack of untried branches and a trail of the literals
    set true, so search depth is not bounded by the recursion limit."""
    nodes = propagations = 0
    trail: list[int] = []
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
                polarity: dict[int, int] = {}
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


def is_dominant(formula: CnfFormula, lit: int, oracle=dpll_sat) -> bool:
    """True iff the formula is satisfiable and forces `lit` true in every
    model (the literal's complement makes it unsatisfiable)."""
    if not 1 <= abs(lit) <= formula.num_vars:
        raise ValueError(f"variable {abs(lit)} not in formula")
    if not oracle(formula).is_sat:
        return False
    blocked = formula.with_extra([make_clause([-lit])])
    return not oracle(blocked).is_sat


def entails(formula: CnfFormula, clause: Clause, oracle=dpll_sat) -> bool:
    """True iff every model of the formula satisfies `clause` (checked by
    refuting formula plus the negated clause literals)."""
    for var in clause.variables():
        if var > formula.num_vars:
            raise ValueError(f"variable {var} not in formula")
    negated = [make_clause([-l]) for l in clause.lits]
    return not oracle(formula.with_extra(negated)).is_sat
