"""Resolution engine: single steps, saturation, and decision chains.

Saturation is ordered resolution (Bachmair & Ganzinger, "Resolution
Theorem Proving", Handbook of Automated Reasoning, 2001; Dechter & Rish,
"Directional Resolution: The Davis-Putnam Procedure, Revisited", KR 1994)
in a given-clause loop with width-first selection.  Each run fixes one
atom order: the goal's atoms lowest, in ascending id, then every other
atom by id, so without a goal, or with a goal on variable 1 alone, it is
plain id order.  A clause's greatest literal is the one on its greatest
atom, and a pair of clauses is eligible only when their greatest literals
are complementary; it is resolved on that variable, and counted as a
tautology when the two clash on other variables too.  Every step is one
attempted inference on one variable.

The next given clause is the narrowest unprocessed clause, the lowest id
breaking ties.  If a proper subset of it is stored by then, it is
skipped: it is never resolved and never becomes a partner.  Otherwise
every processed clause that it properly subsumes is withdrawn from the
partners, and the given clause is resolved against every processed
clause still there whose greatest literal is the complement of its own,
in ascending id order, and then joins the processed set.  Skipped and
withdrawn clauses are both counted as `retired`.  So each eligible pair
is tried at most once, when the later-processed clause is given, and runs
are deterministic.  Clause ids are assigned in discovery order (original
clauses first), and every trace step names the older parent as `left`.
Resolvents that are tautologies, too wide, already present, or subsumed
(a proper subset of their literals is stored: forward subsumption, as in
McCune's OTTER 3.0 Reference Manual, 1994) are counted and dropped; the
others join the store, the trace and the unprocessed set.  Skipping a
subsumed given and withdrawing the processed clauses a given subsumes are
backward subsumption (the same manual), done when the given clause is
activated.  The store stays append-only, so ids and traces keep their
meaning.  Ordered resolution that deletes tautologies and subsumed
clauses stays refutation-complete (Bachmair & Ganzinger), and the first
recorded derivation of a clause is the one its decision chain reports.

A run ends at the first stored clause that subsumes its goal (`Budget`).
With the goal's atoms lowest, a saturated store holds a subset of every
clause over those atoms that the formula entails: any assignment to the
goal's atoms that satisfies the stored clauses over them extends, atom by
atom upward, to a model of the store, since two clauses whose greatest
literals clash on the next atom left their resolvent, or a subset of it,
on lower atoms.  A run that dropped an over-width resolvent and then ran
out of clauses ends budget-exhausted, so a saturated goal run shows that
the goal is not entailed: the open depth-3 binomial tree saturates after
6 steps without its root unit.

The loop encodes each stored clause once as one int mask: with
n = num_vars + 1, bit v stands for +v and bit n+v for -v.  A resolvent
is the union of the two masks less the resolved pair, and it is a
tautology when its two halves overlap (Robinson, JACM 1965).  The
store's dict is keyed by mask, and the canonical literal tuple is built
only for resolvents that are stored; `Clause` objects only when a result
is returned.  A novel resolvent or a given clause of width w is tested
for subsumption by walking its 2^w - 2 proper non-empty sub-masks
through that dict, or, when that is more lookups than the store has
clauses, by scanning the stored masks.  `replay_trace` runs every step
through `resolve` on literal tuples, so a replay checks a trace by a
second, independent rule.
"""

from __future__ import annotations

import heapq
from collections import namedtuple
from enum import Enum
from typing import NamedTuple

from .formula import Clause, CnfFormula, make_clause

DEFAULT_MAX_CLAUSES = 1_000_000
DEFAULT_MAX_STEPS = 10_000_000


class Budget(namedtuple("Budget", "max_clauses max_steps max_width goal")):
    """Work limits for saturation; max_width defaults to the formula's
    variable count (no resolvent can be wider anyway).  The run ends at
    the first stored clause that subsumes the goal, which without a goal
    is the empty clause: `empty-derived` if that clause is empty, else
    `goal-derived`.  The goal's atoms come lowest in the run's atom
    order, so a run that saturates without a subsumer shows the formula
    does not entail the goal.  Only when the goal's atoms are already the
    lowest ids (as for a unit on variable 1) is the order that of the run
    without the goal, and the goal run that run cut at its first stored
    subsumer of the goal.  `_replace` does not check its input, so only
    `goal` is replaced that way."""

    __slots__ = ()

    def __new__(
        cls,
        max_clauses: int = DEFAULT_MAX_CLAUSES,
        max_steps: int = DEFAULT_MAX_STEPS,
        max_width: int | None = None,
        goal: Clause | None = None,
    ) -> Budget:
        for name, value in zip(cls._fields, (max_clauses, max_steps, max_width)):
            if value is not None and value < 0:
                raise ValueError(f"{name} must be non-negative, got {value}")
        return tuple.__new__(cls, (max_clauses, max_steps, max_width, goal))


class SaturationStatus(Enum):
    EMPTY_DERIVED = "empty-derived"
    GOAL_DERIVED = "goal-derived"
    SATURATED = "saturated"
    BUDGET_EXHAUSTED = "budget-exhausted"

    def __str__(self) -> str:
        return self.value


class ResolutionDominance(Enum):
    DOMINANT = "dominant"
    NOT_SHOWN = "not-shown"
    BUDGET_EXHAUSTED = "budget-exhausted"

    def __str__(self) -> str:
        return self.value


class ResolutionStep(NamedTuple):
    """`left` and `right` are parent clause ids (left is the older one);
    `var` is the resolved variable; `result` the new clause's id."""

    left: int
    right: int
    var: int
    result: int


class SaturationCounters(NamedTuple):
    steps: int = 0
    added: int = 0
    tautologies: int = 0
    duplicates: int = 0
    over_width: int = 0
    subsumed: int = 0
    retired: int = 0


class SaturationResult(NamedTuple):
    """`stopped_by` names the budget that tripped ("max_clauses",
    "max_steps", or "max_width" when the run dropped an over-width
    resolvent and then ran out of clauses) when the status is
    BUDGET_EXHAUSTED, else None."""

    status: SaturationStatus
    store: tuple[Clause, ...]
    n_original: int
    trace: tuple[ResolutionStep, ...]
    counters: SaturationCounters
    stopped_by: str | None

    def clause_id(self, clause: Clause) -> int | None:
        for i, c in enumerate(self.store):
            if c == clause:
                return i
        return None

    @property
    def derived(self) -> tuple[Clause, ...]:
        return self.store[self.n_original :]


class DecisionChain(NamedTuple):
    """A derived clause and the variables resolved away along its
    derivation, in left-to-right order."""

    clause: Clause
    resolved: tuple[int, ...]


def resolve(c1: Clause, c2: Clause, var: int) -> Clause | None:
    """Resolve two clauses on `var`, which must occur with opposite signs
    in the parents.  Returns the canonical resolvent, or None if it is a
    tautology."""
    if not (var in c1.lits and -var in c2.lits or -var in c1.lits and var in c2.lits):
        raise ValueError(f"parents are not complementary on variable {var}")
    return make_clause(lit for lit in c1.lits + c2.lits if lit != var and lit != -var)


def _mask_of(lits: tuple[int, ...], n: int) -> int:
    """A clause as one int: bit v for the literal +v, bit n+v for -v."""
    mask = 0
    for lit in lits:
        mask |= 1 << (lit if lit > 0 else n - lit)
    return mask


def _lits_of(mask: int, n: int) -> tuple[int, ...]:
    """The canonical literal tuple of a clause mask (no tautologies)."""
    pos = mask & ((1 << n) - 1)
    rest = pos | mask >> n
    lits = []
    while rest:
        low = rest & -rest
        var = low.bit_length() - 1
        lits.append(var if pos & low else -var)
        rest ^= low
    return tuple(lits)


def _subsumed(mask: int, width: int, ids: dict[int, int], masks: list[int]) -> bool:
    """Whether a proper non-empty subset of the clause `mask` is stored;
    the clause itself may be stored (a given clause is).  A narrow clause
    walks its 2^width - 2 proper sub-masks through the store's dict; a
    wider one scans the stored masks, passing over its own, so the test
    never costs more than one pass over the store."""
    if 1 << width <= len(ids):
        sub = (mask - 1) & mask
        while sub:
            if sub in ids:
                return True
            sub = (sub - 1) & mask
        return False
    return any(stored & mask == stored != mask for stored in masks)


def saturate(formula: CnfFormula, budget: Budget | None = None) -> SaturationResult:
    """Resolve to fixpoint, to a stored clause that subsumes the goal
    (`Budget`) or to budget exhaustion by ordered resolution, the goal's
    atoms lowest and the rest by id.  The narrowest unprocessed clause
    (lowest id on ties) is the next given clause, and it is resolved on
    its greatest literal against every processed clause whose greatest
    literal is the complement, unless a later given clause has subsumed
    that partner.  A resolvent that a stored clause subsumes is dropped
    and counted as `subsumed`.  A given clause that a stored clause
    subsumes is skipped, and a processed clause that a given clause
    subsumes is withdrawn from the partners; both are counted as
    `retired`."""
    budget = budget or Budget()
    max_width = budget.max_width if budget.max_width is not None else formula.num_vars
    max_steps = budget.max_steps
    max_clauses = budget.max_clauses
    n = formula.num_vars + 1
    low_half = (1 << n) - 1
    # Literals on variables the formula lacks only widen the goal; no goal
    # is the empty clause.
    goal_lits = budget.goal.lits if budget.goal is not None else ()
    goal_mask = _mask_of(tuple(lit for lit in goal_lits if abs(lit) < n), n)
    # The atoms above the goal's: a clause's greatest atom is its highest
    # one among these, or its highest goal atom when it has none of them.
    upper = low_half & ~(goal_mask | goal_mask >> n)

    def greatest(mask: int) -> int:
        atoms = (mask | mask >> n) & low_half
        var = (atoms & upper or atoms).bit_length() - 1
        return var if mask >> var & 1 else -var

    steps = tautologies = duplicates = over_width = subsumed = retired = 0
    stopped_by = None

    store: list[tuple[int, ...]] = [c.lits for c in formula.clauses]
    masks = [_mask_of(lits, n) for lits in store]
    ids: dict[int, int] = {mask: i for i, mask in enumerate(masks)}
    unprocessed = [(len(lits), i) for i, lits in enumerate(store)]
    heapq.heapify(unprocessed)
    # Processed clauses that are not withdrawn, by each of their literals
    # (to find the ones a given clause subsumes) and by their greatest
    # literal (the partners).  A given clause meets each partner once, so
    # every eligible pair is tried at most once.
    occ: dict[int, set[int]] = {}
    by_greatest: dict[int, set[int]] = {}
    trace: list[ResolutionStep] = []
    n_original = len(store)

    status = SaturationStatus.SATURATED
    if 0 in ids:
        status = SaturationStatus.EMPTY_DERIVED
    elif any(mask & goal_mask == mask for mask in masks):
        status = SaturationStatus.GOAL_DERIVED

    while status is SaturationStatus.SATURATED and unprocessed:
        if len(store) >= max_clauses:
            status, stopped_by = SaturationStatus.BUDGET_EXHAUSTED, "max_clauses"
            break
        _, given = heapq.heappop(unprocessed)
        lits_g = store[given]
        mask_g = masks[given]
        # A given that a stored clause subsumes never joins the partners.
        if _subsumed(mask_g, len(lits_g), ids, masks):
            retired += 1
            continue
        # The processed clauses that the given one subsumes leave the
        # partners: the given clause covers every resolvent they yield.
        first, *rest = (occ.get(lit, set()) for lit in lits_g)
        for j in first.intersection(*rest):
            for lit in store[j]:
                occ[lit].discard(j)
            by_greatest[greatest(masks[j])].discard(j)
            retired += 1
        top = greatest(mask_g)
        var = abs(top)
        pair = 1 << var | 1 << (var + n)
        for j in sorted(by_greatest.get(-top, ())):
            if steps >= max_steps:
                status, stopped_by = SaturationStatus.BUDGET_EXHAUSTED, "max_steps"
                break
            steps += 1
            resolvent = (mask_g | masks[j]) ^ pair
            if resolvent & resolvent >> n:
                # The parents clash on another variable too.
                tautologies += 1
                continue
            width = resolvent.bit_count()
            if width > max_width:
                over_width += 1
                continue
            if resolvent in ids:
                duplicates += 1
                continue
            if _subsumed(resolvent, width, ids, masks):
                subsumed += 1
                continue
            new_id = len(store)
            ids[resolvent] = new_id
            masks.append(resolvent)
            lits = _lits_of(resolvent, n)
            store.append(lits)
            heapq.heappush(unprocessed, (len(lits), new_id))
            trace.append(ResolutionStep(min(j, given), max(j, given), var, new_id))
            if resolvent & goal_mask == resolvent:
                status = (
                    SaturationStatus.GOAL_DERIVED if resolvent else SaturationStatus.EMPTY_DERIVED
                )
                break
            if len(store) >= max_clauses:
                status, stopped_by = SaturationStatus.BUDGET_EXHAUSTED, "max_clauses"
                break
        for lit in lits_g:
            occ.setdefault(lit, set()).add(given)
        by_greatest.setdefault(top, set()).add(given)
    if status is SaturationStatus.SATURATED and over_width:
        # A dropped resolvent might have led to the goal.
        status, stopped_by = SaturationStatus.BUDGET_EXHAUSTED, "max_width"

    counters = SaturationCounters(
        steps, len(trace), tautologies, duplicates, over_width, subsumed, retired
    )
    clauses = formula.clauses + tuple(Clause._unchecked(lits) for lits in store[n_original:])
    return SaturationResult(status, clauses, n_original, tuple(trace), counters, stopped_by)


def _ancestry(
    result: SaturationResult, clause_id: int
) -> tuple[dict[int, ResolutionStep], list[int]]:
    """The step that recorded each derived clause, and the ids of a clause
    and all its ancestors in ascending order.  Ascending is topological:
    a resolvent's id is always greater than both its parents' ids."""
    if not 0 <= clause_id < len(result.store):
        raise ValueError(f"unknown clause id {clause_id}")
    step_for = {s.result: s for s in result.trace}
    keep: set[int] = set()
    todo = [clause_id]
    while todo:
        cid = todo.pop()
        if cid in keep:
            continue
        keep.add(cid)
        if cid in step_for:
            todo += [step_for[cid].left, step_for[cid].right]
    return step_for, sorted(keep)


def decision_chain_of(result: SaturationResult, clause_id: int) -> DecisionChain:
    """Chain of resolved variables along the recorded (first) derivation."""
    step_for, ancestors = _ancestry(result, clause_id)
    chain: dict[int, tuple[int, ...]] = {}
    for cid in ancestors:
        step = step_for.get(cid)
        chain[cid] = () if step is None else chain[step.left] + chain[step.right] + (step.var,)
    return DecisionChain(result.store[clause_id], chain[clause_id])


def is_dominant_by_resolution(
    formula: CnfFormula, lit: int, budget: Budget | None = None
) -> ResolutionDominance:
    """DOMINANT iff saturation stores a clause that subsumes the unit
    {lit} in budget, the unit or the empty clause; the run stops there.
    DOMINANT means the formula entails {lit}, vacuously when it is
    unsatisfiable, such as the matched composition, where
    `oracle.is_dominant` says False because it also needs a model.
    NOT_SHOWN follows only a saturated run."""
    if not 1 <= abs(lit) <= formula.num_vars:
        raise ValueError(f"variable {abs(lit)} not in formula")
    result = saturate(formula, (budget or Budget())._replace(goal=Clause((lit,))))
    if result.status in (SaturationStatus.GOAL_DERIVED, SaturationStatus.EMPTY_DERIVED):
        return ResolutionDominance.DOMINANT
    if result.status is SaturationStatus.BUDGET_EXHAUSTED:
        return ResolutionDominance.BUDGET_EXHAUSTED
    return ResolutionDominance.NOT_SHOWN


def replay_trace(formula: CnfFormula, trace: tuple[ResolutionStep, ...]) -> list[Clause]:
    """Re-run a recorded trace from the original clauses; raises if any
    step fails to reproduce.  Returns the reconstructed store."""
    store = list(formula.clauses)
    for step in trace:
        try:
            resolvent = resolve(store[step.left], store[step.right], step.var)
        except ValueError as exc:
            raise ValueError(f"step {step}: {exc}") from None
        if resolvent is None:
            raise ValueError(f"step {step} resolves to a tautology on replay")
        if step.result != len(store):
            raise ValueError(f"step {step} out of order on replay")
        store.append(resolvent)
    return store


def export_trace(result: SaturationResult) -> str:
    """One line per recorded step: '<left> <right> <var> -> <id> : <lits>'."""
    lines = [
        f"{s.left} {s.right} {s.var} -> {s.result} : {result.store[s.result]}"
        for s in result.trace
    ]
    return "\n".join(lines) + ("\n" if lines else "")


def export_chain_dot(result: SaturationResult, clause_id: int) -> str:
    """Ancestry of one derived clause as a DOT graph: nodes are clauses,
    edges run parent -> resolvent labeled with the resolved variable."""
    step_for, ancestors = _ancestry(result, clause_id)
    lines = ["digraph chain {"]
    for cid in ancestors:
        shape = "box" if cid < result.n_original else "ellipse"
        lines.append(f'  c{cid} [label="#{cid}: {result.store[cid]}" shape={shape}];')
    for cid in ancestors:
        if cid in step_for:
            step = step_for[cid]
            lines.append(f'  c{step.left} -> c{cid} [label="{step.var}"];')
            lines.append(f'  c{step.right} -> c{cid} [label="{step.var}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
