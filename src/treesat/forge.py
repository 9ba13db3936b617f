"""Generators for CNF families that hide a forced unit behind pair choices.

All families share one trick: a clause (e | a | b) plus the switching
clauses (e | a | ~b) and (e | ~a | b) force a AND b wherever the entry
literal e is false, while resolution must pick the pair member to keep.
Chains link such triples in a line; trees share pair variables between
row neighbours so the number of root-to-boundary resolution paths grows
as binomial coefficients.  Closing the structure back onto the root
variable turns the whole formula into a disguised unit clause.

Generators are deterministic: same spec and seed give byte-identical
DIMACS output.  The redundancy draw rests on `random.Random.getrandbits`
alone, so it does not depend on how `random.shuffle` is written.  The
root variable is always registered first (id 1).
"""

from __future__ import annotations

import random
from bisect import bisect_right
from collections import namedtuple
from enum import Enum
from itertools import accumulate
from typing import Callable, NamedTuple

from .formula import (
    ROOT,
    Atlas,
    Clause,
    CnfFormula,
    build_formula,
    make_clause,
    parse_int,
    parse_var_name,
    slot_name,
)


class Closure(NamedTuple):
    """How a pair-sharing tree closes onto its root at boundary slot `row`:
    kind "alias" writes the root literal into the slot, kind "clause"
    adds the implication (~slot | root) instead."""

    kind: str
    row: int = 1


class NamedLit(namedtuple("NamedLit", "name negated")):
    """A literal over a named variable, before ids are assigned."""

    __slots__ = ()

    def __new__(cls, name: str, negated: bool = False) -> NamedLit:
        return tuple.__new__(cls, (parse_var_name(name), negated))

    def __str__(self) -> str:
        return ("~" if self.negated else "") + self.name

    @classmethod
    def parse(cls, text: str) -> NamedLit:
        negated = text.startswith("~")
        return cls(text[1:] if negated else text, negated)


class RedundancySpec(namedtuple("RedundancySpec", "node count seed")):
    """`count` entailed clauses for a tree node, drawn by `seed`.  A
    negative seed is refused: `random.Random` seeds with its absolute
    value, so it would draw the clauses of another recipe."""

    __slots__ = ()

    def __new__(cls, node: tuple[int, int], count: int, seed: int) -> RedundancySpec:
        if count < 1:
            raise ValueError("count must be at least 1")
        if seed < 0:
            raise ValueError(f"redundancy seed must be non-negative, got {seed}")
        return tuple.__new__(cls, (node, count, seed))


class TreeSpec(NamedTuple):
    """Recipe for one generated formula of the pair-sharing tree family.
    Redundancy clauses are drawn from a node's cone as the closure,
    substitutions and implicit nodes alias it."""

    k: int = 3
    closure: Closure | None = Closure("alias")
    substitutions: tuple[tuple[str, NamedLit], ...] = ()
    implicit_nodes: tuple[tuple[tuple[int, int], str], ...] = ()
    redundancy: tuple[RedundancySpec, ...] = ()
    root_negated: bool = False


class Closing(Enum):
    MATCHED = "matched"
    CROSSED = "crossed"

    def __str__(self) -> str:
        return self.value


# ---------------------------------------------------------------------------
# emission plumbing


class _Emitter:
    """Accumulates clauses against a shared atlas, resolving slot names
    through a substitution map (aliases, substitutions, implicit nodes).
    A name is bound to a literal or to another name, which `lit` resolves
    in turn when the name is used."""

    def __init__(self) -> None:
        self.atlas = Atlas()
        self.clauses: list[Clause] = []
        self.sub: dict[str, int | str] = {}

    def lit(self, name: str, negated: bool = False) -> int:
        target = self.sub.get(name)
        if target is None:
            resolved = self.atlas.register(name)
        elif isinstance(target, int):
            resolved = target
        else:
            resolved = self.lit(target)
        return -resolved if negated else resolved

    def bind(self, name: str, target: int | str) -> None:
        self.sub[name] = target

    def add(self, *lits: int) -> None:
        clause = make_clause(lits)
        if clause is None:
            raise self.tautology(lits)
        self.clauses.append(clause)

    def tautology(self, lits, what: str = "") -> ValueError:
        """The error for a generated clause that substitutions or implicit
        nodes made tautologous, its literals written by atlas name."""
        names = " ".join(("~" if l < 0 else "") + self.atlas.name_of(abs(l)) for l in lits)
        return ValueError(
            f"a substitution or implicit node makes a generated clause tautologous: {what}{names}"
        )


def _emit_triple(em: _Emitter, entry: int, a: int, b: int) -> None:
    """The decision triple: entry false forces both pair members true.

    Over three distinct variables the switching clauses are the canonical
    tuple of (entry a b) with the sign of b, then of a, flipped.  Fewer
    variables mean a substitution or implicit node merged two of them,
    and one of the three clauses is then a tautology."""
    lits = sorted((entry, a, b), key=abs)
    if not abs(lits[0]) < abs(lits[1]) < abs(lits[2]):
        raise em.tautology((entry, a, b), "decision triple ")
    first = tuple(lits)
    i, j = lits.index(a), lits.index(b)
    lits[j] = -b
    no_b = tuple(lits)
    lits[i], lits[j] = -a, b
    em.clauses += (Clause._unchecked(first), Clause._unchecked(no_b), Clause._unchecked(tuple(lits)))


def _emit_binomial(
    em: _Emitter,
    k: int,
    root_lit: int,
    closure: Closure | None,
    alias_lit: int | None = None,
    tree: int = 0,
    implicit: frozenset[tuple[int, int]] = frozenset(),
) -> None:
    """Emit a depth-k pair-sharing tree entered through `root_lit`; an
    implicit node keeps only the first clause of its triple."""
    kind = None if closure is None else closure.kind
    if kind not in (None, "alias", "clause"):
        raise ValueError(f"bad closure kind {kind!r}; expected alias or clause")
    if closure is not None and not 1 <= closure.row <= k + 1:
        raise ValueError(f"closure row {closure.row} outside boundary 1..{k + 1}")
    if kind == "alias":
        if k == 1:
            # At k = 1 the alias would write the root into its own triple.
            raise ValueError("an alias closure needs depth at least 2 (use clause:ROW or none)")
        em.bind(slot_name(k + 1, closure.row, tree), alias_lit if alias_lit is not None else root_lit)
    # Each level's boundary slots are looked up once, in ascending row
    # order (the order that registers them), and enter the next level.
    entries = [root_lit]
    for level in range(1, k + 1):
        slots = [em.lit(slot_name(level + 1, row, tree)) for row in range(1, level + 2)]
        for row, (entry, a, b) in enumerate(zip(entries, slots, slots[1:]), start=1):
            if (level, row) in implicit:
                em.add(entry, a, b)
            else:
                _emit_triple(em, entry, a, b)
        entries = [-slot for slot in slots]
    if kind == "clause":
        em.add(em.lit(slot_name(k + 1, closure.row, tree), negated=True), root_lit)


# Each recipe field is written to `c meta` in the text that its
# `generate` flag reads, and the parsers below (with `NamedLit.parse`)
# read it back.


def _closure_text(closure: Closure | None) -> str:
    return "none" if closure is None else f"{closure.kind}:{closure.row}"


def parse_closure(text: str) -> Closure | None:
    if text == "none":
        return None
    kind, _, row = text.partition(":")
    try:
        if kind in ("alias", "clause"):
            return Closure(kind, parse_int(row))
    except ValueError:
        pass
    raise ValueError(f"bad closure {text!r}; expected alias:ROW, clause:ROW, or none")


def _parse_node(text: str) -> tuple[int, int]:
    try:
        level, row = text.split(".")
        return parse_int(level), parse_int(row)
    except ValueError as exc:
        raise ValueError(f"expected a node as LEVEL.ROW, got {text!r}") from exc


def _is_slot(name: str) -> bool:
    return parse_var_name(name)[0] in "st"


def parse_substitution(text: str) -> tuple[str, NamedLit]:
    slot, _, lit_text = text.partition("=")
    if not lit_text:
        raise ValueError(f"expected a substitution as SLOT=LIT, got {text!r}")
    if not _is_slot(slot):
        raise ValueError(f"substitutions bind slot variables, got {slot!r}")
    return slot, NamedLit.parse(lit_text)


def parse_implicit(text: str) -> tuple[tuple[int, int], str]:
    node_text, _, via = text.partition("=")
    if not via:
        raise ValueError(f"expected an implicit node as LEVEL.ROW=SLOT, got {text!r}")
    if not _is_slot(via):
        raise ValueError(f"the via variable must be a slot, got {via!r}")
    return _parse_node(node_text), via


def parse_redundancy(text: str) -> RedundancySpec:
    """LEVEL.ROW:COUNT[:SEED]; the seed defaults to 0."""
    node_text, _, numbers = text.partition(":")
    count_text, colon, seed_text = numbers.partition(":")
    try:
        count, seed = parse_int(count_text), parse_int(seed_text) if colon else 0
    except ValueError as exc:
        raise ValueError(f"expected redundancy as LEVEL.ROW:COUNT[:SEED], got {text!r}") from exc
    return RedundancySpec(_parse_node(node_text), count, seed)


def _finish(em: _Emitter, metadata: dict[str, str]) -> CnfFormula:
    return build_formula(em.clauses, num_vars=len(em.atlas), atlas=em.atlas, metadata=metadata)


# ---------------------------------------------------------------------------
# chain families


def build_unit_chain(k: int) -> CnfFormula:
    """k width-2 clauses over x1..xk whose cycle closes onto x1:
    (x1 | x2), (~xi | xi+1), (~xk | x1).  Resolution walks the chain and
    produces the unit x1 after k - 1 steps."""
    if k < 2:
        raise ValueError("unit chain needs at least two variables")
    em = _Emitter()
    ids = [em.lit(ROOT)] + [em.lit(f"x{i}.1") for i in range(2, k + 1)]
    em.add(ids[0], ids[1])
    for i in range(1, k - 1):
        em.add(-ids[i], ids[i + 1])
    em.add(-ids[k - 1], ids[0])
    return _finish(em, {"family": "unit-chain", "k": str(k)})


def build_pair_chain(k: int) -> CnfFormula:
    """Decision triples chained in a line, closed back onto the root.

    Step i introduces the pair (xi.1, xi.2); its triple is entered by the
    previous step's kept variable.  The closing triple pairs one fresh
    slot with the root so its pair resolvent is (~xk.1 | x1.1), which
    completes the cycle exactly like the unit chain."""
    if k < 2:
        raise ValueError("pair chain needs at least two steps")
    em = _Emitter()
    root = em.lit(ROOT)
    kept = root
    for i in range(2, k + 1):
        entry = kept if i == 2 else -kept
        a = em.lit(f"x{i}.1")
        b = em.lit(f"x{i}.2")
        _emit_triple(em, entry, a, b)
        kept = a
    tail = em.lit(f"x{k + 1}.1")
    _emit_triple(em, -kept, tail, root)
    return _finish(em, {"family": "pair-chain", "k": str(k)})


# ---------------------------------------------------------------------------
# tree families


def build_binary_tree(k: int) -> CnfFormula:
    """Perfect binary tree of decision triples to depth k; no pair
    sharing, so every boundary position has exactly one path."""
    if k < 1:
        raise ValueError("binary tree depth must be at least 1")
    em = _Emitter()
    root = em.lit(ROOT)
    for level in range(1, k + 1):
        for index in range(1, 2**level + 1):
            em.lit(f"b{level}.{index}")
    for level in range(0, k):
        for index in range(1, 2**level + 1):
            entry = root if level == 0 else em.lit(f"b{level}.{index}", negated=True)
            a = em.lit(f"b{level + 1}.{2 * index - 1}")
            b = em.lit(f"b{level + 1}.{2 * index}")
            _emit_triple(em, entry, a, b)
    return _finish(em, {"family": "binary", "k": str(k)})


def build_binomial_tree(spec: TreeSpec) -> CnfFormula:
    """Pair-sharing tree per `spec`: nodes (level, row) for row <= level
    <= k, node (l, r) pairing slots (l+1, r) and (l+1, r+1), so adjacent
    nodes share one slot and boundary row arrivals count binomially."""
    if spec.k < 1:
        raise ValueError("tree depth must be at least 1")
    em = _Emitter()
    root = em.lit(ROOT)
    root_lit = -root if spec.root_negated else root
    _apply_substitutions(em, spec)
    _bind_implicit(em, spec)
    implicit = frozenset(node for node, _ in spec.implicit_nodes)
    _emit_binomial(em, spec.k, root_lit, spec.closure, implicit=implicit)
    metadata = {
        "family": "binomial",
        "k": str(spec.k),
        "closure": _closure_text(spec.closure),
    }
    if spec.root_negated:
        metadata["root"] = "neg"
    if spec.substitutions:
        metadata["substitutions"] = ";".join(
            f"{slot}={lit}" for slot, lit in spec.substitutions
        )
    for red in spec.redundancy:
        _add_redundancy(em, spec.k, root_lit, red)
    tags = {
        "redundancy": [f"{r.node[0]}.{r.node[1]}:{r.count}:{r.seed}" for r in spec.redundancy],
        "implicit": [f"{level}.{row}={via}" for (level, row), via in spec.implicit_nodes],
    }
    return _finish(em, metadata | {key: ";".join(items) for key, items in tags.items() if items})


def _aliased_slot(spec: TreeSpec) -> str | None:
    """The boundary slot that an alias closure writes the root into."""
    closure = spec.closure
    if closure is None or closure.kind != "alias":
        return None
    return slot_name(spec.k + 1, closure.row)


def _apply_substitutions(em: _Emitter, spec: TreeSpec) -> None:
    if not spec.substitutions:
        return
    slots = {slot_name(b, r) for b in range(2, spec.k + 2) for r in range(1, b + 1)}
    seen: set[str] = set()
    for slot, replacement in spec.substitutions:
        if slot not in slots:
            raise ValueError(f"substitution of a nonexistent slot {slot}")
        if slot in seen:
            raise ValueError(f"slot {slot} substituted twice")
        if slot == _aliased_slot(spec):
            raise ValueError(f"slot {slot} was aliased away by the closure")
        if replacement.name != ROOT and replacement.name[0] != "z":
            raise ValueError("replacement must be the root or a fresh variable")
        seen.add(slot)
        em.bind(slot, em.lit(replacement.name, replacement.negated))


def compose_two_trees(k: int, closing: Closing) -> CnfFormula:
    """Two depth-k trees sharing only the root variable: one entered when
    the root is false, one when it is true.  MATCHED closures write each
    tree's own entry literal into its boundary (jointly unsatisfiable);
    CROSSED closures swap them (satisfiable either way)."""
    if k < 2:
        # At k = 1 the closure would alias the root into its own triple.
        raise ValueError(f"composition depth must be at least 2, got {k}")
    em = _Emitter()
    root = em.lit(ROOT)
    flip = -1 if closing is Closing.CROSSED else 1
    _emit_binomial(em, k, root, Closure("alias"), alias_lit=flip * root, tree=0)
    _emit_binomial(em, k, -root, Closure("alias"), alias_lit=flip * -root, tree=1)
    return _finish(em, {"family": f"compose-{closing}", "k": str(k)})


def build_multi_branching(k_top: int, k_sub: int = 1) -> CnfFormula:
    """A depth-k_top tree whose last level uses disjoint pair variables
    (no sharing between row neighbours); each of the 2*k_top distinct
    boundary variables then enters its own depth-k_sub pair-sharing
    subtree.  No closure anywhere, so the formula stays satisfiable."""
    if k_top < 2:
        raise ValueError("multi-branching needs a top depth of at least 2")
    if k_sub < 1:
        raise ValueError("subtree depth must be at least 1")
    em = _Emitter()
    root = em.lit(ROOT)
    _emit_binomial(em, k_top - 1, root, None)
    # Last top level: rows 2r-1 and 2r of the boundary namespace make the
    # pairs disjoint; each such variable roots an attached subtree.
    branch_roots: list[int] = []
    for row in range(1, k_top + 1):
        entry = em.lit(slot_name(k_top, row), negated=True)
        a = em.lit(slot_name(k_top + 1, 2 * row - 1))
        b = em.lit(slot_name(k_top + 1, 2 * row))
        _emit_triple(em, entry, a, b)
        branch_roots += [a, b]
    for j, branch in enumerate(branch_roots, start=1):
        _emit_binomial(em, k_sub, -branch, None, tree=j)
    return _finish(em, {"family": "multi-branching", "k": str(k_top), "k_sub": str(k_sub)})


# Every instance family by name, built from its depth k at default
# settings: the command line and the bench sweep both draw on this map.
FAMILIES: dict[str, Callable[[int], CnfFormula]] = {
    "unit-chain": build_unit_chain,
    "pair-chain": build_pair_chain,
    "binary": build_binary_tree,
    "binomial": lambda k: build_binomial_tree(TreeSpec(k=k)),
    "compose-matched": lambda k: compose_two_trees(k, Closing.MATCHED),
    "compose-crossed": lambda k: compose_two_trees(k, Closing.CROSSED),
    "multi-branching": build_multi_branching,
}


# ---------------------------------------------------------------------------
# transforms applied while a pair-sharing tree is built


def _cone_slots(node: tuple[int, int], k: int) -> list[str]:
    """Boundary slots reachable from a node: rows fan out one per level."""
    level, row = node
    if not 1 <= row <= level <= k:
        raise ValueError(f"no node at level {level}, row {row} in a depth-{k} tree")
    return [
        slot_name(boundary, r)
        for boundary in range(level + 1, k + 2)
        for r in range(row, row + boundary - level + 1)
    ]


def _seeded_permutation(n: int, seed: int) -> list[int]:
    """`list(range(n))` permuted by the draws that `random.Random(seed)`
    makes to shuffle it: for i from n - 1 down to 1, j is drawn from
    `getrandbits` with the bit length of i + 1, again while j > i, and
    positions i and j swap."""
    order = list(range(n))
    getrandbits = random.Random(seed).getrandbits
    top = n - 1
    while top > 0:
        # The i in top..low all draw with the same number of bits.
        bits = (top + 1).bit_length()
        low = (1 << bits - 1) - 1
        for i in range(top, low - 1, -1):
            j = getrandbits(bits)
            while j > i:
                j = getrandbits(bits)
            order[i], order[j] = order[j], order[i]
        top = low - 1
    return order


def _add_redundancy(em: _Emitter, k: int, root_lit: int, red: RedundancySpec) -> None:
    """Append entailed extra clauses shaped like the node clause
    (~entry | u | v), with u, v drawn from the node's descendant cone.

    Wherever the entry variable is true the whole cone below it is forced
    true, so any such clause with at most one negated member is a logical
    consequence.  The candidates are numbered, not built: first the pairs
    (cone[i], cone[j]) with i < j, row by row, then (-cone[a], v) for each
    v in the cone unequal to cone[a].  A seeded permutation of the
    candidate indices picks `count` of them, skipping clauses already
    present."""
    level, row = red.node
    cone = [em.lit(s) for s in _cone_slots(red.node, k)]
    if level == k:
        raise ValueError(f"node {red.node} has no descendant nodes (leaf level)")
    entry = root_lit if level == 1 else em.lit(slot_name(level, row), negated=True)
    m = len(cone)
    # Substitutions and implicit nodes can repeat a literal in the cone,
    # and a row of the second block leaves out every copy of its own.
    lengths = [m - 1 - i for i in range(m)] + [m - cone.count(u) for u in cone]
    starts = list(accumulate(lengths, initial=0))
    taken = {c.lits for c in em.clauses}
    fresh = []
    for t in _seeded_permutation(starts[-1], red.seed):
        r = bisect_right(starts, t) - 1
        offset = t - starts[r]
        if r < m:
            u, v = cone[r], cone[r + 1 + offset]
        else:
            u = cone[r - m]
            v = [w for w in cone if w != u][offset]
            u = -u
        clause = make_clause([entry, u, v])
        if clause is not None and clause.width == 3 and clause.lits not in taken:
            taken.add(clause.lits)
            fresh.append(clause)
            if len(fresh) == red.count:
                em.clauses += fresh
                return
    raise ValueError(
        f"only {len(fresh)} distinct redundancy clauses exist for node {red.node}, "
        f"requested {red.count}"
    )


def _bind_implicit(em: _Emitter, spec: TreeSpec) -> None:
    """Make each listed node implicit: its two switching clauses are not
    emitted, and a descendant boundary slot `via` is bound to the name of
    the node's left slot, so `via`'s occurrences read as that variable.

    The dropped pair resolvent (~entry | left) then reappears through the
    descendant triples: resolution walks from the node's right slot down
    to `via`.  Aliasing the immediate right slot degenerates to the
    explicit triple."""
    seen: set[tuple[int, int]] = set()
    for node, via in spec.implicit_nodes:
        cone = _cone_slots(node, spec.k)
        level, row = node
        if node in seen:
            raise ValueError(f"node {node} made implicit twice")
        if via not in cone:
            raise ValueError(f"{via} is not a descendant boundary slot of node {node}")
        if via == slot_name(level + 1, row):
            raise ValueError("cannot alias the node's left slot to itself")
        if via in em.sub or via == _aliased_slot(spec):
            raise ValueError(f"{via} was already substituted or aliased away")
        seen.add(node)
        em.bind(via, slot_name(level + 1, row))
