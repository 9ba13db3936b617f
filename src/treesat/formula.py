"""Clauses, CNF formulas, variable naming, and DIMACS serialization.

Literals are DIMACS-style signed integers: variable ids are positive, a
negative sign means negation.  A clause is a canonical tuple of such
literals (sorted by variable id, no duplicates, never both polarities).
Formulas carry an atlas mapping variable names to ids plus
free-form metadata; both survive a DIMACS round trip through comment
lines written before the header:

    c meta <key> <value>
    c var <id> <name>
    p cnf <variables> <clauses>
    1 -2 3 0

A variable name from outside has one spelling (`parse_var_name`), and a
number one grammar: `-?[0-9]+` in ASCII digits (`parse_int`).  A DIMACS
line ends at `\n` (or `\r\n`), and the fields of a line are separated by
ASCII spaces and tabs only.  `parse_dimacs` reads a file in the shape
`write_dimacs` gives in bulk, its clause section as one int stream; the
line walk states that grammar and reads every other file.
"""

from __future__ import annotations

import operator
import re
from collections import namedtuple
from itertools import compress, repeat


class DimacsError(ValueError):
    """Raised for malformed DIMACS input; messages carry the line number."""


# ---------------------------------------------------------------------------
# clauses


class Clause(namedtuple("Clause", "lits")):
    """Canonical disjunction of literals.  Width 0 is the empty clause."""

    __slots__ = ()

    def __new__(cls, lits: tuple[int, ...]) -> Clause:
        seen: set[int] = set()
        last = 0
        for lit in lits:
            var = abs(lit)
            if lit == 0:
                raise ValueError("0 is not a literal")
            if var in seen:
                raise ValueError(f"duplicate or complementary variable {var}")
            if var < last:
                raise ValueError("literals must be sorted by variable id")
            seen.add(var)
            last = var
        return tuple.__new__(cls, (lits,))

    @classmethod
    def _unchecked(cls, lits: tuple[int, ...]) -> Clause:
        """A clause from literals already sorted by variable, free of
        duplicates and of complementary pairs, built without the check
        above."""
        return tuple.__new__(cls, (lits,))

    @property
    def width(self) -> int:
        return len(self.lits)

    def __str__(self) -> str:
        return " ".join(str(lit) for lit in self.lits) if self.lits else "<empty>"


def make_clause(lits) -> Clause | None:
    """Build a canonical clause from literals, or None (a tautology) if a
    variable occurs in both polarities.  Duplicate literals collapse."""
    out: set[int] = set()
    for lit in lits:
        if lit == 0:
            raise ValueError("0 is the clause terminator, not a literal")
        if -lit in out:
            return None
        out.add(lit)
    return Clause._unchecked(tuple(sorted(out, key=abs)))


# ---------------------------------------------------------------------------
# variable names
#
# A variable name is its text, in one spelling (no leading zeros, tree 0
# unwritten): the root x1.1, chain variables xSTEP.1 and xSTEP.2 from
# step 2, tree slots sBOUNDARY.ROW from boundary 2 (tT.sBOUNDARY.ROW in
# attached or composed tree T >= 1), binary positions bLEVEL.INDEX with
# 1 <= INDEX <= 2**LEVEL, and substitution variables zTAG.

ROOT = "x1.1"

_NAME = re.compile(
    r"x(?:1\.1|(?:[2-9]|[1-9]\d+)\.[12])"
    r"|(?:t[1-9]\d*\.)?s(?:[2-9]|[1-9]\d+)\.[1-9]\d*"
    r"|b([1-9]\d*)\.([1-9]\d*)"
    r"|z(?:0|[1-9]\d*)",
    re.ASCII,
)


def parse_var_name(text: str) -> str:
    """Return `text` if it is a variable name in its one spelling, else
    raise ValueError."""
    m = _NAME.fullmatch(text)
    # A binary index fits its level when index - 1 < 2**level.
    if m is None or m[1] is not None and (int(m[2]) - 1).bit_length() > int(m[1]):
        raise ValueError(f"unrecognized variable name {text!r}")
    return text


_INT = re.compile(r"-?[0-9]+", re.ASCII)
_SEPARATORS = re.compile("[ \t]+")


def parse_int(text: str) -> int:
    """Return the integer `text` spells as `-?[0-9]+` in ASCII digits,
    else raise ValueError."""
    if _INT.fullmatch(text) is None:
        raise ValueError(f"expected an integer, got {text!r}")
    return int(text)


def slot_name(boundary: int, row: int, tree: int = 0) -> str:
    """Pair-boundary slot of a tree; tree 0 is the main tree."""
    base = f"s{boundary}.{row}"
    return base if tree == 0 else f"t{tree}.{base}"


class Atlas:
    """Injective map between variable names and 1-based ids, in
    registration order."""

    def __init__(self) -> None:
        self._ids: dict[str, int] = {}
        self._names: list[str] = []

    @classmethod
    def _of(cls, names: list[str]) -> Atlas:
        """The atlas giving distinct `names` ids 1, 2, ... in order."""
        atlas = cls()
        atlas._names = names
        atlas._ids = dict(zip(names, range(1, len(names) + 1)))
        return atlas

    def register(self, name: str) -> int:
        """Return the id for `name`, assigning the next id if new."""
        vid = self._ids.get(name)
        if vid is None:
            vid = len(self._names) + 1
            self._ids[name] = vid
            self._names.append(name)
        return vid

    def id_of(self, name: str) -> int:
        return self._ids[name]

    def name_of(self, vid: int) -> str:
        return self._names[vid - 1]

    def __contains__(self, name: str) -> bool:
        return name in self._ids

    def __len__(self) -> int:
        return len(self._names)

    def items(self):
        return enumerate(self._names, start=1)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Atlas) and self._names == other._names


# ---------------------------------------------------------------------------
# formulas


class CnfFormula(namedtuple("CnfFormula", "clauses num_vars atlas metadata")):
    """A deduplicated CNF clause sequence with naming and metadata.  A
    formula built without an atlas or metadata gets a new, empty one."""

    __slots__ = ()

    def __new__(
        cls,
        clauses: tuple[Clause, ...],
        num_vars: int,
        atlas: Atlas | None = None,
        metadata: dict[str, str] | None = None,
    ) -> CnfFormula:
        seen: set[tuple[int, ...]] = set()
        for clause in clauses:
            if clause.lits in seen:
                raise ValueError(f"duplicate clause {clause}")
            seen.add(clause.lits)
        _check_range(clauses, num_vars)
        return tuple.__new__(cls, (
            clauses, num_vars, Atlas() if atlas is None else atlas,
            {} if metadata is None else metadata,
        ))

    @classmethod
    def _unchecked(
        cls, clauses: tuple[Clause, ...], num_vars: int, atlas: Atlas, metadata: dict[str, str]
    ) -> CnfFormula:
        """A formula from clauses already free of duplicates and within
        `num_vars`, built without the check above."""
        return tuple.__new__(cls, (clauses, num_vars, atlas, metadata))

    @property
    def num_clauses(self) -> int:
        return len(self.clauses)

    def with_extra(self, extra: list[Clause]) -> CnfFormula:
        """Copy with additional clauses appended (duplicates dropped)."""
        return build_formula(self.clauses + tuple(extra), self.num_vars, self.atlas, self.metadata)


def build_formula(clauses, num_vars=None, atlas=None, metadata=None) -> CnfFormula:
    """Assemble a formula, deduplicating while preserving first occurrence.

    A None in `clauses` (a tautology) is rejected: tautologies are never
    stored.
    """
    out: list[Clause] = []
    seen: set[tuple[int, ...]] = set()
    for clause in clauses:
        if clause is None:
            raise ValueError("tautologies cannot be stored in a formula")
        lits = clause.lits
        if lits not in seen:
            seen.add(lits)
            out.append(clause)
    if num_vars is None:
        top = max((abs(c.lits[-1]) for c in out if c.lits), default=0)
        num_vars = len(atlas) if atlas is not None else top
    _check_range(out, num_vars)
    return CnfFormula._unchecked(
        tuple(out), num_vars, atlas if atlas is not None else Atlas(),
        dict(metadata) if metadata else {},
    )


def _check_range(clauses, num_vars: int) -> None:
    # A canonical clause ends with its highest variable.
    for clause in clauses:
        if clause.lits and abs(clause.lits[-1]) > num_vars:
            raise ValueError(f"variable {abs(clause.lits[-1])} above declared count {num_vars}")


def write_dimacs(formula: CnfFormula) -> str:
    """Serialize deterministically; equal formulas give identical bytes."""
    lines = [f"c meta {key} {value}" for key, value in formula.metadata.items()]
    lines += map("c var %d %s".__mod__, formula.atlas.items())
    lines.append(f"p cnf {formula.num_vars} {formula.num_clauses}")
    templates: dict[int, str] = {}  # by width: "%d %d 0" for 2, "0" for the empty clause
    for clause in formula.clauses:
        lits = clause.lits
        template = templates.get(len(lits))
        if template is None:
            template = templates[len(lits)] = "%d " * len(lits) + "0"
        lines.append(template % lits)
    return "\n".join(lines) + "\n"


# The common shape of a file, as write_dimacs gives it: `c meta` lines,
# `c var` lines with ids 1, 2, ... in order and names in their one
# spelling, then the header, in printable ASCII with single spaces.  It
# is compiled on first use and cached by `re`, so importing the module
# does not pay for it.
_HEAD = (
    r"(?a)(?P<meta>(?:c meta [!-~]+ [!-~](?:[ -~]*[!-~])?\n)*)"
    rf"(?P<vars>(?:c var [1-9][0-9]* (?:{_NAME.pattern})\n)*)"
    r"p cnf (?P<num_vars>[0-9]+) (?P<num_clauses>[0-9]+)\r?\n"
)
# Never in a clause section read in bulk: "_" and "+", which int()
# accepts and parse_int does not, and the ASCII separators that
# str.split() splits at besides space, tab and "\n".  A "\r" may only end
# a line.  On the rest of ASCII, int() reads exactly -?[0-9]+.
_NOT_IN_CLAUSES = "_+\x0b\x0c\x1c\x1d\x1e\x1f"


def parse_dimacs(text: str) -> CnfFormula:
    """Parse DIMACS CNF, recovering metadata and atlas comment lines.

    Duplicate clauses are dropped; tautologous input clauses are rejected
    with a line number, as are header mismatches, out-of-range variables,
    and unterminated clauses.  Any other separator is part of a field, so
    a literal holding one is a bad literal.

    A file in write_dimacs's shape is read in bulk: the comments and
    header by one pattern, then the clause section, checked as a whole,
    as one int stream cut at its zeros.  Any other file, and any that
    fails a check, goes to the line walk, which states the grammar and
    names the first bad line.
    """
    formula = _read_bulk(text)
    return _walk_lines(text) if formula is None else formula


def _read_bulk(text: str) -> CnfFormula | None:
    """The formula `text` holds if it has the common shape and passes
    every check, else None."""
    head = re.match(_HEAD, text)
    section = text[head.end():] if head else ""
    if (
        head is None
        or not section.isascii()
        or any(char in section for char in _NOT_IN_CLAUSES)
        or section.count("\r") != section.count("\r\n")
    ):
        return None
    fields = head["vars"].split()
    ids, names = fields[2::4], fields[3::4]
    try:
        num_vars, num_clauses = int(head["num_vars"]), int(head["num_clauses"])
        ints = tuple(map(int, section.split()))
        if "b" in head["vars"]:
            for name in names:
                parse_var_name(name)  # a binary index must fit its level
    except ValueError:
        return None
    magnitudes = tuple(map(abs, ints))
    ends = list(compress(range(len(ints)), map(operator.not_, ints)))
    if (
        len(set(names)) != len(names)
        or len(names) > num_vars
        or ids != list(map(str, range(1, len(names) + 1)))
        or ints and (ints[-1] != 0 or max(magnitudes) > num_vars)
        or len(ends) != num_clauses
    ):
        return None
    # A literal always rises from a 0 and a 0 never rises, so with a 0
    # put before the stream, each clause's variables rise strictly iff
    # every literal rises from its neighbour.
    rising = sum(map(operator.lt, (0, *magnitudes), magnitudes)) == len(ints) - len(ends)
    lits = map(ints.__getitem__, map(slice, [0] + [end + 1 for end in ends[:-1]], ends))
    # tuple.__new__ builds each Clause as Clause._unchecked does, without a
    # Python call per clause.
    clauses = dict.fromkeys(
        map(tuple.__new__, repeat(Clause), zip(lits)) if rising else map(make_clause, lits)
    )
    if None in clauses:  # a tautology: the line walk names its line
        return None
    metadata = dict(line.split(" ", 3)[2:] for line in head["meta"].splitlines())
    return CnfFormula._unchecked(tuple(clauses), num_vars, Atlas._of(names), metadata)


def _walk_lines(text: str) -> CnfFormula:
    """Parse `text` line by line, raising the first error in text order."""
    metadata: dict[str, str] = {}
    atlas = Atlas()
    atlas_ids: dict[int, str] = {}
    name_lines: dict[str, int] = {}
    id_lines: dict[int, int] = {}
    num_vars = num_clauses = -1
    clauses: list[Clause] = []
    pending: list[int] = []
    pending_line = 0

    for lineno, line in enumerate(text.split("\n"), start=1):
        line = line.strip(" \t\r")
        if not line:
            continue
        if line.startswith("c"):
            parts = _SEPARATORS.split(line, 3)
            if len(parts) >= 4 and parts[1] == "meta":
                metadata[parts[2]] = parts[3]
            elif len(parts) >= 4 and parts[1] == "var":
                try:
                    name = parse_var_name(parts[3])
                    vid = parse_int(parts[2])
                except ValueError as exc:
                    raise DimacsError(f"line {lineno}: {exc}") from None
                if name in name_lines:
                    raise DimacsError(
                        f"line {lineno}: variable name {name} already given on line {name_lines[name]}"
                    )
                if vid in id_lines:
                    raise DimacsError(
                        f"line {lineno}: variable id {vid} already named on line {id_lines[vid]}"
                    )
                name_lines[name] = lineno
                id_lines[vid] = lineno
                atlas_ids[vid] = name
            continue
        if line.startswith("p"):
            if num_vars >= 0:
                raise DimacsError(f"line {lineno}: second header {line!r}")
            fields = _SEPARATORS.split(line)
            try:
                num_vars, num_clauses = map(parse_int, fields[2:])
            except ValueError:
                num_vars = num_clauses = -1
            if fields[1:2] != ["cnf"] or min(num_vars, num_clauses) < 0:
                raise DimacsError(f"line {lineno}: malformed header {line!r}")
            continue
        if num_vars < 0:
            raise DimacsError(f"line {lineno}: clause before header")
        for token in _SEPARATORS.split(line):
            try:
                lit = parse_int(token)
            except ValueError:
                raise DimacsError(f"line {lineno}: bad literal {token!r}") from None
            if lit == 0:
                clause = make_clause(pending)
                if clause is None:
                    raise DimacsError(
                        f"line {lineno}: tautologous clause {' '.join(map(str, pending))}"
                    )
                clauses.append(clause)
                pending = []
            else:
                var = abs(lit)
                if var > num_vars:
                    raise DimacsError(
                        f"line {lineno}: variable {var} above declared count {num_vars}"
                    )
                if not pending:
                    pending_line = lineno
                pending.append(lit)

    if pending:
        raise DimacsError(f"line {pending_line}: clause not terminated by 0")
    if num_vars < 0:
        raise DimacsError("line 1: missing header")
    if len(clauses) != num_clauses:
        raise DimacsError(f"header declares {num_clauses} clauses, found {len(clauses)}")
    for vid in sorted(atlas_ids):
        expected = len(atlas) + 1
        if vid != expected:
            raise DimacsError(f"atlas ids must be contiguous from 1, got {vid}")
        if vid > num_vars:
            raise DimacsError(f"atlas id {vid} above declared count {num_vars}")
        atlas.register(atlas_ids[vid])
    return build_formula(clauses, num_vars, atlas, metadata)
