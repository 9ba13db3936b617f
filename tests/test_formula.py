import random

import pytest

from treesat import formula as formula_module
from treesat.formula import (
    ROOT,
    Atlas,
    Clause,
    CnfFormula,
    DimacsError,
    build_formula,
    make_clause,
    parse_dimacs,
    parse_int,
    parse_var_name,
    slot_name,
    write_dimacs,
)


def test_clause_canonical_form_enforced():
    Clause((1, -2, 3))
    with pytest.raises(ValueError):
        Clause((3, 1))
    with pytest.raises(ValueError):
        Clause((1, 1))
    with pytest.raises(ValueError):
        Clause((1, -1))
    with pytest.raises(ValueError):
        Clause((0,))
    for lits in ([0], [0, 0], [1, 0]):
        with pytest.raises(ValueError):
            make_clause(lits)


def test_clause_properties():
    c = Clause((1, -3))
    assert c.width == 2
    assert -3 in c.lits and 3 not in c.lits
    assert str(c) == "1 -3"
    assert Clause(()).width == 0 and str(Clause(())) == "<empty>"


def test_make_clause_sorts_merges_and_detects_tautology():
    assert make_clause([3, 1, -2]) == Clause((1, -2, 3))
    assert make_clause([2, 2, -1]) == Clause((-1, 2))
    assert make_clause([1, -1]) is None
    assert make_clause([]) == Clause(())


def test_var_name_str_parse_round_trip():
    assert ROOT == "x1.1"
    assert slot_name(4, 3) == "s4.3"
    assert slot_name(5, 2, tree=1) == "t1.s5.2"
    for name in (ROOT, slot_name(4, 3), slot_name(5, 2, tree=1)):
        assert parse_var_name(name) == name


def test_var_name_validation():
    for text in "x1.1 x2.1 x10.2 s2.1 t1.s2.1 b3.8 z0 z12".split():
        assert parse_var_name(text) == text
    # Each name has one spelling: no leading zeros, no written tree 0,
    # ASCII digits only, and a binary index within 1..2**level.
    for text in "q7 x1.2 x0.1 s1.1 s3.0 s03.1 t0.s3.1 b0.1 b2.5 z01 s\u0663.1".split():
        with pytest.raises(ValueError, match="unrecognized variable name"):
            parse_var_name(text)


def test_parse_int_reads_ascii_digits_only():
    for text, value in (("0", 0), ("-0", 0), ("7", 7), ("-12", -12), ("03", 3)):
        assert parse_int(text) == value
    # int() reads the first six as numbers too.
    for text in ("\u0663", "-\u0663", "1_0", "+1", " 1", "1\n", "", "-", "\u00b2"):
        with pytest.raises(ValueError) as err:
            parse_int(text)
        assert str(err.value) == f"expected an integer, got {text!r}"


def test_parse_dimacs_checks_a_deep_binary_name_by_bit_length():
    # Checking the index against 2**level would build an int of about 12 GB.
    formula = parse_dimacs("c var 1 b100000000000.1\np cnf 1 1\n1 0\n")
    assert formula.atlas.name_of(1) == "b100000000000.1"


def test_atlas_registration_order_and_idempotence():
    atlas = Atlas()
    assert atlas.register(ROOT) == 1
    assert atlas.register("s2.1") == 2
    assert atlas.register(ROOT) == 1
    assert atlas.id_of("s2.1") == 2
    assert atlas.name_of(2) == "s2.1"
    assert "s2.1" in atlas and "s2.2" not in atlas
    assert len(atlas) == 2
    assert list(atlas.items()) == [(1, ROOT), (2, "s2.1")]


def test_formula_validation():
    with pytest.raises(ValueError):
        CnfFormula((Clause((1,)), Clause((1,))), 1)
    with pytest.raises(ValueError):
        CnfFormula((Clause((2,)),), 1)
    f = CnfFormula((Clause((1, 2)),), 2)
    assert f.num_clauses == 1


def test_formulas_built_without_atlas_or_metadata_share_neither():
    clauses = (Clause((1, 2)),)
    a, b = CnfFormula(clauses, 2), CnfFormula(clauses, 2)
    assert a.atlas is not b.atlas and a.metadata is not b.metadata
    a.atlas.register(ROOT)
    a.metadata["family"] = "x"
    assert len(b.atlas) == 0 and b.metadata == {}


def test_build_formula_dedups_and_rejects_tautologies():
    f = build_formula([Clause((1, 2)), Clause((1, 2)), Clause((-1,))])
    assert f.clauses == (Clause((1, 2)), Clause((-1,)))
    assert f.num_vars == 2
    with pytest.raises(ValueError):
        build_formula([None])


def test_with_extra_dedups_and_shares_atlas():
    atlas = Atlas()
    atlas.register(ROOT)
    atlas.register("x2.1")
    f = build_formula([Clause((1, 2))], 2, atlas, {"family": "test"})
    g = f.with_extra([Clause((1, 2)), Clause((-2,))])
    assert g.clauses == (Clause((1, 2)), Clause((-2,)))
    assert g.atlas is f.atlas
    assert g.metadata == f.metadata and g.metadata is not f.metadata


GOLDEN_DIMACS = """\
c meta family test
c var 1 x1.1
c var 2 x2.1
p cnf 2 2
1 2 0
-2 0
"""


def test_write_dimacs_formats_the_empty_clause_and_a_wide_one():
    wide = Clause(tuple((-1) ** v * v for v in range(1, 31)))
    f = build_formula([Clause(()), wide, Clause((-3,))], 30)
    text = write_dimacs(f)
    assert text.split("\n")[1:] == ["0", " ".join(map(str, wide.lits)) + " 0", "-3 0", ""]
    assert parse_dimacs(text) == f
    assert write_dimacs(parse_dimacs(text)) == text


def test_write_dimacs_golden():
    atlas = Atlas()
    atlas.register(ROOT)
    atlas.register("x2.1")
    f = build_formula([Clause((1, 2)), Clause((-2,))], 2, atlas, {"family": "test"})
    assert write_dimacs(f) == GOLDEN_DIMACS


def test_dimacs_round_trip_is_byte_identical():
    atlas = Atlas()
    for name in (ROOT, "s2.1", "s2.2"):
        atlas.register(name)
    f = build_formula(
        [Clause((1, 2, 3)), Clause((1, 2, -3)), Clause((-1,))],
        3,
        atlas,
        {"family": "demo", "k": "1"},
    )
    text = write_dimacs(f)
    back = parse_dimacs(text)
    assert back == f
    assert write_dimacs(back) == text


def test_parse_dimacs_plain_file_without_comments():
    f = parse_dimacs("p cnf 3 2\n1 -3 0\n2 0\n")
    assert f.num_vars == 3
    assert f.clauses == (Clause((1, -3)), Clause((2,)))
    assert len(f.atlas) == 0 and f.metadata == {}


def test_parse_dimacs_skips_blank_lines():
    f = parse_dimacs("\n\np cnf 2 1\n  \n1 -2 0\n\n")
    assert f == build_formula([Clause((1, -2))], 2)


def test_parse_dimacs_multiline_and_multi_clause_lines():
    f = parse_dimacs("p cnf 2 2\n1\n2 0 -1 0\n")
    assert f.clauses == (Clause((1, 2)), Clause((-1,)))


def test_parse_dimacs_separates_fields_at_spaces_and_tabs_only():
    # A comment may hold any text, "\r\n" ends a line, and tabs separate.
    text = "c note\u2028more\x85text\r\nc meta key a\u00a0b\r\np cnf 2 2\r\n1\t-2 0\r\n 2  0\t\r\n"
    f = parse_dimacs(text)
    assert f.clauses == (Clause((1, -2)), Clause((2,)))
    assert f.metadata == {"key": "a\u00a0b"}


def test_parse_dimacs_duplicate_clauses_counted_against_header():
    f = parse_dimacs("p cnf 1 2\n1 0\n1 0\n")
    assert f.clauses == (Clause((1,)),)


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("p cnf 1\n1 0\n", "malformed header"),
        ("p dnf 1 1\n1 0\n", "malformed header"),
        ("p cnf -1 0\n", "malformed header"),
        ("1 0\n", "clause before header"),
        ("p cnf 1 1\n2 0\n", "above declared count"),
        ("p cnf 1 1\n1 -1 0\n", "tautologous"),
        ("p cnf 1 1\n1\n", "not terminated"),
        ("p cnf 1 2\n1 0\n", "declares 2 clauses, found 1"),
        ("p cnf 1 1\nx 0\n", "bad literal"),
        ("", "missing header"),
        ("c var 2 x1.1\np cnf 2 1\n1 0\n", "contiguous"),
        ("c var 1 what\np cnf 1 1\n1 0\n", "unrecognized"),
        ("c var 1 z0\nc var 2 z0\np cnf 2 1\n1 0\n", "line 2: variable name z0 already given on line 1"),
        ("c var 1 z0\nc var 1 z1\np cnf 1 1\n1 0\n", "line 2: variable id 1 already named on line 1"),
        ("p cnf 5 2\n5 0\np cnf 1 2\n1 0\n", "line 3: second header"),
        ("p cnf x 1\n1 0\n", "line 1: malformed header 'p cnf x 1'"),
        ("c var 1 x1.1\nc var 2 z0\np cnf 1 1\n1 0\n", "atlas id 2 above declared count 1"),
        # Numbers are spelled -?[0-9]+ in ASCII digits, and nothing else.
        ("p cnf \u0662 1\n1 0\n", "line 1: malformed header 'p cnf \u0662 1'"),
        ("c var \u0661 x1.1\np cnf 1 1\n1 0\n", "line 1: expected an integer, got '\u0661'"),
        ("c var x z0\np cnf 1 1\n1 0\n", "line 1: expected an integer, got 'x'"),
        ("p cnf 10 1\n1_0 0\n", "line 2: bad literal '1_0'"),
        ("p cnf 3 1\n1 -\u0663 0\n", "line 2: bad literal '-\u0663'"),
        ("p cnf 1 1\n+1 0\n", "line 2: bad literal '+1'"),
        # Lines break at "\n" only, and fields are split at spaces and tabs.
        ("p cnf 2 1\x1c1 -2 0\n", "line 1: malformed header"),
        ("p cnf 2 1\n1 -2\u00a00\n", "line 2: bad literal '-2\\xa00'"),
        ("p cnf 2 1\n1\u2003-2 0\n", "line 2: bad literal '1\\u2003-2'"),
        ("p cnf 2 1\n1 -2\x850\n", "line 2: bad literal '-2\\x850'"),
        ("p cnf 2 1\n1 -2\u20280\n", "line 2: bad literal '-2\\u20280'"),
        ("p cnf 2 1\n1 -2\x1e0\n", "line 2: bad literal '-2\\x1e0'"),
        ("p cnf 2 1\n1 -2\x0b0\n", "line 2: bad literal '-2\\x0b0'"),
        ("p cnf 2 1\n1\r-2 0\n", "line 2: bad literal '1\\r-2'"),
        ("p\u00a0cnf 2 1\n1 -2 0\n", "line 1: malformed header"),
        # The first error in text order wins, whatever its kind.
        ("p cnf 2 2\n3 0\nx 0\n", "line 2: variable 3 above declared count 2"),
        ("p cnf 3 2\n1 2 0\n3 -1 1 0\n", "line 3: tautologous clause 3 -1 1"),
        ("p cnf 3 1\n1\n-2\n3\n", "line 2: clause not terminated by 0"),
    ],
)
def test_parse_dimacs_rejects_malformed_input(text, fragment):
    with pytest.raises(DimacsError) as err:
        parse_dimacs(text)
    assert fragment in str(err.value)


def test_random_formula_round_trips():
    rng = random.Random(5)
    for _ in range(50):
        n = rng.randint(1, 12)
        clauses = []
        for _ in range(rng.randint(1, 20)):
            width = rng.randint(1, min(4, n))
            chosen = rng.sample(range(1, n + 1), width)
            clause = make_clause([v if rng.random() < 0.5 else -v for v in chosen])
            if isinstance(clause, Clause):
                clauses.append(clause)
        f = build_formula(clauses, n)
        assert parse_dimacs(write_dimacs(f)) == f


def test_parse_dimacs_builds_each_clause_as_make_clause_does():
    # Literals are shuffled, repeated and complementary, and sorted clauses
    # (the ones parse_dimacs builds without make_clause) are mixed in.
    rng = random.Random(1515)
    for _ in range(500):
        n = rng.randint(1, 6)
        clause_tokens = []
        for _ in range(rng.randint(1, 4)):
            lits = [rng.choice((1, -1)) * rng.randint(1, n) for _ in range(rng.randint(0, 5))]
            if rng.random() < 0.4:
                lits = [lit for _, lit in sorted({abs(lit): lit for lit in lits}.items())]
            clause_tokens.append(lits)
        lines, taut_line = [f"p cnf {n} {len(clause_tokens)}"], None
        for lits in clause_tokens:
            for token in lits + [0]:
                if len(lines) == 1 or rng.random() < 0.3:
                    lines.append("")
                lines[-1] += f" {token}"
            if make_clause(lits) is None and taut_line is None:
                taut_line = len(lines)
        text = "\n".join(lines) + "\n"
        if taut_line is not None:
            with pytest.raises(DimacsError, match=f"^line {taut_line}: tautologous"):
                parse_dimacs(text)
            continue
        expected = build_formula([make_clause(lits) for lits in clause_tokens], n)
        assert [c.lits for c in parse_dimacs(text).clauses] == [c.lits for c in expected.clauses]


# The differential test: parse_dimacs, which reads a file in the common
# shape in bulk, against the line walk, which states the grammar, on
# seeded random texts.  Clean texts carry unsorted, repeated and
# complementary literals, duplicate and empty clauses, clauses across
# lines and several on a line, tabs, CRLF, and comments and `c var`
# lines after the header; corrupted ones each carry one fault.

NAMES = ("x1.1", "x2.1", "x10.2", "s2.1", "s3.3", "t1.s2.2", "b1.2", "b3.8", "z0", "z12")
SEPARATORS = ("\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x1f", "\x85", "\u00a0", "\u2003", "\u2028", "\r")
BAD_TOKENS = ("x", "+1", "1_0", "-\u0663", "--1", "-", "1-2", "-0", "01", "99")
BAD_NAMES = ("q7", "b2.5", "x1.2", "s03.1")
BAD_IDS = ("x", "+1", "\u0661", "0")


def random_dimacs(rng):
    n = rng.randint(0, 7)
    clauses = []
    for _ in range(rng.randint(0, 6)):
        lits = [rng.choice((1, -1)) * v for v in sorted(rng.sample(range(1, n + 1), rng.randint(0, min(n, 4))))]
        if lits and rng.random() < 0.3:  # unsorted, perhaps with a literal repeated
            lits += rng.sample(lits, rng.randint(0, 1))
            rng.shuffle(lits)
        elif lits and rng.random() < 0.05:
            lits.insert(rng.randint(0, len(lits)), -rng.choice(lits))
        clauses.append(lits)
    if clauses and rng.random() < 0.2:
        clauses.append(list(rng.choice(clauses)))
    names = rng.sample(NAMES, rng.randint(0, min(n, len(NAMES))))
    keys = rng.sample(("family", "k"), rng.randint(0, 2))
    head = [f"c meta {key} {rng.choice(('a', 'b c', 'alias:1'))}" for key in keys]
    var_lines = [f"c var {vid} {name}" for vid, name in enumerate(names, start=1)]
    header = f"p cnf {n} {len(clauses)}"
    body = []
    for token in (str(token) for lits in clauses for token in lits + [0]):
        if not body or rng.random() < 0.3:
            body.append(token)
        else:
            body[-1] += rng.choice((" ", " ", " ", "\t", "  ")) + token
    if rng.random() < 0.1:
        body.insert(rng.randint(0, len(body)), rng.choice(("c note", "", "  ")))
    if rng.random() < 0.1:
        body += var_lines
        var_lines = []

    fault = rng.randint(0, 15)  # 0 and 12..15 leave the text clean
    if fault == 2 and body:  # a bad or odd literal
        i = rng.randrange(len(body))
        tokens = body[i].split(" ")
        tokens[rng.randrange(len(tokens))] = rng.choice(BAD_TOKENS)
        body[i] = " ".join(tokens)
    elif fault == 3 and n:
        body.append(f"{rng.choice((1, -1)) * (n + 1)} 0")
    elif fault == 4 and body:  # the last 0 dropped, or a clause left open after it
        body[-1] = body[-1][:-1] if rng.random() < 0.5 or not n else f"{body[-1]} {rng.randint(1, n)}"
    elif fault == 5:
        header = rng.choice((f"p cnf {n} {len(clauses) + 1}", "p cnf x 1", "p dnf 1 1", "p cnf 1", "c"))
    elif fault == 6:
        body.insert(rng.randint(0, len(body)), header)
    elif fault == 7 and var_lines:
        var_lines[-1] = rng.choice((
            f"c var {len(var_lines)} {rng.choice(BAD_NAMES)}", f"c var {rng.choice(BAD_IDS)} {names[-1]}",
        ))
    elif fault == 8 and len(var_lines) > 1:
        var_lines[-1] = rng.choice((var_lines[0], f"c var {len(var_lines)} {names[0]}"))
    elif fault == 9 and var_lines:
        var_lines[0] = f"c var {len(var_lines) + 1} {names[0]}"
    elif fault == 10:
        head.insert(0, "1 0")  # a clause before the header
    elif fault == 11 and names:  # more names than variables
        header, body = f"p cnf {len(names) - 1} 0", []
    eol = "\r\n" if rng.random() < 0.1 else "\n"
    text = eol.join(head + var_lines + [header] + body) + eol
    if fault == 1:  # a bad separator or a bare carriage return
        at = rng.choice([i for i, char in enumerate(text) if char in " \t\n"])
        text = text[:at] + rng.choice(SEPARATORS) + text[at + 1:]
    return text


def outcome(parse, text):
    try:
        f = parse(text)
    except DimacsError as exc:
        return str(exc)
    return f.clauses, tuple(map(type, f.clauses)), f.num_vars, list(f.atlas.items()), f.metadata


def test_parse_dimacs_agrees_with_the_line_walk_on_random_texts():
    rng = random.Random(3030)
    bulk = errors = 0
    for _ in range(3000):
        text = random_dimacs(rng)
        expected = outcome(formula_module._walk_lines, text)
        assert outcome(parse_dimacs, text) == expected, text
        bulk += formula_module._read_bulk(text) is not None
        errors += isinstance(expected, str)
    # At least a quarter of the texts take the bulk read, and a quarter fail.
    assert bulk > 750 and errors > 750
