import argparse
import os
import random
import stat

import pytest

from treesat.cli import _build_parser, main
from treesat.forge import (
    FAMILIES,
    Closing,
    NamedLit,
    TreeSpec,
    build_binomial_tree,
    build_unit_chain,
    compose_two_trees,
)
from treesat.formula import write_dimacs
from treesat.resolution import saturate


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_generate_to_stdout(capsys):
    code, out, err = run_cli(capsys, "generate", "--family", "unit-chain", "--k", "3")
    assert code == 0 and err == ""
    assert out == write_dimacs(build_unit_chain(3))


def file_mode(path):
    return stat.S_IMODE(os.stat(path).st_mode)


def test_generate_to_file_atomically(capsys, tmp_path):
    target = tmp_path / "chain.cnf"
    umask = os.umask(0o022)
    try:
        code, out, _ = run_cli(
            capsys, "generate", "--family", "unit-chain", "--k", "4", "--out", str(target)
        )
    finally:
        os.umask(umask)
    assert code == 0 and out == ""
    assert target.read_text() == write_dimacs(build_unit_chain(4))
    leftovers = [p for p in os.listdir(tmp_path) if p.startswith(".treesat-")]
    assert leftovers == []
    assert file_mode(target) == 0o644


def test_generate_is_deterministic(capsys):
    args = ("generate", "--family", "binomial", "--k", "5", "--redundancy", "2.1:5")
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args)
    assert first == second


def test_generate_binomial_options_reach_the_recipe(capsys):
    code, out, _ = run_cli(
        capsys,
        "generate", "--family", "binomial", "--k", "4",
        "--closure", "clause:2", "--negate-root", "--implicit", "2.1=s5.2",
    )
    assert code == 0
    assert "c meta closure clause:2" in out
    assert "c meta root neg" in out
    assert "c meta implicit 2.1=s5.2" in out


def test_generate_rejects_a_substitution_on_another_trees_slot(capsys):
    code, out, err = run_cli(
        capsys, "generate", "--family", "binomial", "--k", "3", "--sub", "t1.s4.2=z0"
    )
    assert code == 2 and out == ""
    assert err == "error: substitution of a nonexistent slot t1.s4.2\n"


def test_generate_rejects_a_non_integer_redundancy_count(capsys):
    code, out, err = run_cli(
        capsys, "generate", "--family", "binomial", "--k", "3", "--redundancy", "1.1:x"
    )
    assert code == 2 and out == ""
    assert err == "error: expected redundancy as LEVEL.ROW:COUNT[:SEED], got '1.1:x'\n"


def test_generate_rejects_a_negative_redundancy_seed(capsys):
    code, out, err = run_cli(
        capsys, "generate", "--family", "binomial", "--k", "4", "--redundancy", "1.1:3:-5"
    )
    assert (code, out, err) == (2, "", "error: redundancy seed must be non-negative, got -5\n")


@pytest.mark.parametrize("flags, message", [
    (["--redundancy", "x:3"], "expected a node as LEVEL.ROW, got 'x'"),
    (["--implicit", "2.1"], "expected an implicit node as LEVEL.ROW=SLOT, got '2.1'"),
    (["--implicit", "1.1=z0"], "the via variable must be a slot, got 'z0'"),
    # One literal in both pair slots of node (3, 2) keeps its first clause
    # (e z) but makes the switching clause (e z ~z) tautologous.
    (["--sub", "s4.2=z0", "--sub", "s4.3=z0"],
     "a substitution or implicit node makes a generated clause tautologous: "
     "decision triple ~s3.2 z0 z0"),
    # The closure clause (~s4.2 | x1.1) with the root written into s4.2.
    (["--closure", "clause:2", "--sub", "s4.2=x1.1"],
     "a substitution or implicit node makes a generated clause tautologous: ~x1.1 x1.1"),
    # Numbers are spelled -?[0-9]+ in ASCII digits, and nothing else.
    (["--closure", "alias:\u0663"],
     "bad closure 'alias:\u0663'; expected alias:ROW, clause:ROW, or none"),
    (["--closure", "alias:\u00b2"],
     "bad closure 'alias:\u00b2'; expected alias:ROW, clause:ROW, or none"),
    (["--implicit", "1.\u0661=s4.3"], "expected a node as LEVEL.ROW, got '1.\u0661'"),
    (["--redundancy", "1.1:+2:0_1"],
     "expected redundancy as LEVEL.ROW:COUNT[:SEED], got '1.1:+2:0_1'"),
])
def test_generate_rejects_a_bad_recipe_item(capsys, flags, message):
    code, out, err = run_cli(capsys, "generate", "--family", "binomial", "--k", "3", *flags)
    assert (code, out, err) == (2, "", f"error: {message}\n")


def run_argv(capsys, argv):
    """Like run_cli, but also for argv that argparse refuses by exiting."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# Each numeric flag, given its value last in a command that runs without it.
NUMERIC_FLAG_COMMANDS = {
    "--k": ["generate", "--family", "unit-chain"],
    "--k-sub": ["generate", "--family", "multi-branching", "--k", "2"],
    "--max-clauses": ["saturate", "--family", "unit-chain", "--k", "3"],
    "--max-steps": ["saturate", "--family", "unit-chain", "--k", "3"],
    "--max-width": ["saturate", "--family", "unit-chain", "--k", "3"],
    "--k-min": ["bench", "--family", "unit-chain", "--k-max", "3", "--repetitions", "1"],
    "--k-max": ["bench", "--family", "unit-chain", "--k-min", "2", "--repetitions", "1"],
    "--repetitions": ["bench", "--family", "unit-chain", "--k-min", "2", "--k-max", "2"],
    "--chain": ["saturate", "--family", "unit-chain", "--k", "3"],
}


@pytest.mark.parametrize("text", ["\u0663", "1_0", "+1"])
@pytest.mark.parametrize("flag", NUMERIC_FLAG_COMMANDS)
def test_numeric_flags_read_ascii_digits_only(capsys, flag, text):
    code, out, err = run_argv(capsys, NUMERIC_FLAG_COMMANDS[flag] + [flag, text])
    assert (code, out) == (2, "")
    expected = (
        f'error: expected --chain as nonzero integer literals, e.g. "1 -4", got {text!r}\n'
        if flag == "--chain"
        else f"error: argument {flag}: expected an integer, got {text!r}\n"
    )
    assert err.endswith(expected), err


def test_a_leading_zero_is_read_and_recorded_as_the_value(capsys):
    code, out, err = run_cli(capsys, "generate", "--family", "unit-chain", "--k", "03")
    assert (code, out, err) == (0, write_dimacs(build_unit_chain(3)), "")
    assert "c meta k 3\n" in out


def test_generate_requires_depth(capsys):
    code, _, err = run_cli(capsys, "generate", "--family", "unit-chain")
    assert code == 2
    assert err.startswith("error:")


def test_generate_rejects_a_one_level_composition(capsys):
    code, out, err = run_cli(capsys, "generate", "--family", "compose-matched", "--k", "1")
    assert code == 2 and out == ""
    assert err == "error: composition depth must be at least 2, got 1\n"


def test_generate_rejects_bad_closure_text(capsys):
    code, _, err = run_cli(
        capsys, "generate", "--family", "binomial", "--k", "3", "--closure", "pivot:1"
    )
    assert code == 2 and "closure" in err
    # At depth 1 any alias writes the root into its own triple.
    code, out, err = run_cli(capsys, "generate", "--family", "binomial", "--k", "1")
    assert code == 2 and out == ""
    assert err.startswith("error: an alias closure needs depth at least 2")


def test_solve_family_exit_codes(capsys):
    code, out, _ = run_cli(capsys, "solve", "--family", "unit-chain", "--k", "3")
    assert code == 10 and out == "sat\n"
    code, out, _ = run_cli(capsys, "solve", "--family", "compose-matched", "--k", "2")
    assert code == 20 and out == "unsat\n"


def test_solve_prints_named_model(capsys):
    code, out, _ = run_cli(
        capsys, "solve", "--family", "unit-chain", "--k", "3", "--oracle", "brute", "--model"
    )
    assert code == 10
    assert out.splitlines() == ["sat", "x1.1=1 x2.1=0 x3.1=0"]


# The atlas names variable 1 only; the others print by id.
PARTLY_NAMED = "c var 1 x1.1\np cnf 3 2\n1 2 0\n-2 3 0\n"


def test_solve_model_with_a_partial_atlas(capsys, tmp_path):
    path = tmp_path / "partial.cnf"
    path.write_text(PARTLY_NAMED)
    code, out, err = run_cli(capsys, "solve", "--in", str(path), "--oracle", "brute", "--model")
    assert code == 10 and err == ""
    assert out.splitlines() == ["sat", "x1.1=0 2=1 3=1"]


def test_solve_decides_an_empty_clause_unsat(capsys, tmp_path):
    path = tmp_path / "empty.cnf"
    path.write_text("p cnf 2 2\n1 2 0\n0\n")
    for oracle in ("dpll", "brute"):
        code, out, err = run_cli(capsys, "solve", "--in", str(path), "--oracle", oracle)
        assert (code, out, err) == (20, "unsat\n", "")


def test_solve_rejects_a_name_given_twice(capsys, tmp_path):
    path = tmp_path / "twice.cnf"
    path.write_text("c var 1 z0\nc var 2 z0\np cnf 2 1\n1 2 0\n")
    code, _, err = run_cli(capsys, "solve", "--in", str(path))
    assert code == 1 and "line 2: variable name z0" in err


def test_solve_rejects_a_second_header(capsys, tmp_path):
    path = tmp_path / "two-headers.cnf"
    path.write_text("p cnf 5 2\n5 0\np cnf 1 2\n1 0\n")
    code, _, err = run_cli(capsys, "solve", "--in", str(path))
    assert code == 1 and "line 3: second header" in err


def test_solve_reads_dimacs_files(capsys, tmp_path):
    path = tmp_path / "matched.cnf"
    path.write_text(write_dimacs(compose_two_trees(2, Closing.MATCHED)))
    code, out, _ = run_cli(capsys, "solve", "--in", str(path))
    assert code == 20 and out == "unsat\n"


def test_solve_input_errors(capsys, tmp_path):
    code, _, err = run_cli(capsys, "solve")
    assert code == 2 and "--in FILE or --family" in err
    code, _, err = run_cli(capsys, "solve", "--in", str(tmp_path / "missing.cnf"))
    assert code == 1
    bad = tmp_path / "bad.cnf"
    bad.write_text("p cnf 1 1\n2 0\n")
    code, _, err = run_cli(capsys, "solve", "--in", str(bad))
    assert code == 1 and "error:" in err


def test_solve_out_of_memory_names_the_declared_variable_count(capsys, tmp_path, monkeypatch):
    # dpll_sat's per-literal tables for 10**9 declared variables do not
    # fit; a stand-in raises as they would, without allocating.
    def no_memory(formula):
        raise MemoryError

    monkeypatch.setattr("treesat.cli.dpll_sat", no_memory)
    path = tmp_path / "huge.cnf"
    path.write_text("p cnf 1000000000 1\n1 0\n")
    code, out, err = run_cli(capsys, "solve", "--in", str(path))
    assert (code, out) == (1, "")
    assert err == "error: not enough memory to decide 1000000000 declared variables\n"


def test_a_file_that_is_not_utf8_is_a_bad_file(capsys, tmp_path):
    path = tmp_path / "latin.cnf"
    path.write_bytes(b"c \xe3\x28\xff\np cnf 1 1\n1 0\n")
    code, out, err = run_cli(capsys, "solve", "--in", str(path))
    assert (code, out) == (1, "")
    assert err == f"error: {path}: not UTF-8 text (byte 2)\n"


def test_a_file_reads_its_line_ends_as_written(capsys, tmp_path):
    path = tmp_path / "ends.cnf"
    path.write_bytes(b"p cnf 2 2\r\n1 -2 0\r\n2 0\r\n")
    assert run_cli(capsys, "solve", "--in", str(path)) == (10, "sat\n", "")
    path.write_bytes(b"p cnf 2 2\n1 -2 0\r2 0\n")
    code, out, err = run_cli(capsys, "solve", "--in", str(path))
    assert (code, out, err) == (1, "", "error: line 2: bad literal '0\\r2'\n")


def test_saturate_reports_match_the_engine(capsys):
    result = saturate(build_unit_chain(3))
    c = result.counters
    code, out, _ = run_cli(capsys, "saturate", "--family", "unit-chain", "--k", "3")
    assert code == 0
    assert out.splitlines() == [
        "status saturated",
        f"original 3 derived {len(result.derived)} steps {c.steps}",
        f"tautologies {c.tautologies} duplicates {c.duplicates} over-width {c.over_width} "
        f"subsumed {c.subsumed} retired {c.retired}",
    ]


def test_saturate_chain_and_dot(capsys, tmp_path):
    dot = tmp_path / "chain.dot"
    code, out, _ = run_cli(
        capsys,
        "saturate", "--family", "unit-chain", "--k", "3",
        "--chain", "1", "--dot", str(dot),
    )
    assert code == 0
    # --chain is the run's goal, so the run stops at the unit.
    assert out.splitlines()[0] == "status goal-derived"
    assert "chain for (1): length 2, resolved x3.1 x2.1" in out
    assert dot.read_text().startswith("digraph chain {")


def test_saturate_chain_names_the_stored_subset_that_ended_the_run(capsys):
    # (1 -3) is derived before the goal (1 -2 -3) and ends the run; an
    # original subset ends it before any step.
    cases = [
        ("4", "1 -2 -3", "chain for (1 -3), a subset of (1 -2 -3): length 1, resolved x4.1"),
        ("3", "1 2 -3", "chain for (1 2), a subset of (1 2 -3): length 0, resolved -"),
        # ASCII spaces and tabs separate literals, at the ends too.
        ("4", " 1\t-2  -3 ", "chain for (1 -3), a subset of (1 -2 -3): length 1, resolved x4.1"),
    ]
    for k, goal, line in cases:
        code, out, err = run_cli(
            capsys, "saturate", "--family", "unit-chain", "--k", k, "--chain", goal
        )
        assert (code, err) == (0, "")
        assert out.splitlines()[0] == "status goal-derived"
        assert out.splitlines()[-1] == line


def test_saturate_chain_with_a_partial_atlas(capsys, tmp_path):
    path = tmp_path / "partial.cnf"
    path.write_text(PARTLY_NAMED)
    code, out, err = run_cli(capsys, "saturate", "--in", str(path), "--chain", "1 3")
    assert code == 0 and err == ""
    # In id order (1 2) and (-2 3) are not eligible: their greatest
    # literals are 2 and 3.  With the goal's atoms 1 and 3 lowest, 2 is
    # greatest in both.
    assert out.splitlines()[0] == "status goal-derived"
    assert "chain for (1 3): length 1, resolved 2" in out
    code, out, _ = run_cli(capsys, "saturate", "--in", str(path))
    assert (code, out.splitlines()[:2]) == (0, ["status saturated", "original 2 derived 0 steps 0"])


def test_saturate_chain_miss_fails(capsys):
    code, out, _ = run_cli(
        capsys, "saturate", "--family", "unit-chain", "--k", "3", "--chain", "2"
    )
    assert code == 1
    assert "not in the saturated store" in out
    # Usage errors are caught before the search runs: no status line.
    bad_chain = 'error: expected --chain as nonzero integer literals, e.g. "1 -4", got {!r}\n'
    usage_errors = [
        (["--chain", "1 -1"], "error: --chain clause '1 -1' is tautologous\n"),
        (["--chain", "0"], bad_chain.format("0")),
        (["--chain", "x"], bad_chain.format("x")),
        # Only ASCII spaces and tabs separate literals, as in DIMACS.
        (["--chain", "1\u00a0-2"], bad_chain.format("1\u00a0-2")),
        (["--chain", "1\u2003-2"], bad_chain.format("1\u2003-2")),
        (["--dot", "x.dot"], "error: --dot needs --chain to pick a clause\n"),
    ]
    for flags, message in usage_errors:
        code, out, err = run_cli(capsys, "saturate", "--family", "unit-chain", "--k", "3", *flags)
        assert (code, out, err) == (2, "", message), flags


def test_saturate_rejects_a_negative_budget(capsys):
    for flag in ("--max-steps", "--max-clauses"):
        code, out, err = run_cli(
            capsys, "saturate", "--family", "binomial", "--k", "3", flag, "-5"
        )
        assert code == 2 and out == ""
        name = flag[2:].replace("-", "_")
        assert err == f"error: {name} must be non-negative, got -5\n"


def test_saturate_trace_export(capsys, tmp_path):
    trace = tmp_path / "run.trace"
    code, _, _ = run_cli(
        capsys, "saturate", "--family", "unit-chain", "--k", "3", "--trace", str(trace)
    )
    assert code == 0
    # (-2 3) and (1 -3) meet on their greatest atom 3, then (1 -2) and
    # (1 2) on 2; (1) withdraws the rest, so no other pair is tried.
    assert trace.read_text().splitlines() == ["1 2 3 -> 3 : 1 -2", "0 3 2 -> 4 : 1"]


def test_max_steps_flag_caps_saturation(capsys):
    _, out, _ = run_cli(capsys, "saturate", "--family", "unit-chain", "--k", "4", "--max-steps", "2")
    assert "status budget-exhausted" in out
    assert out.splitlines()[1] == "stopped-by max_steps"
    _, out, _ = run_cli(
        capsys, "saturate", "--family", "unit-chain", "--k", "4", "--max-steps", "1000"
    )
    assert "status saturated" in out
    assert "stopped-by" not in out
    _, out, _ = run_cli(
        capsys, "saturate", "--family", "unit-chain", "--k", "4", "--max-clauses", "5"
    )
    assert out.splitlines()[:2] == ["status budget-exhausted", "stopped-by max_clauses"]


def test_max_width_flag_limits_resolvents(capsys):
    code, out, _ = run_cli(
        capsys, "saturate", "--family", "unit-chain", "--k", "4", "--max-width", "1"
    )
    assert code == 0
    assert out.splitlines()[:2] == ["status budget-exhausted", "stopped-by max_width"]
    assert "original 4 derived 0" in out
    assert "over-width" in out and "over-width 0" not in out


ANALYZE_BINOMIAL_3 = """\
num_vars 9
clauses 18
clauses by width 3=18
paths from x1.1: x1.1=1 s4.2=3 s4.3=3 s4.4=1 total 8
paths from ~x1.1: total 0
"""


def test_analyze_paths(capsys):
    # Row 1 of the boundary is aliased to the root, so its one path
    # arrives at x1.1; the rows hold C(3, r - 1) paths, 2^3 in all.
    code, out, err = run_cli(capsys, "analyze", "--family", "binomial", "--k", "3")
    assert (code, out, err) == (0, ANALYZE_BINOMIAL_3, "")


def test_analyze_paths_matches_spec_row(capsys):
    # Without the closure a depth-3 tree has one path to each outer row
    # and three to each inner row of the boundary.
    _, out, _ = run_cli(capsys, "analyze", "--family", "binomial", "--k", "3", "--closure", "none")
    assert "paths from x1.1: s4.1=1 s4.2=3 s4.3=3 s4.4=1 total 8\n" in out


def test_analyze_prints_no_paths_without_variables(capsys, tmp_path):
    path = tmp_path / "empty.cnf"
    path.write_text("p cnf 0 0\n")
    code, out, err = run_cli(capsys, "analyze", "--in", str(path))
    assert (code, out, err) == (0, "num_vars 0\nclauses 0\nclauses by width\n", "")


def test_analyze_reads_the_same_lines_off_the_generated_file(capsys, tmp_path):
    path = tmp_path / "tree3.cnf"
    run_cli(capsys, "generate", "--family", "binomial", "--k", "3", "--out", str(path))
    code, out, err = run_cli(capsys, "analyze", "--in", str(path))
    assert (code, out, err) == (0, ANALYZE_BINOMIAL_3, "")


def test_verify_only_named_check(capsys):
    code, out, _ = run_cli(capsys, "verify", "--only", "unit-chain-dominance")
    assert code == 0
    assert out.startswith("[pass] unit-chain-dominance")
    assert "1 checks, 1 passed, 0 failed" in out


def test_verify_rejects_unknown_check_names(capsys):
    with pytest.raises(SystemExit):
        main(["verify", "--only", "nonsense"])
    capsys.readouterr()


def test_bench_writes_csv(capsys, tmp_path):
    csv_path = tmp_path / "out.csv"
    umask = os.umask(0o022)
    try:
        code, out, _ = run_cli(
            capsys,
            "bench", "--family", "unit-chain", "--k-min", "2", "--k-max", "4",
            "--repetitions", "1", "--csv", str(csv_path),
        )
    finally:
        os.umask(umask)
    assert code == 0
    assert "family unit-chain: k 2..4, 3 runs" in out
    assert "derived clauses ~" in out
    raw = csv_path.read_bytes()
    assert raw.endswith(b"\r\n") and raw.count(b"\n") == raw.count(b"\r\n") == 4
    leftovers = [p for p in os.listdir(tmp_path) if p.startswith(".treesat-")]
    assert leftovers == []
    assert file_mode(csv_path) == 0o644


def test_bench_below_a_familys_least_depth_is_a_usage_error(capsys):
    code, out, err = run_cli(capsys, "bench", "--family", "unit-chain", "--k-min", "1")
    assert (code, out, err) == (2, "", "error: unit chain needs at least two variables\n")


def test_a_failed_write_names_the_given_path(capsys, tmp_path):
    target = str(tmp_path / "missing" / "x.csv")
    code, _, err = run_cli(
        capsys,
        "bench", "--family", "unit-chain", "--k-min", "2", "--k-max", "2",
        "--repetitions", "1", "--csv", target,
    )
    assert code == 1
    assert target in err and ".treesat-" not in err


def test_every_subcommand_draws_families_from_the_registry(capsys):
    subparsers = next(
        a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    )
    for name in ("generate", "solve", "saturate", "analyze", "bench"):
        family = next(
            a for a in subparsers.choices[name]._actions if a.dest == "family"
        )
        assert list(family.choices) == list(FAMILIES), name
    for name, build in FAMILIES.items():
        code, out, _ = run_cli(capsys, "generate", "--family", name, "--k", "3")
        assert code == 0 and out == write_dimacs(build(3)), name
    code, out, _ = run_cli(
        capsys,
        "bench", "--family", "multi-branching", "--k-min", "2", "--k-max", "3",
        "--repetitions", "1",
    )
    assert code == 0 and "family multi-branching: k 2..3, 2 runs" in out


@pytest.mark.parametrize(
    "argv, message",
    [
        (
            ["generate", "--family", "unit-chain", "--k", "3",
             "--closure", "bogus", "--implicit", "9.9=s1.1"],
            "--closure applies only to --family binomial",
        ),
        (["generate", "--family", "pair-chain", "--k", "3", "--redundancy", "1.1:2:4"],
         "--redundancy applies only to --family binomial"),
        (["generate", "--family", "compose-crossed", "--k", "3", "--sub", "s4.2=z0"],
         "--sub applies only to --family binomial"),
        (["generate", "--family", "multi-branching", "--k", "3", "--negate-root"],
         "--negate-root applies only to --family binomial"),
        (["generate", "--family", "binomial", "--k", "3", "--k-sub", "2"],
         "--k-sub applies only to --family multi-branching"),
        (["solve", "--in", "{cnf}", "--family", "binomial"],
         "--family builds a family and cannot be used with --in"),
        (["saturate", "--in", "{cnf}", "--k", "3"],
         "--k builds a family and cannot be used with --in"),
        (["saturate", "--in", "{cnf}", "--redundancy", "1.1:2"],
         "--redundancy builds a family and cannot be used with --in"),
    ],
)
def test_family_flags_that_would_be_ignored_are_rejected(capsys, tmp_path, argv, message):
    cnf = tmp_path / "chain.cnf"
    cnf.write_text(write_dimacs(build_unit_chain(3)))
    code, out, err = run_cli(capsys, *(a.format(cnf=cnf) for a in argv))
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_output_failure_keeps_no_partial_file(capsys, tmp_path):
    target = tmp_path / "no-such-dir" / "x.cnf"
    code, _, err = run_cli(
        capsys, "generate", "--family", "unit-chain", "--k", "3", "--out", str(target)
    )
    assert code == 1
    assert not target.exists()


def test_missing_subcommand_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as err:
        main([])
    assert err.value.code == 2
    capsys.readouterr()


def test_generate_matches_library_output_for_tree_specs(capsys):
    _, out, _ = run_cli(
        capsys,
        "generate", "--family", "binomial", "--k", "3",
        "--sub", "s4.2=z0", "--sub", "s4.4=~z0",
    )
    spec = TreeSpec(
        k=3,
        substitutions=(
            ("s4.2", NamedLit("z0")),
            ("s4.4", NamedLit("z0", negated=True)),
        ),
    )
    assert out == write_dimacs(build_binomial_tree(spec))
    assert "c meta substitutions s4.2=z0;s4.4=~z0" in out


def test_solve_round_trips_generated_files(capsys, tmp_path):
    path = tmp_path / "tree.cnf"
    code, _, _ = run_cli(
        capsys, "generate", "--family", "binomial", "--k", "4", "--out", str(path)
    )
    assert code == 0
    code, out, _ = run_cli(capsys, "solve", "--in", str(path))
    assert code == 10 and out == "sat\n"


# Seeds for the fuzz test: small formulas (few variables, so even the
# brute-force oracle stays fast) and the pieces mutations splice in.
FUZZ_SEEDS = [
    write_dimacs(build_unit_chain(3)),
    write_dimacs(build_binomial_tree(TreeSpec(k=2))),
    write_dimacs(compose_two_trees(2, Closing.MATCHED)),
    PARTLY_NAMED,
    "p cnf 0 0\n",
]
FUZZ_TOKENS = ["0", "-1", "1", "2", "-3", "7", "x", "", "c", "p", "cnf", "var", "meta",
               "z0", "s3.1", "x1.1", "-0", "1.5", "-\u0663", "1_0", "+2"]
FUZZ_LINES = ["c var 1 z0", "c var 9 s2.1", "c var 2 x1.1", "p cnf 3 2", "0", "c meta k 3",
              "1 -1 0", "c", "p cnf 0 0", "2 3"]


def mutate_dimacs(rng, text):
    lines = text.splitlines()
    for _ in range(rng.randint(1, 3)):
        kind = rng.randrange(6)
        at = rng.randrange(len(lines) + 1)
        if kind == 0 and lines:
            del lines[min(at, len(lines) - 1)]
        elif kind == 1 and lines:
            lines.insert(at, rng.choice(lines))
        elif kind == 2 and len(lines) > 1:
            i, j = rng.sample(range(len(lines)), 2)
            lines[i], lines[j] = lines[j], lines[i]
        elif kind == 3 and lines:
            i = min(at, len(lines) - 1)
            tokens = lines[i].split() or [""]
            tokens[rng.randrange(len(tokens))] = rng.choice(FUZZ_TOKENS)
            lines[i] = " ".join(tokens)
        elif kind == 4:
            lines.insert(at, rng.choice(FUZZ_LINES))
        else:
            joined = "\n".join(lines)
            lines = joined[: rng.randint(0, len(joined))].splitlines()
    return "\n".join(lines) + rng.choice(["\n", ""])


def fuzz_family_flags(rng):
    family = rng.choice(list(FAMILIES) + ["bogus"])
    argv = ["--family", family, "--k", str(rng.randint(-1, 4))]
    choices = {
        "--closure": ["alias:1", "alias:3", "clause:2", "none", "alias", "pivot:1", "clause:0",
                      "alias:\u0663", "clause:+2"],
        "--sub": ["s3.2=z0", "s3.3=~z0", "s4.2=z0", "x1.1=z0", "s3.1", "s2.2=~x1.1", "s3.2=q"],
        "--implicit": ["2.1=s4.2", "1.1=s3.3", "2.1=s3.1", "1.1=x1.1", "x=s3.1", "2.1", "1.1=s2.2",
                       "1.\u0661=s3.2"],
        "--redundancy": ["1.1:3", "2.1:2", "1.1:0", "1.1:x", "3.1:1", "1.1:1000", "1.1",
                         "1.1:3:7", "2.1:2:-2", "1.1:2:", "1.1:2:x", "1.1:1_0", "1.1:+2"],
        "--k-sub": ["-1", "0", "1", "2", "\u0662", "+1"],
    }
    # Flags go to the family that reads them, except in one draw in ten,
    # which keeps the check that rejects another family's flag fuzzed.
    mismatched = rng.random() < 0.1
    for flag, values in choices.items():
        owner = "multi-branching" if flag == "--k-sub" else "binomial"
        if family == owner or mismatched:
            for _ in range(rng.choice((0, 0, 1, 2))):
                argv += [flag, rng.choice(values)]
    if (family == "binomial" or mismatched) and rng.random() < 0.3:
        argv.append("--negate-root")
    return argv


def fuzz_input(rng, tmp_path, n):
    if rng.random() < 0.5:
        return fuzz_family_flags(rng)
    path = tmp_path / f"in{n}.cnf"
    path.write_text(mutate_dimacs(rng, rng.choice(FUZZ_SEEDS)))
    return ["--in", str(path)]


def fuzz_argv(rng, tmp_path, n):
    sub = rng.choice(["generate", "solve", "saturate", "analyze", "verify", "bench"])
    if sub == "generate":
        argv = fuzz_family_flags(rng)
    elif sub == "solve":
        argv = fuzz_input(rng, tmp_path, n) + rng.choice(
            [[], ["--model"], ["--oracle", "brute"], ["--oracle", "brute", "--model"]]
        )
    elif sub == "saturate":
        argv = fuzz_input(rng, tmp_path, n) + [
            "--max-clauses", str(rng.randint(-1, 300)), "--max-steps", str(rng.randint(-1, 3000)),
        ]
        if rng.random() < 0.5:
            argv += ["--chain", rng.choice(["1", "-1", "1 2", "1 -1", "x", "0", ""])]
        if rng.random() < 0.3:
            argv += ["--dot", str(tmp_path / f"c{n}.dot")]
        if rng.random() < 0.3:
            argv += ["--trace", str(tmp_path / f"t{n}.trace")]
    elif sub == "analyze":
        argv = fuzz_input(rng, tmp_path, n)
    elif sub == "verify":
        argv = rng.choice([[], ["--only"]]) + ["--only", rng.choice(["substitution-suite", "bogus"])]
    else:
        argv = [
            "--family", rng.choice(["unit-chain", "pair-chain", "bogus"]),
            "--k-min", str(rng.randint(-1, 3)), "--k-max", str(rng.randint(-1, 4)),
            "--repetitions", str(rng.randint(-1, 2)), "--max-clauses", str(rng.randint(1, 200)),
        ]
        if rng.random() < 0.3:
            argv += ["--csv", str(tmp_path / f"b{n}.csv")]
    argv = [sub] + argv
    if rng.random() < 0.15:
        argv.insert(rng.randint(1, len(argv)), rng.choice(["--k", "-1", "--bogus", ""]))
    if len(argv) > 1 and rng.random() < 0.15:
        del argv[rng.randrange(1, len(argv))]
    return argv


def test_cli_fuzz_exits_with_a_documented_code(capsys, tmp_path):
    rng = random.Random(20261018)
    for n in range(300):
        argv = fuzz_argv(rng, tmp_path, n)
        code, _, _ = run_argv(capsys, argv)
        assert code in {0, 1, 2, 10, 20}, argv
