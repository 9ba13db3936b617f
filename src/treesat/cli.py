"""Command-line entry point.

Subcommands: generate, solve, saturate, analyze, verify, bench.  Exit
codes follow solver convention: 0 success, 1 failure, 2 usage error,
10 satisfiable, 20 unsatisfiable.
"""

from __future__ import annotations

import argparse
import os
import sys
from collections import Counter
from typing import Sequence

from .bench import default_sweep_budget, export_csv, run_sweep, summarize
from .counts import count_paths
from .forge import (
    FAMILIES,
    TreeSpec,
    build_binomial_tree,
    build_multi_branching,
    parse_closure,
    parse_implicit,
    parse_redundancy,
    parse_substitution,
)
from .formula import (
    _SEPARATORS,
    Clause,
    CnfFormula,
    DimacsError,
    make_clause,
    parse_dimacs,
    parse_int,
    write_dimacs,
)
from .oracle import brute_force_sat, dpll_sat
from .resolution import (
    Budget,
    decision_chain_of,
    export_chain_dot,
    export_trace,
    saturate,
)
from .verify import check_names, format_report, run_checks


def _budget(args: argparse.Namespace) -> Budget:
    return Budget(max_clauses=args.max_clauses, max_steps=args.max_steps, max_width=args.max_width)


# The flags only one family reads, by that family.  Each defaults to
# None, so a flag given to any other family is caught, not ignored.
_OWN_FLAGS = {
    "binomial": ("closure", "sub", "implicit", "redundancy", "negate_root"),
    "multi-branching": ("k_sub",),
}


def _flag(dest: str) -> str:
    return "--" + dest.replace("_", "-")


def _family_formula(args: argparse.Namespace) -> CnfFormula:
    """Build from the family registry; the two families with flags of
    their own (binomial and multi-branching) read them here."""
    k = args.k
    if k is None:
        raise ValueError("--k is required when generating a family")
    for family, dests in _OWN_FLAGS.items():
        given = [d for d in dests if getattr(args, d) is not None]
        if given and args.family != family:
            raise ValueError(f"{_flag(given[0])} applies only to --family {family}")
    if args.family == "multi-branching":
        return build_multi_branching(k, 1 if args.k_sub is None else args.k_sub)
    if args.family != "binomial":
        return FAMILIES[args.family](k)
    closure = {} if args.closure is None else {"closure": parse_closure(args.closure)}
    spec = TreeSpec(
        k=k,
        **closure,
        substitutions=tuple(map(parse_substitution, args.sub or ())),
        implicit_nodes=tuple(map(parse_implicit, args.implicit or ())),
        redundancy=tuple(map(parse_redundancy, args.redundancy or ())),
        root_negated=bool(args.negate_root),
    )
    return build_binomial_tree(spec)


def _input_formula(args: argparse.Namespace) -> CnfFormula:
    if args.input is not None:
        for dest in ("family", "k", *(d for dests in _OWN_FLAGS.values() for d in dests)):
            if getattr(args, dest) is not None:
                raise ValueError(f"{_flag(dest)} builds a family and cannot be used with --in")
        try:
            # newline="" hands parse_dimacs the line ends as written.
            with open(args.input, encoding="utf-8", newline="") as fh:
                text = fh.read()
        except UnicodeDecodeError as exc:
            raise DimacsError(f"{args.input}: not UTF-8 text (byte {exc.start})") from None
        return parse_dimacs(text)
    if args.family is None:
        raise ValueError("give either --in FILE or --family/--k")
    return _family_formula(args)


def _write_output(path: str | None, text: str) -> None:
    """Write `text` to stdout, or to `path` through a new file beside it
    that is then renamed over `path`, so a failure never leaves a partial
    file.  This is the one place the package writes a file.  The
    temporary name is random and made by open() in exclusive mode, so no
    existing file is reused and the result gets the mode a plain open()
    gives.  newline="" writes the text's line endings as they are.  An
    OSError names `path`, not the temporary file."""
    if path is None:
        sys.stdout.write(text)
        return
    directory, name = os.path.split(os.path.abspath(path))
    tmp = os.path.join(directory, f".treesat-{os.urandom(6).hex()}-{name}")
    try:
        fh = open(tmp, "x", newline="")
        try:
            with fh:
                fh.write(text)
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, path) from exc


def _int_flag(text: str) -> int:
    """`parse_int` for a flag value; argparse prints a bad one as
    `argument --k: expected an integer, got '1_0'`."""
    try:
        return parse_int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _add_family_flags(parser: argparse.ArgumentParser, required: bool) -> None:
    parser.add_argument(
        "--family",
        choices=FAMILIES,
        required=required,
        help="instance family to build",
    )
    parser.add_argument("--k", type=_int_flag, help="tree or chain depth")
    parser.add_argument(
        "--closure",
        help="binomial closure: alias:ROW, clause:ROW or none (default alias:1)",
    )
    parser.add_argument(
        "--sub",
        action="append",
        metavar="SLOT=LIT",
        help="substitute a boundary slot, e.g. s4.2=z0 or s4.4=~z0 (repeatable)",
    )
    parser.add_argument(
        "--implicit",
        action="append",
        metavar="LEVEL.ROW=SLOT",
        help="make a node's switching clauses implicit via a descendant slot (repeatable)",
    )
    parser.add_argument(
        "--redundancy",
        action="append",
        metavar="LEVEL.ROW:COUNT[:SEED]",
        help="append COUNT redundancy clauses for a node, drawn by SEED (default 0; repeatable)",
    )
    parser.add_argument("--k-sub", type=_int_flag, help="subtree depth for multi-branching (default 1)")
    parser.add_argument(
        "--negate-root", action="store_true", default=None, help="enter the tree by the negated root"
    )


def _add_budget_flags(parser: argparse.ArgumentParser, defaults: Budget) -> None:
    parser.add_argument(
        "--max-clauses",
        type=_int_flag,
        default=defaults.max_clauses,
        help="stop after this many stored clauses (default %(default)s)",
    )
    parser.add_argument(
        "--max-steps",
        type=_int_flag,
        default=defaults.max_steps,
        help="stop after this many resolution steps (default %(default)s)",
    )
    parser.add_argument("--max-width", type=_int_flag, help="discard resolvents wider than this")


def cmd_generate(args: argparse.Namespace) -> int:
    formula = _family_formula(args)
    _write_output(args.out, write_dimacs(formula))
    return 0


def _var_label(formula: CnfFormula, vid: int) -> str:
    """A variable's atlas name, or its numeric id when the atlas (which
    DIMACS `c var` lines may fill only in part) does not name it."""
    return formula.atlas.name_of(vid) if vid <= len(formula.atlas) else str(vid)


def cmd_solve(args: argparse.Namespace) -> int:
    formula = _input_formula(args)
    oracle = brute_force_sat if args.oracle == "brute" else dpll_sat
    try:
        verdict = oracle(formula)
    except MemoryError:  # dpll_sat's tables grow with the declared count
        raise MemoryError(f"not enough memory to decide {formula.num_vars} declared variables") from None
    print(verdict.status)
    if args.model and verdict.model is not None:
        pairs = (
            f"{_var_label(formula, vid)}={int(verdict.model[vid])}"
            for vid in range(1, formula.num_vars + 1)
        )
        print(" ".join(pairs))
    return 10 if verdict.is_sat else 20


def _parse_chain(text: str) -> Clause:
    """A clause from literals split at ASCII spaces and tabs, as a DIMACS
    clause line is split."""
    try:
        clause = make_clause([parse_int(tok) for tok in _SEPARATORS.split(text) if tok])
    except ValueError as exc:
        raise ValueError(
            f'expected --chain as nonzero integer literals, e.g. "1 -4", got {text!r}'
        ) from exc
    if clause is None:
        raise ValueError(f"--chain clause {text!r} is tautologous")
    return clause


def cmd_saturate(args: argparse.Namespace) -> int:
    clause = None if args.chain is None else _parse_chain(args.chain)
    if clause is None and args.dot is not None:
        raise ValueError("--dot needs --chain to pick a clause")
    formula = _input_formula(args)
    result = saturate(formula, _budget(args)._replace(goal=clause))
    c = result.counters
    print(f"status {result.status}")
    if result.stopped_by is not None:
        print(f"stopped-by {result.stopped_by}")
    print(f"original {result.n_original} derived {len(result.derived)} steps {c.steps}")
    print(
        f"tautologies {c.tautologies} duplicates {c.duplicates} over-width {c.over_width} "
        f"subsumed {c.subsumed} retired {c.retired}"
    )
    if args.trace is not None:
        _write_output(args.trace, export_trace(result))
    if clause is not None:
        # The run ends at the first stored clause that subsumes the goal.
        goal = set(clause.lits)
        cid = next((i for i, c in enumerate(result.store) if goal.issuperset(c.lits)), None)
        if cid is None:
            print(f"clause ({clause}) not in the saturated store")
            return 1
        chain = decision_chain_of(result, cid)
        names = " ".join(_var_label(formula, v) for v in chain.resolved)
        label = f"({chain.clause})" + ("" if chain.clause == clause else f", a subset of ({clause})")
        print(f"chain for {label}: length {len(chain.resolved)}, resolved {names or '-'}")
        if args.dot is not None:
            _write_output(args.dot, export_chain_dot(result, cid))
    return 0


def _lit_label(formula: CnfFormula, lit: int) -> str:
    return ("~" if lit < 0 else "") + _var_label(formula, abs(lit))


def cmd_analyze(args: argparse.Namespace) -> int:
    formula = _input_formula(args)
    widths = Counter(clause.width for clause in formula.clauses)
    print(f"num_vars {formula.num_vars}")
    print(f"clauses {formula.num_clauses}")
    print("clauses by width", *(f"{width}={n}" for width, n in sorted(widths.items())))
    # The root is variable 1, if there is one; its two literals enter the
    # tree and, in a composition, the second tree.
    for entry in (1, -1) if formula.num_vars else ():
        arrivals = count_paths(formula, entry)
        ends = (f"{_lit_label(formula, lit)}={arrivals[lit]}" for lit in sorted(arrivals, key=abs))
        print(f"paths from {_lit_label(formula, entry)}:", *ends, "total", sum(arrivals.values()))
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    only = args.only or None
    results = run_checks(only=only)
    print(format_report(results))
    return 0 if all(r.passed for r in results) else 1


def cmd_bench(args: argparse.Namespace) -> int:
    records = run_sweep(
        args.family or ["binomial"],
        range(args.k_min, args.k_max + 1),
        budget=_budget(args),
        repetitions=args.repetitions,
    )
    if args.csv is not None:
        _write_output(args.csv, export_csv(records))
    print(summarize(records))
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="treesat",
        description="Generate, solve, saturate and analyze pair-sharing tree instances.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("generate", help="write an instance as DIMACS")
    _add_family_flags(p, required=True)
    p.add_argument("--out", help="output path (default: stdout)")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("solve", help="decide satisfiability; exits 10 (sat) or 20 (unsat)")
    p.add_argument("--in", dest="input", help="DIMACS input path")
    _add_family_flags(p, required=False)
    p.add_argument("--oracle", choices=("dpll", "brute"), default="dpll")
    p.add_argument("--model", action="store_true", help="print the model when satisfiable")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("saturate", help="run resolution saturation")
    p.add_argument("--in", dest="input", help="DIMACS input path")
    _add_family_flags(p, required=False)
    _add_budget_flags(p, Budget())
    p.add_argument("--trace", help="write the full resolution trace to this path")
    p.add_argument(
        "--chain",
        metavar="LITS",
        help='saturate toward a clause, e.g. "1 4", and report the decision chain '
        "of the stored clause that subsumes it",
    )
    p.add_argument("--dot", help="write the picked chain's ancestry as Graphviz dot")
    p.set_defaults(func=cmd_saturate)

    p = sub.add_parser("analyze", help="read sizes and root paths off a formula")
    p.add_argument("--in", dest="input", help="DIMACS input path")
    _add_family_flags(p, required=False)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("verify", help="run the verification checklist")
    p.add_argument("--only", action="append", choices=check_names(), help="run one named check (repeatable)")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("bench", help="sweep families and report scaling")
    p.add_argument("--family", action="append", choices=FAMILIES, help="family to sweep (repeatable)")
    p.add_argument("--k-min", type=_int_flag, default=2)
    p.add_argument("--k-max", type=_int_flag, default=8)
    p.add_argument("--repetitions", type=_int_flag, default=3)
    _add_budget_flags(p, default_sweep_budget())
    p.add_argument("--csv", help="write per-run records to this path")
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (DimacsError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
