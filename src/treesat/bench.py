"""Benchmark sweeps over the instance families.

Runs saturation and DPLL across a depth range, records one row per
(family, k, repetition), and fits log-log scaling exponents of work
against instance size.  Fits are reported together with their residuals;
nothing here asserts a growth rate.  Reports come back as text (CSV,
a summary); writing them to files is the command line's job.
"""

from __future__ import annotations

import csv
import io
import math
import re
import time
from typing import Iterable, NamedTuple, Sequence

from .forge import FAMILIES
from .formula import parse_int
from .oracle import dpll_sat
from .resolution import Budget, SaturationStatus, saturate

# Sweep budgets are deliberately small: a sweep probes growth trends, and
# budget exhaustion is an honest recorded status, not a failure.
SWEEP_MAX_CLAUSES = 20_000
SWEEP_MAX_STEPS = 200_000

class BenchRecord(NamedTuple):
    family: str
    k: int
    repetition: int
    variables: int
    clauses: int
    saturation_status: str
    saturation_steps: int
    derived_clauses: int
    saturation_seconds: float
    dpll_verdict: str
    dpll_nodes: int
    dpll_seconds: float


COLUMNS: tuple[str, ...] = BenchRecord._fields
_FLOAT_COLUMNS = frozenset(("saturation_seconds", "dpll_seconds"))
_STR_COLUMNS = frozenset(("family", "saturation_status", "dpll_verdict"))
# str(float) of a finite float, in ASCII: digits, a fraction, an exponent.
_DECIMAL = re.compile(r"-?[0-9]+(\.[0-9]+)?(e[-+]?[0-9]+)?", re.ASCII)


def default_sweep_budget() -> Budget:
    return Budget(max_clauses=SWEEP_MAX_CLAUSES, max_steps=SWEEP_MAX_STEPS)


def run_one(family: str, k: int, repetition: int, budget: Budget) -> BenchRecord:
    """Build one instance and time saturation and DPLL on it.  A family
    that cannot be built at depth k raises its generator's ValueError."""
    formula = FAMILIES[family](k)
    start = time.perf_counter()
    res = saturate(formula, budget)
    sat_seconds = time.perf_counter() - start
    start = time.perf_counter()
    verdict = dpll_sat(formula)
    dpll_seconds = time.perf_counter() - start

    return BenchRecord(
        family, k, repetition, formula.num_vars, len(formula.clauses),
        str(res.status), res.counters.steps, len(res.derived), sat_seconds,
        str(verdict.status), verdict.nodes, dpll_seconds,
    )


def run_sweep(
    families: Sequence[str],
    k_range: Iterable[int],
    budget: Budget | None = None,
    repetitions: int = 1,
) -> list[BenchRecord]:
    ks = list(k_range)
    if not families:
        raise ValueError("no families given")
    if not ks:
        raise ValueError("empty k range")
    if repetitions < 1:
        raise ValueError(f"repetitions must be positive, got {repetitions}")
    unknown = [f for f in families if f not in FAMILIES]
    if unknown:
        raise ValueError(f"unknown families: {', '.join(unknown)}")
    if budget is None:
        budget = default_sweep_budget()

    records = []
    for family in families:
        for k in ks:
            for rep in range(repetitions):
                records.append(run_one(family, k, rep, budget))
    return records


def export_csv(records: Sequence[BenchRecord]) -> str:
    """The records as CSV text, one row per record after a header row;
    rows end in \r\n, the csv module's default."""
    if not records:
        raise ValueError("no records to export")
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(COLUMNS)
    writer.writerows(records)
    return out.getvalue()


def _parse_decimal(text: str) -> float:
    if _DECIMAL.fullmatch(text) is None:
        raise ValueError(f"expected a decimal number, got {text!r}")
    return float(text)


def parse_csv(text: str) -> list[BenchRecord]:
    """Inverse of export_csv.  Integer columns are read by `parse_int`,
    the seconds columns as `str(float)` writes a finite float, in ASCII
    (`-1.5`, `3e-07`); a bad value raises ValueError naming its column."""
    reader = csv.DictReader(io.StringIO(text, newline=""))
    if reader.fieldnames != list(COLUMNS):
        raise ValueError(f"unexpected header {reader.fieldnames}")
    records = []
    for row in reader:
        values = {}
        for name in COLUMNS:
            raw = row[name]
            if name in _STR_COLUMNS:
                values[name] = raw
                continue
            read = _parse_decimal if name in _FLOAT_COLUMNS else parse_int
            try:
                values[name] = read(raw)
            except ValueError as exc:
                raise ValueError(f"column {name}: {exc}") from None
        records.append(BenchRecord(**values))
    return records


class PowerLawFit(NamedTuple):
    """Least-squares fit of y ~ scale * x**exponent on log-log axes;
    residual is the root-mean-square misfit of log10(y)."""

    exponent: float
    scale: float
    residual: float
    points: int


def fit_power_law(points: Sequence[tuple[float, float]]) -> PowerLawFit | None:
    usable = [(x, y) for x, y in points if x > 0 and y > 0]
    if len({x for x, _ in usable}) < 2:
        return None
    logs = [(math.log10(x), math.log10(y)) for x, y in usable]
    n = len(logs)
    mean_x = sum(lx for lx, _ in logs) / n
    mean_y = sum(ly for _, ly in logs) / n
    var_x = sum((lx - mean_x) ** 2 for lx, _ in logs)
    cov = sum((lx - mean_x) * (ly - mean_y) for lx, ly in logs)
    slope = cov / var_x
    intercept = mean_y - slope * mean_x
    misfit = sum((ly - (intercept + slope * lx)) ** 2 for lx, ly in logs)
    return PowerLawFit(
        exponent=slope,
        scale=10.0 ** intercept,
        residual=math.sqrt(misfit / n),
        points=n,
    )


def _fit_line(label: str, fit: PowerLawFit | None) -> str:
    if fit is None:
        return f"  {label}: not enough positive points to fit"
    return (
        f"  {label} ~ {fit.scale:.3g} * n^{fit.exponent:.2f}"
        f"  (rms log10 residual {fit.residual:.3f}, {fit.points} points)"
    )


def uncensored(records: Sequence[BenchRecord]) -> list[BenchRecord]:
    """The rows whose saturation did not stop at the budget.  A capped
    row's derived clauses measure the budget, not the work saturation
    needs, so growth fits leave it out."""
    capped = str(SaturationStatus.BUDGET_EXHAUSTED)
    return [r for r in records if r.saturation_status != capped]


def summarize(records: Sequence[BenchRecord]) -> str:
    """Plain-text report: one block per family with verdicts and the two
    scaling fits (derived clauses and DPLL nodes, both against variable
    count).  The derived-clauses fit leaves out the runs stopped at the
    budget and says how many it left out."""
    if not records:
        raise ValueError("no records to summarize")
    lines = []
    for family in dict.fromkeys(r.family for r in records):
        rows = [r for r in records if r.family == family]
        ks = sorted({r.k for r in rows})
        verdicts = sorted({r.dpll_verdict for r in rows})
        statuses = sorted({r.saturation_status for r in rows})
        lines.append(
            f"family {family}: k {ks[0]}..{ks[-1]}, {len(rows)} runs, "
            f"dpll verdicts [{', '.join(verdicts)}], "
            f"saturation statuses [{', '.join(statuses)}]"
        )
        kept = uncensored(rows)
        lines.append(_fit_line(
            "derived clauses",
            fit_power_law([(r.variables, r.derived_clauses) for r in kept]),
        ))
        capped = len(rows) - len(kept)
        if capped:
            lines.append(
                f"    {capped} of {len(rows)} runs stopped at the saturation budget "
                "and are left out of the fit"
            )
        lines.append(_fit_line(
            "dpll nodes    ",
            fit_power_law([(r.variables, r.dpll_nodes) for r in rows]),
        ))
    return "\n".join(lines)
