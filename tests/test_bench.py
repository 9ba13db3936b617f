import pytest

from treesat.bench import (
    BenchRecord,
    COLUMNS,
    default_sweep_budget,
    export_csv,
    fit_power_law,
    parse_csv,
    run_one,
    run_sweep,
    summarize,
)


def make_record(**overrides):
    base = dict(
        family="unit-chain",
        k=3,
        repetition=0,
        variables=3,
        clauses=3,
        saturation_status="saturated",
        saturation_steps=5,
        derived_clauses=3,
        saturation_seconds=0.001,
        dpll_verdict="sat",
        dpll_nodes=1,
        dpll_seconds=0.001,
    )
    base.update(overrides)
    return BenchRecord(**base)


def test_run_one_records_both_phases():
    record = run_one("unit-chain", 3, 0, default_sweep_budget())
    assert record.family == "unit-chain" and record.k == 3
    assert record.variables == 3 and record.clauses == 3
    assert record.saturation_status == "saturated"
    assert record.derived_clauses == 2  # (1 -2), then (1)
    assert record.dpll_verdict == "sat"
    assert record.dpll_nodes >= 1
    assert record.saturation_seconds >= 0 and record.dpll_seconds >= 0


def test_run_sweep_shape_and_order():
    records = run_sweep(["unit-chain", "binary"], range(2, 4), repetitions=2)
    assert len(records) == 8
    assert [(r.family, r.k, r.repetition) for r in records[:4]] == [
        ("unit-chain", 2, 0),
        ("unit-chain", 2, 1),
        ("unit-chain", 3, 0),
        ("unit-chain", 3, 1),
    ]


def test_run_sweep_validation():
    with pytest.raises(ValueError, match="no families"):
        run_sweep([], range(2, 4))
    with pytest.raises(ValueError, match="empty k range"):
        run_sweep(["unit-chain"], [])
    with pytest.raises(ValueError, match="repetitions"):
        run_sweep(["unit-chain"], [2], repetitions=0)
    with pytest.raises(ValueError, match="unknown families: what"):
        run_sweep(["unit-chain", "what"], [2])


def test_csv_round_trip():
    records = run_sweep(["unit-chain", "pair-chain"], range(2, 5))
    text = export_csv(records)
    lines = text.splitlines()
    assert lines[0] == ",".join(COLUMNS)
    assert len(lines) == len(records) + 1
    assert parse_csv(text) == records


def _csv_with(column, text):
    """export_csv of one record, with `text` in place of one column."""
    header, line = export_csv([make_record()]).splitlines()
    fields = line.split(",")
    fields[COLUMNS.index(column)] = text
    return header + "\r\n" + ",".join(fields) + "\r\n"


@pytest.mark.parametrize("column", ["saturation_seconds", "dpll_seconds"])
@pytest.mark.parametrize("text", ["1_0.5", "\u0663", "nan", "inf", "-inf", "1.", ".5", " 1.5", "0x1p-3"])
def test_csv_seconds_are_ascii_decimals(column, text):
    with pytest.raises(ValueError) as err:
        parse_csv(_csv_with(column, text))
    assert str(err.value) == f"column {column}: expected a decimal number, got {text!r}"


def test_csv_names_the_column_of_a_bad_integer():
    with pytest.raises(ValueError) as err:
        parse_csv(_csv_with("dpll_nodes", "1_0"))
    assert str(err.value) == "column dpll_nodes: expected an integer, got '1_0'"


def test_csv_reads_every_spelling_of_a_finite_float():
    for seconds in (0.0, 1.5, 1.2e-05, 3e-07, 1234567.25, 1e16, 2.5e+20):
        record = make_record(saturation_seconds=seconds, dpll_seconds=seconds)
        assert parse_csv(export_csv([record])) == [record]


def test_csv_rejects_foreign_headers():
    with pytest.raises(ValueError, match="unexpected header"):
        parse_csv("a,b,c\n1,2,3\n")
    with pytest.raises(ValueError, match="no records"):
        export_csv([])


def test_fit_power_law_recovers_exact_exponent():
    fit = fit_power_law([(x, 3 * x**2) for x in (1, 2, 5, 10, 40)])
    assert fit.points == 5
    assert abs(fit.exponent - 2.0) < 1e-9
    assert abs(fit.scale - 3.0) < 1e-9
    assert fit.residual < 1e-12


def test_fit_power_law_filters_and_degenerates():
    fit = fit_power_law([(0, 1), (1, 0), (10, 100), (100, 10000)])
    assert fit.points == 2 and abs(fit.exponent - 2.0) < 1e-9
    assert fit_power_law([]) is None
    assert fit_power_law([(5, 10), (5, 20)]) is None
    assert fit_power_law([(0, 3), (-2, 8)]) is None


def test_summarize_reports_each_family():
    records = run_sweep(["unit-chain", "binomial"], range(2, 6))
    text = summarize(records)
    assert "family unit-chain: k 2..5, 4 runs" in text
    assert "family binomial: k 2..5, 4 runs" in text
    assert "derived clauses ~" in text
    assert "dpll nodes" in text
    # With forward subsumption no run stops at the sweep budget.
    assert "runs stopped at the saturation budget" not in text
    with pytest.raises(ValueError):
        summarize([])


def test_summarize_fits_only_runs_below_the_budget():
    rows = [
        make_record(k=k, variables=v, derived_clauses=v * v) for k, v in ((2, 3), (3, 6), (4, 12))
    ]
    capped = make_record(
        k=5, variables=24, derived_clauses=100, saturation_status="budget-exhausted"
    )
    text = summarize(rows + [capped])
    assert "derived clauses ~ 1 * n^2.00" in text
    assert "(rms log10 residual 0.000, 3 points)" in text
    assert "1 of 4 runs stopped at the saturation budget and are left out of the fit" in text


def test_summarize_handles_unfittable_columns():
    flat = [
        make_record(k=k, variables=v, derived_clauses=0)
        for k, v in ((2, 3), (3, 4))
    ]
    text = summarize(flat)
    assert "not enough positive points" in text


def test_timing_fields_can_be_normalized():
    record = make_record(saturation_seconds=1.5, dpll_seconds=2.5)
    stripped = record._replace(saturation_seconds=0.0, dpll_seconds=0.0)
    assert stripped.saturation_seconds == 0.0 and stripped.family == record.family
