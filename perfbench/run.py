"""Run one benchmark workload against the treesat sources of this checkout.

    python3 perfbench/run.py --workload refute --seed 1 --seconds 20 --trace 0

Set-up imports `treesat` afresh from `src/` and builds the workload's
inputs.  Whole passes over the workload's operations run until
`--seconds` have gone by; set-up runs SETUP_REPEATS times before the
first pass and after each pass, and `setup_s` is the median of all
those set-ups.  Each operation's outputs are checked by the benchmark's own
code (`checks.py`) outside the timed region.  The last line of standard
output is one JSON object: `correct`, `attempted`, `failed` and the
metrics that BENCHMARK.json declares, end-to-end ones with `--trace 0`
and per-layer ones with `--trace 1`.

With `--trace 1` the passes alternate untraced and traced; per-layer
metrics are medians over the traced passes, `trace.overhead_s` is the
traced minus the untraced median pass time, and the spans are written
to `perfbench/out/`.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

from checks import CheckFailed
from tracing import Api, Tracer, layer_metrics
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPEATS = 3


def fresh_import():
    for name in [m for m in sys.modules if m == "treesat" or m.startswith("treesat.")]:
        del sys.modules[name]
    return importlib.import_module("treesat")


class Tally:
    """Operations attempted and failed, and whether every output checked."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self._reported: set[str] = set()

    def report(self, label: str, message: str) -> None:
        if label not in self._reported:
            self._reported.add(label)
            print(f"{label}: {message}", file=sys.stderr)


def run_pass(ops, tracer: Tracer, tally: Tally) -> tuple[float, int]:
    """One pass over the operations; returns (wall seconds of the timed
    operations, refutation steps)."""
    wall = 0.0
    refute_steps = 0
    gc.collect()  # start every pass from the same heap, not with the last pass's garbage
    for op in ops:
        tally.attempted += 1
        out = None
        with tracer.span(f"op.{op.label}") as span_counts:
            start = perf_counter()
            try:
                out = op.run()
            except Exception:
                tally.failed += 1
                tally.report(op.label, "failed: " + traceback.format_exc(limit=-3).strip())
            if op.timed:
                wall += perf_counter() - start
        if out is None:
            continue
        try:
            found = op.check(out)
        except Exception as exc:  # an output the checks cannot read is wrong too
            tally.correct = False
            detail = exc if isinstance(exc, CheckFailed) else traceback.format_exc(limit=-3).strip()
            tally.report(op.label, f"wrong output: {detail}")
            continue
        span_counts.update(found)
        refute_steps += found.get("refute_steps", 0)
    return wall, refute_steps


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "treesat" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: no treesat sources under {SRC} or no {spec_path}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    sys.path.insert(0, str(SRC))

    tracer = Tracer()
    tally = Tally()
    setups: list[float] = []

    def set_up():
        """Import the package afresh and build the inputs, SETUP_REPEATS
        times (once when tracing); returns the last inputs, checked."""
        for _ in range(1 if args.trace else SETUP_REPEATS):
            start = perf_counter()
            ts = fresh_import()
            inputs = WORKLOADS[args.workload](ts, Api(ts, tracer), args.seed)
            setups.append(perf_counter() - start)
        for check in inputs.checks:
            try:
                check()
            except CheckFailed as exc:
                tally.correct = False
                tally.report("inputs", f"wrong input: {exc}")
        return inputs

    tracer.on = bool(args.trace)
    inputs = set_up()
    setup_spans = tracer.take()

    walls: list[float] = []
    traced_walls: list[float] = []
    traced_spans: list[list] = []
    steps: list[int] = []
    start = perf_counter()
    while True:
        tracer.on = bool(args.trace) and len(walls) > len(traced_walls)
        wall, refute_steps = run_pass(inputs.ops, tracer, tally)
        steps.append(refute_steps)
        print(f"pass {len(steps)}{' traced' if tracer.on else ''}: {wall:.4f} s", file=sys.stderr)
        if tracer.on:
            traced_walls.append(wall)
            traced_spans.append(tracer.take())
        else:
            walls.append(wall)
        if not args.trace:
            # Set-up samples taken between passes see the same machine
            # load as the passes do.
            inputs = set_up()
        if perf_counter() - start >= args.seconds and (traced_walls or not args.trace):
            break

    if args.trace:
        metrics = layer_metrics(setup_spans, traced_spans)
        metrics["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(walls)
        OUT.mkdir(exist_ok=True)
        spans_file = OUT / f"{args.workload}-seed{args.seed}.spans.json"
        spans_file.write_text(
            json.dumps(
                {
                    "fields": ["name", "start", "end", "parent", "counts"],
                    "setup": setup_spans,
                    "passes": traced_spans,
                    "untraced_wall_s": walls,
                    "traced_wall_s": traced_walls,
                }
            )
        )
    else:
        metrics = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(walls),
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "steps_to_refute": statistics.median_low(steps),
        }
    if set(metrics) != set(units):
        mismatch = sorted(set(metrics) ^ set(units))
        print(f"error: metrics {mismatch} disagree with {spec_path}", file=sys.stderr)
        return 2
    result = {
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
