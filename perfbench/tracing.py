"""Spans around the benchmark's calls into the package's layers.

A span is (name, start, end, parent, counts): `parent` is the index of
the enclosing span in the same list (-1 at top level) and `counts` holds
the work the call reports at its boundary (steps, nodes, bytes).  Spans
stay in memory and are written out when the run ends.  With `on` false a
wrapped call goes straight through, which is how end-to-end figures are
taken.
"""

from __future__ import annotations

import statistics
from contextlib import contextmanager
from time import perf_counter

# The public functions each workload calls, by layer.  `counts` maps a
# call's arguments and result to the work it did.
LAYERS = {
    "forge": ("compose_two_trees", "build_binomial_tree"),
    "formula": ("write_dimacs", "parse_dimacs"),
    "resolution": (
        "saturate",
        "clause_id",
        "decision_chain_of",
        "replay_trace",
        "is_dominant_by_resolution",
    ),
    "oracle": ("dpll_sat", "brute_force_sat", "is_dominant"),
}


def _saturation_counts(args, result) -> dict:
    c = result.counters
    return {
        "steps": c.steps,
        "added": c.added,
        "tautologies": c.tautologies,
        "duplicates": c.duplicates,
        "stored": len(result.store),
    }


COUNTS = {
    "compose_two_trees": lambda args, f: {"clauses": f.num_clauses},
    "build_binomial_tree": lambda args, f: {"clauses": f.num_clauses},
    "parse_dimacs": lambda args, f: {"bytes": len(args[0])},
    "saturate": _saturation_counts,
    "dpll_sat": lambda args, v: {"nodes": v.nodes, "propagations": v.propagations},
}


class Tracer:
    def __init__(self) -> None:
        self.on = False
        self.spans: list[list] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        """Record a span around a block when tracing is on; yields the
        span's counts dict (or a throwaway one)."""
        if not self.on:
            yield {}
            return
        record = [name, 0.0, 0.0, self._open[-1] if self._open else -1, {}]
        self._open.append(len(self.spans))
        self.spans.append(record)
        record[1] = perf_counter()
        try:
            yield record[4]
        finally:
            record[2] = perf_counter()
            self._open.pop()

    def wrap(self, name: str, fn, counts=None):
        def call(*args, **kwargs):
            if not self.on:
                return fn(*args, **kwargs)
            with self.span(name) as recorded:
                result = fn(*args, **kwargs)
            if counts is not None:
                recorded.update(counts(args, result))
            return result

        return call

    def take(self) -> list[list]:
        spans, self.spans = self.spans, []
        return spans


class Api:
    """The package's public functions as the workloads call them, each
    wrapped by the tracer under '<layer>.<function>'.

    `is_dominant_by_resolution` calls `saturate` through its module's
    namespace, so that name is pointed at a wrapper as well, which keeps
    the result for the benchmark's own checks until `take_saturation`.
    """

    def __init__(self, ts, tracer: Tracer) -> None:
        for layer, names in LAYERS.items():
            module = getattr(ts, layer)
            for name in names:
                if name == "clause_id":
                    fn = lambda result, clause: result.clause_id(clause)  # noqa: E731
                else:
                    fn = getattr(module, name)
                setattr(self, name, tracer.wrap(f"{layer}.{name}", fn, COUNTS.get(name)))
        self.last_saturation = None

        def saturate(formula, budget=None):
            self.last_saturation = self.saturate(formula, budget)
            return self.last_saturation

        ts.resolution.saturate = saturate

    def take_saturation(self):
        result, self.last_saturation = self.last_saturation, None
        return result


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def pass_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer metrics of one traced pass (set-up spans included).

    A layer the workload never calls reads 0.  The `dpll_sat` call made
    by the deep-pairs operation counts as `oracle.deep_pairs_s` only.
    """
    time: dict[str, float] = {}
    work: dict[str, int] = {}
    stored = 0
    for name, start, end, parent, counts in spans:
        if name == "oracle.dpll_sat" and parent >= 0 and spans[parent][0] == "op.deep-pairs":
            time["oracle.deep_pairs"] = time.get("oracle.deep_pairs", 0.0) + (end - start)
            continue
        time[name] = time.get(name, 0.0) + (end - start)
        for key, value in counts.items():
            if key == "stored":
                stored = max(stored, value)
            else:
                work[key] = work.get(key, 0) + value
    t = lambda name: time.get(name, 0.0)  # noqa: E731
    n = lambda key: work.get(key, 0)  # noqa: E731
    forge_s = t("forge.compose_two_trees") + t("forge.build_binomial_tree")
    saturate_s = t("resolution.saturate")
    dpll_s = t("oracle.dpll_sat")
    return {
        "forge.build_s": forge_s,
        "forge.clauses_per_s": _ratio(n("clauses"), forge_s),
        "formula.write_dimacs_s": t("formula.write_dimacs"),
        "formula.parse_dimacs_s": t("formula.parse_dimacs"),
        "formula.parse_mib_per_s": _ratio(n("bytes") / 2**20, t("formula.parse_dimacs")),
        "resolution.saturate_s": saturate_s,
        "resolution.us_per_step": _ratio(saturate_s * 1e6, n("steps")),
        "resolution.steps": n("steps"),
        "resolution.useful_ratio": _ratio(n("added"), n("steps")),
        "resolution.tautology_ratio": _ratio(n("tautologies"), n("steps")),
        "resolution.duplicate_ratio": _ratio(n("duplicates"), n("steps")),
        "resolution.stored_clauses": stored,
        "resolution.root_unit_id": n("root_unit_id"),
        "resolution.is_dominant_s": t("resolution.is_dominant_by_resolution"),
        "resolution.clause_id_s": t("resolution.clause_id"),
        "resolution.chain_s": t("resolution.decision_chain_of"),
        "resolution.replay_s": t("resolution.replay_trace"),
        "oracle.dpll_s": dpll_s,
        "oracle.dpll_nodes": n("nodes"),
        "oracle.dpll_propagations": n("propagations"),
        "oracle.us_per_propagation": _ratio(dpll_s * 1e6, n("propagations")),
        "oracle.is_dominant_s": t("oracle.is_dominant"),
        "oracle.brute_s": t("oracle.brute_force_sat"),
        "oracle.deep_pairs_s": t("oracle.deep_pairs"),
    }


def layer_metrics(setup_spans: list[list], pass_spans: list[list[list]]) -> dict[str, float]:
    """Each per-layer metric as the median over the traced passes (the
    lower middle value, so counts stay whole)."""
    shift = len(setup_spans)

    def joined(spans):
        return setup_spans + [[n, s, e, p + shift if p >= 0 else -1, c] for n, s, e, p, c in spans]

    per_pass = [pass_metrics(joined(spans)) for spans in pass_spans]
    return {key: statistics.median_low(m[key] for m in per_pass) for key in per_pass[0]}
