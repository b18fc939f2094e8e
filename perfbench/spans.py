"""Span recording around the layer functions that ergosum.harness calls.

The harness imports each layer's public functions into its own namespace
(``from .trigsum import sup_envelope`` and so on) and looks them up there
at call time. Replacing those names with wrappers therefore times every
call the harness makes into a layer without touching the package. Calls a
layer makes internally are not wrapped, so the spans form a tree of depth
two: one ``run`` span and, below it, one span per layer call.
"""

from __future__ import annotations

import statistics
import time
from contextlib import contextmanager

# name imported into ergosum.harness -> (layer, timing bucket)
LAYER_FUNCTIONS = {
    "validate": ("harness", "validate_s"),
    "gen_weights": ("weights", "self_s"),
    "gen_indices": ("indices", "gen_s"),
    "pi_count": ("indices", "pi_count_s"),
    "sup_envelope": ("trigsum", "self_s"),
    "sup_harmonic": ("trigsum", "self_s"),
    "orbit_eval": ("dynamics", "self_s"),
    "weighted_sums": ("averages", "sums_s"),
    "hilbert_series": ("averages", "sums_s"),
    "normalized_series": ("averages", "reports_s"),
    "cauchy_tail_report": ("averages", "reports_s"),
    "oscillation_report": ("averages", "reports_s"),
    "fit_H1": ("scaling_fit", "self_s"),
    "fit_H2": ("scaling_fit", "self_s"),
    "fit_harmonic": ("scaling_fit", "self_s"),
    "fit_log_decay": ("scaling_fit", "self_s"),
}

RUN_SPAN = "run"

# bytes of one complex128 transform buffer per theta grid point
FFT_BYTES_PER_POINT = 16

# Every per-layer metric a traced run reports, with its unit. The harness
# counters and trace.overhead_s are measured by the caller, not from spans.
LAYER_METRICS = {
    "trigsum.self_s": "s",
    "trigsum.calls": "count",
    "trigsum.terms": "count",
    "trigsum.grid_points": "count",
    "trigsum.fft_bytes": "bytes",
    "trigsum.aliased_rows": "count",
    "trigsum.median_slack": "ratio",
    "indices.gen_s": "s",
    "indices.pi_count_s": "s",
    "indices.calls": "count",
    "indices.terms": "count",
    "dynamics.self_s": "s",
    "dynamics.calls": "count",
    "dynamics.terms": "count",
    "averages.sums_s": "s",
    "averages.reports_s": "s",
    "averages.terms": "count",
    "averages.stored_points": "count",
    "weights.self_s": "s",
    "weights.calls": "count",
    "weights.terms": "count",
    "scaling_fit.self_s": "s",
    "scaling_fit.calls": "count",
    "scaling_fit.samples": "count",
    "harness.self_s": "s",
    "harness.validate_s": "s",
    "harness.files_written": "count",
    "harness.bytes_written": "bytes",
    "harness.digest_mismatches": "count",
    "trace.overhead_s": "s",
}


# The self times that partition the run span.
SELF_TIME_METRICS = (
    "trigsum.self_s",
    "indices.gen_s",
    "indices.pi_count_s",
    "dynamics.self_s",
    "averages.sums_s",
    "averages.reports_s",
    "weights.self_s",
    "scaling_fit.self_s",
    "harness.self_s",
)


class Recorder:
    """Keeps the spans of one process in memory, in start order."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        rec = {
            "id": len(self.spans),
            "name": name,
            "parent": self._open[-1] if self._open else None,
            "run": self.run_id,
            "start": time.perf_counter(),
            "end": None,
            "counts": {},
        }
        self.spans.append(rec)
        self._open.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            with self.span(name) as rec:
                out = fn(*args, **kwargs)
            # counted after the span closes, so counting is harness time
            rec["counts"] = _counts(name, args, out)
            return out

        return traced


def install(harness_module, recorder: Recorder) -> None:
    """Replace the layer functions imported into the harness with wrappers."""
    for name in LAYER_FUNCTIONS:
        setattr(harness_module, name, recorder.wrap(name, getattr(harness_module, name)))


def _counts(name: str, args, out) -> dict:
    if name in ("sup_envelope", "sup_harmonic"):
        return {
            "terms": len(args[0]),
            "grid_points": out.grid_points,
            "aliased_rows": int(out.aliased),
            "slack": (out.upper - out.lower) / out.lower if out.lower > 0 else 0.0,
        }
    if name in ("gen_weights", "gen_indices", "orbit_eval"):
        return {"terms": len(out)}
    if name in ("weighted_sums", "hilbert_series"):
        return {"terms": len(args[0]), "stored_points": int(out.n_grid.size)}
    if name.startswith("fit_"):
        return {"samples": len(args[0])}
    return {}


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> duration minus the time its direct children cover.

    Children of one span never overlap (the program is single threaded),
    so the covered part is the sum of their durations."""
    covered: dict[int, float] = {}
    for s in spans:
        if s["parent"] is not None:
            covered[s["parent"]] = covered.get(s["parent"], 0.0) + s["end"] - s["start"]
    return {s["id"]: s["end"] - s["start"] - covered.get(s["id"], 0.0) for s in spans}


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer times and counts from the spans of one traced run.

    ``harness.self_s`` is the run span's own time plus validation, so the
    layer self times and ``harness.self_s`` add up to the run span."""
    out = {name: 0 if unit in ("count", "bytes") else 0.0
           for name, unit in LAYER_METRICS.items()}
    slacks = []
    own = self_times(spans)
    for s in spans:
        t = own[s["id"]]
        if s["name"] == RUN_SPAN:
            out["harness.self_s"] += t
            continue
        layer, bucket = LAYER_FUNCTIONS[s["name"]]
        out[f"{layer}.{bucket}"] += t
        if layer == "harness":
            out["harness.self_s"] += t
            continue
        c = s["counts"]
        if f"{layer}.calls" in out:
            out[f"{layer}.calls"] += 1
        if f"{layer}.terms" in out:
            out[f"{layer}.terms"] += c.get("terms", 0)
        if layer == "trigsum":
            out["trigsum.grid_points"] += c["grid_points"]
            out["trigsum.fft_bytes"] += FFT_BYTES_PER_POINT * c["grid_points"]
            out["trigsum.aliased_rows"] += c["aliased_rows"]
            slacks.append(c["slack"])
        out["averages.stored_points"] += c.get("stored_points", 0)
        out["scaling_fit.samples"] += c.get("samples", 0)
    out["trigsum.median_slack"] = statistics.median(slacks) if slacks else 0.0
    return out


def run_total(spans: list[dict]) -> float:
    """Duration of the run span, the traced total."""
    (run,) = [s for s in spans if s["name"] == RUN_SPAN]
    return run["end"] - run["start"]
