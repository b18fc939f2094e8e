"""Batch experiment harness and command line entry point.

An experiment is described by a small JSON config (see ExperimentConfig).
Each kind reads name, kind, seeds, output_dir and the fields its `_READS`
row lists; validate() rejects any other field a config sets. Five base
kinds cover the library surface:

  envelope_scan    certified sup-of-trig-sum rows over (M, N] blocks
  condition_fit    envelope rows plus a growth-template fit on them, the
                   rows harmonic exactly when the template is
  average_run      normalized running sums of w_k f(T^{u_k} x) along an
                   orbit, with decay report
  hilbert_run      partial sums of the one-sided series sum w_k/A(k)
                   f(T^{u_k} x) with Cauchy tail diagnostics
  oscillation_run  average_run plus per-block oscillation maxima along a
                   block ladder

`preset` runs one worked scenario (example1 .. example6, prime_question),
one row of the `_PRESETS` table: the function that builds its plan from
its `params`, the title and exercises `ergosum presets` lists, the default
seed list (a preset is stochastic exactly when it is nonempty; the others
ignore `seeds`) and the free params with their defaults and checks.

Outputs land under <output root>/<name>/ as CSV + JSON + SVG, plus a
manifest.json recording the canonicalized config, content digests and
wall times. With a fixed config and seed list every emitted CSV, JSON
and SVG is reproduced byte for byte; wall-clock timings live only in the
manifest. Floats are written with shortest round-trip formatting.

Environment: ERGOSUM_OUTPUT_ROOT overrides the default output root.

A config of any kind is parsed once, by _plan(), into a _Plan holding
every stage's inputs; validate() returns its diagnostics and run() walks
it with _run_plan(): envelope rows, their fit, the pi table, then one
orbit stage per object of the paper, normalized averages (_average_stage)
or the one-sided series (_hilbert_stage), each under one wall time. One
per-repetition seed drives every stochastic ingredient; an ingredient
fixes its own seed only in a config without seeds.

Exit codes of the CLI: 0 success, 2 config validation failure (validate()
also checks that the term ranges, stored grids and fit rows a run needs
exist, and that its output paths can be named), 3 runtime failure
(partial outputs are removed).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import numbers
import os
import shutil
import sys
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, fields, replace
from functools import partial
from fractions import Fraction
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import _svg
from ._kernels import _BLOCK, BlockSource, is_int, is_real
from .analytic_bounds import hlawka_bound, power_phase_exponent, steep_power_phase_exponent
from .averages import (
    BlockLadder,
    LadderMaxima,
    NormalizedGrid,
    NormalizedSeries,
    NormalizerSpec,
    cauchy_tail_report,
    hilbert_series,
    ladder_positions,
    normalized_series,
    oscillation_report,
    run_grid,
    weighted_sums,
)
from .dynamics import Observable, OrbitPoint, SystemModel, orbit_eval
from .indices import _SEEDED as _SEEDED_INDICES
from .indices import IndexSpec, gen_indices, index_blocks, pi_count
from .scaling_fit import (
    TEMPLATES,
    _HARMONIC_TEMPLATES,
    EnvelopeSample,
    check_rows,
    fit_H1,
    fit_H2,
    fit_harmonic,
    fit_log_decay,
)
from .trigsum import SCALED_GRID_CAP, SupEstimate, ThetaGrid, sup_envelope, sup_harmonic
from .weights import _SEEDED as _SEEDED_WEIGHTS
from .weights import WeightSpec, _past_precision, gen_weights, weight_blocks

TOOL_VERSION = "0.1.0"

_ENVELOPE_READS = ("weights", "indices", "blocks", "grid_points")
_ORBIT_READS = ("weights", "indices", "system", "observable", "x0", "normalizer",
                "n_terms", "k_first")
# the fields each kind reads besides the four every kind reads
_READS = {
    "envelope_scan": _ENVELOPE_READS + ("harmonic",),
    "condition_fit": _ENVELOPE_READS + ("template", "reference"),
    "average_run": _ORBIT_READS,
    "hilbert_run": _ORBIT_READS + ("bound", "tail_starts"),
    "oscillation_run": _ORBIT_READS + ("ladder",),
    "preset": ("preset", "params"),
}
_READ_BY_ALL = ("name", "kind", "seeds", "output_dir")
KINDS = tuple(_READS)
# every config field, each once: the schema ExperimentConfig holds
FIELDS = tuple(dict.fromkeys(_READ_BY_ALL + sum(_READS.values(), ())))

OUTPUT_ROOT_VAR = "ERGOSUM_OUTPUT_ROOT"
DEFAULT_OUTPUT_ROOT = "ergosum_out"

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_RUNTIME = 3

_MAX_SEEDS = 256
# file names hold 255 bytes; the staging sibling .<name>.new-<pid>-<ns>
# that run() writes first adds at most 37 to the name
_MAX_FILE_NAME_BYTES = 255
_MAX_NAME_BYTES = 200
# a path holds PATH_MAX = 4096 bytes with its null; the longest one run()
# writes is <root>/.<name>.new-<pid>-<ns>/oscillation.json
_MAX_PATH_BYTES = 4095
_PATH_EXTRA_BYTES = 1 + 37 + 1 + len("oscillation.json")
_MAX_TERMS = 100_000_000
_MAX_REFERENCE_DEPTH = 100  # _py recurses once per level; a fixed cap, not the stack's
_K_END = 2**63 - 1  # every term index k a run generates stays below this (int64)
_CSV_THIN_RATIO = 1.02
_CSV_DENSE_ROWS = 512


class ConfigError(Exception):
    """Raised by run() when the config fails validation."""

    def __init__(self, diagnostics):
        super().__init__("; ".join(diagnostics))
        self.diagnostics = list(diagnostics)


# ---------------------------------------------------------------------------
# config


class ExperimentConfig:
    """Declarative description of one experiment: its JSON object as given.

    Each name in FIELDS is an attribute, None when its key is missing or
    null, and every other key goes to `extra`, which validate() rejects.
    from_dict() takes a missing kind to be preset when the object names a
    preset, and a missing name to be the preset or the kind. Sub-specs
    (weights, indices, system, ...) stay plain dicts, so a config can
    always be loaded and inspected even when it is invalid. _plan() builds
    each one once, by its constructor (Cls(**d)), for validate() and run()
    alike; validate() reports every offending field instead of raising.
    """

    def __init__(self, extra: dict | None = None, **values):
        for k in FIELDS:
            setattr(self, k, values.pop(k, None))
        self.extra = {**(extra or {}), **values}

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        d = dict(d)
        values = {k: d.pop(k) for k in FIELDS if k in d}
        values.setdefault("kind", "preset" if "preset" in values else "")
        values.setdefault("name", values.get("preset") or values["kind"] or "experiment")
        return cls(extra=d, **values)

    @classmethod
    def load(cls, path) -> "ExperimentConfig":
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        if not isinstance(data, dict):
            raise ValueError("config file must contain a JSON object")
        return cls.from_dict(data)

    def to_dict(self) -> dict:
        out = {k: getattr(self, k) for k in FIELDS if getattr(self, k) is not None}
        out.update(self.extra)
        return out


def _increasing_positive_ints(v) -> bool:
    return (isinstance(v, (list, tuple)) and all(is_int(n) and n >= 1 for n in v)
            and list(v) == sorted(set(v)))


def _deeper_than(v, levels: int) -> bool:
    """Whether JSON value v nests containers more than `levels` deep (no recursion)."""
    level = [v] if isinstance(v, (dict, list, tuple)) else []
    for _ in range(levels):
        level = [c for x in level for c in (x.values() if isinstance(x, dict) else x)
                 if isinstance(c, (dict, list, tuple))]
    return bool(level)


# the families each repetition draws with its own seed
_SEEDED = {WeightSpec: _SEEDED_WEIGHTS, IndexSpec: _SEEDED_INDICES}
_ANY_SEED = 0  # a seeded spec's seed until _for_seed sets a repetition's
_ORIGIN = OrbitPoint.rotation(0.0)  # a rotation run's start point without x0


def _for_seed(spec, seed):
    """The spec repetition `seed` draws: a seeded family takes that seed."""
    if seed is None or spec.kind not in _SEEDED[type(spec)]:
        return spec
    return replace(spec, seed=int(seed))


@dataclass(frozen=True)
class _Plan:
    """Every stage input of one run, parsed once from a config: specs,
    ranges and settings only; the stages draw the arrays seed by seed.
    _run_plan runs each stage whose inputs are set, in field order."""

    weights: WeightSpec
    indices: IndexSpec
    seeds: list | None = None  # None or empty: one unseeded repetition
    # envelope: certified sup rows over (M, N] blocks
    rows: list | None = None
    grid: ThetaGrid | None = None
    harmonic: bool = False
    # fit of the envelope rows; fit_extras(samples by seed) -> more fit.json fields
    template: str | None = None
    reference: dict | None = None
    fit_field: str = "upper"
    fit_extras: Callable | None = None
    # counting-function table of the random prime model at these N
    pi_ns: tuple | None = None
    # one orbit stage of n_terms terms from k_first: _hilbert_stage if
    # hilbert, else _average_stage, under N^beta for each beta if betas
    system: SystemModel | None = None
    observable: Observable | None = None
    point: OrbitPoint = _ORIGIN  # read by rotation runs; a doubling run starts from its seed
    normalizer: NormalizerSpec | None = None
    # the normalizer's NormalizedGrid on the stored grid, when _plan built
    # it to check the normalizer; _average_stage reuses it
    normed: NormalizedGrid | None = None
    n_terms: int | None = None
    k_first: int = 1
    hilbert: bool = False
    tail_starts: list | None = None
    bound: float | None = None
    ratio_norm: NormalizerSpec | None = None
    ladder: BlockLadder | None = None
    checkpoints: list | None = None
    betas: list | None = None


def validate(config: ExperimentConfig) -> list[str]:
    """Diagnostics for a config; empty list means runnable. Never writes."""
    return _plan(config)[1]


def _plan(config: ExperimentConfig) -> tuple[_Plan | None, list[str]]:
    """The plan a config runs by, and its diagnostics. The plan is None
    exactly when there is a diagnostic; a preset's plan is built by its
    `_PRESETS` row once its params pass. Never raises, never writes."""
    diags: list[str] = []

    def check(label, fn):
        try:
            return fn()
        except (ArithmeticError, AttributeError, LookupError, TypeError,
                ValueError) as exc:
            diags.append(f"{label}: {exc}")
            return None

    def sub_spec(label, cls, missing="required"):
        """Build sub-spec `label` from its JSON form, or report why it cannot be."""
        raw = getattr(config, label)
        if raw is None:
            diags.append(f"{label}: {missing}")
        elif not isinstance(raw, dict):
            diags.append(f"{label}: must be an object")
        else:
            if raw.get("kind") in _SEEDED.get(cls, ()):
                if "seed" in raw and config.seeds:
                    diags.append(f"{label}.seed: each repetition draws with its own "
                                 "seed from seeds")
                raw = {"seed": _ANY_SEED, **raw}
            return check(label, lambda: cls(**raw))
        return None

    name_bytes = b""
    if not isinstance(config.name, str) or not config.name:
        diags.append("name: must be a nonempty string")
    elif config.name in (".", "..") or any(c in config.name for c in "/\\"):
        diags.append("name: must be a bare directory name")
    else:
        name_bytes = check("name", lambda: _os_name(config.name)) or b""
        if len(name_bytes) > _MAX_NAME_BYTES:
            diags.append(f"name: at most {_MAX_NAME_BYTES} bytes")
    if config.kind not in KINDS:
        diags.append(f"kind: must be one of {', '.join(KINDS)}")
        return None, diags

    for k in config.extra:
        diags.append(f"{k}: unknown field")
    for k in FIELDS:
        if getattr(config, k) is not None and k not in _READ_BY_ALL + _READS[config.kind]:
            diags.append(f"{k}: not read by {config.kind}")

    if config.seeds is not None:
        if not isinstance(config.seeds, (list, tuple)) or not all(
                is_int(s) for s in config.seeds):
            diags.append("seeds: must be a list of integers")
        # the draws read a seed modulo 2**64
        elif len({int(s) % 2**64 for s in config.seeds}) != len(config.seeds):
            diags.append("seeds: must be distinct modulo 2**64")
        elif len(config.seeds) > _MAX_SEEDS:
            diags.append(f"seeds: at most {_MAX_SEEDS} repetitions")

    if config.output_dir is not None and not isinstance(config.output_dir, str):
        diags.append("output_dir: must be a string")
    else:
        root = _output_root(config)
        root_bytes = check("output_dir", lambda: _os_name(str(root)))
        if root_bytes is not None:
            longest = len(root_bytes) + len(name_bytes) + _PATH_EXTRA_BYTES
            if any(len(os.fsencode(part)) > _MAX_FILE_NAME_BYTES for part in root.parts):
                diags.append(f"output_dir: path components hold at most "
                             f"{_MAX_FILE_NAME_BYTES} bytes")
            elif longest > _MAX_PATH_BYTES:
                diags.append(f"output_dir: the longest output path would hold {longest} "
                             f"bytes, past {_MAX_PATH_BYTES}")

    if config.kind == "preset":
        if config.preset not in PRESET_IDS:
            diags.append(f"preset: must be one of {', '.join(PRESET_IDS)}")
            return None, diags
        preset = _PRESETS[config.preset]
        if config.seeds is not None and not config.seeds and preset.seeds:
            diags.append("seeds: stochastic preset needs seeds")
        params = config.params if config.params is not None else {}
        if not isinstance(params, dict):
            diags.append("params: must be an object")
            return None, diags
        for k, v in params.items():
            if k not in preset.params:
                diags.append(f"params.{k}: not understood by {config.preset}")
            elif not preset.params[k][1](v):
                diags.append(f"params.{k}: {preset.params[k][2]}")
        return (None if diags else _preset_plan(config.preset, config)), diags

    wspec = sub_spec("weights", WeightSpec)
    ispec = sub_spec("indices", IndexSpec)
    if not config.seeds and any(
            isinstance(d, dict) and d.get("kind") in _SEEDED[cls] and "seed" not in d
            for d, cls in ((config.weights, WeightSpec), (config.indices, IndexSpec))):
        diags.append("seeds: required for stochastic ingredients")

    if config.kind in ("envelope_scan", "condition_fit"):
        if config.blocks is None:
            diags.append("blocks: required")
        elif not (isinstance(config.blocks, (list, tuple)) and config.blocks and all(
                isinstance(b, (list, tuple)) and len(b) == 2
                and is_int(b[0]) and is_int(b[1]) and 0 <= b[0] < b[1]
                for b in config.blocks)):
            diags.append("blocks: must be [M, N] integer pairs with 0 <= M < N")
        elif any(b[1] >= _K_END for b in config.blocks):
            diags.append("blocks: term indices k must stay below 2**63 - 1")
        elif any(b[1] - b[0] > _MAX_TERMS for b in config.blocks):
            diags.append(f"blocks: N - M must be at most {_MAX_TERMS}")
        points = config.grid_points
        if points is not None and not (is_int(points) and 16 <= points <= SCALED_GRID_CAP):
            diags.append(f"grid_points: must be an integer in [16, {SCALED_GRID_CAP}]")
        if config.kind == "condition_fit":
            if config.template not in TEMPLATES:
                diags.append(f"template: must be one of {', '.join(TEMPLATES)}")
            if _deeper_than(config.reference, _MAX_REFERENCE_DEPTH):
                diags.append(f"reference: must nest at most {_MAX_REFERENCE_DEPTH} levels deep")
        elif config.harmonic is not None and not isinstance(config.harmonic, bool):
            diags.append("harmonic: must be true or false")
        if diags:
            return None, diags
        # the rows the run computes must exist and, for a fit, be fittable;
        # the block iterators check each row's k in (M, N] and draw nothing
        rows = [tuple(b) for b in config.blocks]
        check("weights", lambda: [weight_blocks(wspec, m + 1, n + 1) for m, n in rows])
        check("indices", lambda: [index_blocks(ispec, m + 1, n + 1) for m, n in rows])
        if config.kind == "condition_fit":
            check("template", lambda: check_rows(config.template, rows))
            harmonic = config.template in _HARMONIC_TEMPLATES
        else:
            harmonic = config.harmonic is True
        plan = _Plan(wspec, ispec, seeds=config.seeds, rows=rows,
                     grid=None if points is None else ThetaGrid(points), harmonic=harmonic,
                     template=config.template, reference=config.reference)
        return (None if diags else plan), diags

    # orbit-run kinds
    if config.k_first is not None and not (is_int(config.k_first) and config.k_first >= 0):
        diags.append("k_first: must be a nonnegative integer")
    system = sub_spec("system", SystemModel)
    if system is not None and system.kind == "doubling":
        if not config.seeds:
            diags.append("seeds: doubling orbits draw their start point from a seed")
        if config.x0 is not None:
            diags.append("x0: not read by doubling systems")
    f = sub_spec("observable", Observable)
    norm = sub_spec("normalizer", NormalizerSpec)
    if config.n_terms is None:
        diags.append("n_terms: required")
    elif not is_int(config.n_terms) or not 2 <= config.n_terms <= _MAX_TERMS:
        diags.append(f"n_terms: must be an integer in [2, {_MAX_TERMS}]")
    point = _ORIGIN if config.x0 is None else check(
        "x0", lambda: OrbitPoint.rotation(config.x0))
    ladder = None
    if config.kind == "oscillation_run":
        ladder = sub_spec("ladder", BlockLadder, "required for oscillation runs")
    hilbert = config.kind == "hilbert_run"
    # set only on hilbert runs: every other kind rejects them as not read
    # compared, never converted: an int past the largest double fails, not raises
    if config.bound is not None and not (
            is_real(config.bound) and 0 < config.bound <= sys.float_info.max):
        diags.append("bound: must be a finite positive number")
    if config.tail_starts is not None and not _increasing_positive_ints(
            config.tail_starts):
        diags.append("tail_starts: must be strictly increasing positive integers")
    if diags:
        return None, diags
    # the term range and stored grid the run will use (see _orbit_runs), from
    # k_first if set, else the first k >= 1 (k0 for a series) all ingredients define
    kf = config.k_first if config.k_first is not None else max(
        norm.k0 if hilbert else 1, wspec.offset, ispec.offset, 1)
    n_end = kf + config.n_terms
    if n_end > _K_END:
        diags.append("k_first: term indices k must stay below 2**63 - 1")
        return None, diags
    check("weights", lambda: weight_blocks(wspec, kf, n_end))
    check("indices", lambda: index_blocks(ispec, kf, n_end))
    if hilbert:
        # a series divides by A(k) from k = k_first on, which norm.values
        # refuses below k0; asked before the grid, which starts at k >= 1
        check("normalizer", lambda: norm.values([kf]))
        beyond = [t for t in config.tail_starts or _dyadic_starts(kf, n_end - 1)
                  if t >= n_end]
        if beyond:
            diags.append(f"tail_starts: tail start {beyond[0]} is beyond the stored grid")
    if diags:
        return None, diags
    grid = run_grid(kf, config.n_terms, hilbert)
    # a series divides by A(k) at each stored k, an average by the A(N) of
    # this NormalizedGrid
    normed = check("normalizer", lambda: norm.values(grid) if hilbert
                   else NormalizedGrid.build(grid, norm))
    if ladder is not None:
        check("ladder", lambda: ladder_positions(grid, ladder.values(), norm.k0))
    plan = _Plan(wspec, ispec, seeds=config.seeds, system=system, observable=f, point=point,
                 normalizer=norm, normed=None if hilbert else normed,
                 n_terms=config.n_terms, k_first=kf, hilbert=hilbert,
                 tail_starts=config.tail_starts, bound=config.bound, ladder=ladder)
    return (None if diags else plan), diags


def _os_name(s: str) -> bytes:
    """The bytes a file system path holds for s; ValueError if none can."""
    if "\0" in s:
        raise ValueError("must not contain a null byte")
    try:
        return os.fsencode(s)
    except UnicodeEncodeError:
        raise ValueError("must be encodable in the file system encoding") from None


# ---------------------------------------------------------------------------
# deterministic serialization


def _py(obj):
    """Recursively convert to plain JSON-ready Python values."""
    if isinstance(obj, dict):
        return {str(k): _py(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_py(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_py(v) for v in obj.tolist()]
    if isinstance(obj, Fraction):
        return [int(obj.numerator), int(obj.denominator)]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, numbers.Integral):
        return int(obj)
    if isinstance(obj, numbers.Real):
        v = float(obj)
        return v if math.isfinite(v) else None
    if isinstance(obj, complex):
        return [_py(obj.real), _py(obj.imag)]
    return obj


def _fields_json(obj) -> dict:
    """The JSON form of a spec or report in an output: its set fields."""
    return {f.name: getattr(obj, f.name) for f in fields(obj)
            if getattr(obj, f.name) is not None}


def _json_bytes(obj) -> bytes:
    text = json.dumps(_py(obj), sort_keys=True, indent=2, allow_nan=False)
    return (text + "\n").encode("utf-8")


def _cell(v) -> str:
    """One CSV cell: a float by repr, None empty, an integer or a bool
    (1 or 0) in decimal. Rows hold plain Python values, save seeds and
    blocks, which a config built in Python may give as numpy integers."""
    if isinstance(v, float):  # most cells, so tested first
        return repr(v)
    return "" if v is None else str(int(v))


def _csv_text(rows) -> str:
    """CSV lines of rows, each ending in a newline."""
    return "".join(",".join(_cell(v) for v in row) + "\n" for row in rows)


def _csv_bytes(header: list[str], texts) -> bytes:
    """A CSV file: the header line, then the row texts of _csv_text."""
    return (",".join(header) + "\n" + "".join(texts)).encode("utf-8")


def _thin_grid(n_grid: np.ndarray) -> np.ndarray:
    """Row indices for CSV emission: the dense head N <= _CSV_DENSE_ROWS,
    then the first N of each geometric bucket floor(log N / log
    _CSV_THIN_RATIO), then the last N. The grid ascends and so do its
    buckets: a bucket starts where the bucket number changes, which is
    found _BLOCK stored N at a time, with no grid-sized temporaries.

    Reports always use the full stored grid; only the CSV is thinned."""
    if n_grid.size <= _CSV_DENSE_ROWS:
        return np.arange(n_grid.size)
    head = int(np.searchsorted(n_grid, _CSV_DENSE_ROWS, side="right"))
    keep = [np.arange(head)]
    prev = None
    for i in range(head, n_grid.size, _BLOCK):
        buckets = np.floor(np.log(n_grid[i : i + _BLOCK].astype(np.float64))
                           / np.log(_CSV_THIN_RATIO)).astype(np.int64)
        starts = np.empty(buckets.size, dtype=bool)
        starts[0] = buckets[0] != prev
        np.not_equal(buckets[1:], buckets[:-1], out=starts[1:])
        keep.append(np.flatnonzero(starts) + i)
        prev = buckets[-1]
    if keep[-1].size == 0 or keep[-1][-1] != n_grid.size - 1:
        keep.append([n_grid.size - 1])
    return np.concatenate(keep)


def _median(vals) -> float:
    """np.median of the finite values, to the bit, NaN if there are none,
    without np.median's import of numpy.ma: the middle value, or the mean
    of the two, summed from 0.0 as numpy's mean sums (so a zero median is
    +0.0, where statistics.median can give -0.0)."""
    vals = sorted(float(v) for v in vals if v is not None and math.isfinite(v))
    if not vals:
        return math.nan
    h = len(vals) // 2
    return 0.0 + vals[h] if len(vals) % 2 else (0.0 + vals[h - 1] + vals[h]) / 2


# ---------------------------------------------------------------------------
# stages: each reads its inputs from the plan and adds its output files


@contextmanager
def _timed(walls: dict, name: str):
    """Record the wall time of the block as walls[name] (manifest only)."""
    t0 = time.perf_counter()
    yield
    walls[name] = time.perf_counter() - t0


def _envelope_stage(files, wspec, ispec, blocks, grid, harmonic, seeds):
    """Certified sup rows over (M, N] blocks, one envelope.csv column per
    SupEstimate field; returns samples grouped by seed."""
    est_columns = [f.name for f in fields(SupEstimate)]
    rows = []
    samples = {}
    for seed in seeds or [None]:
        ws, js = _for_seed(wspec, seed), _for_seed(ispec, seed)
        got = []
        for m_excl, n_incl in blocks:
            k_lo = m_excl + 1
            w = gen_weights(ws, k_lo, n_incl + 1)
            u = gen_indices(js, k_lo, n_incl + 1)
            if harmonic:
                est = sup_harmonic(w, u, grid=grid, k_first=k_lo)
            else:
                est = sup_envelope(w, u, grid=grid)
            rows.append([seed, m_excl, n_incl,
                         *(getattr(est, c) for c in est_columns), harmonic])
            got.append(EnvelopeSample(M=m_excl, N=n_incl, lower=est.lower,
                                      upper=est.upper, harmonic=harmonic))
        samples[seed] = got
    files["envelope.csv"] = _csv_bytes(
        ["seed", "M", "N", *est_columns, "harmonic"], [_csv_text(rows)])
    series = []
    for seed in list(samples)[: len(_svg.PALETTE)]:
        got = samples[seed]
        label = "upper" if seed is None else f"seed {seed}"
        series.append((label, [s.N - s.M for s in got], [s.upper for s in got]))
    files["envelope.svg"] = _svg.line_chart(
        "certified sup envelope", "terms per row", "certified upper",
        series, x_log=True, y_log=True,
    ).encode("utf-8")
    return samples


def _fit_one(samples, template, field_name="upper"):
    if template == "H1":
        return fit_H1(samples, field_name=field_name)
    if template == "H2":
        return fit_H2(samples, field_name=field_name)
    if template == "log_decay":
        return fit_log_decay(samples, field_name=field_name)
    return fit_harmonic(samples, template, field_name=field_name)


def _fit_stage(files, samples_by_seed, plan: _Plan):
    """One growth-template fit per seed of the envelope rows."""
    fits = []
    for seed, samples in samples_by_seed.items():
        fit = _fit_one(samples, plan.template, plan.fit_field)
        fits.append({"seed": seed, **fit.to_dict()})
    agg = {
        "median_alpha": _median([f["alpha"] for f in fits]),
        "max_rms_residual": max(f["rms_residual"] for f in fits),
        "verdicts": sorted({f["verdict"] for f in fits}),
    }
    if plan.template == "H1":
        agg["max_delta_plus_alpha"] = max(f["delta"] + f["alpha"] for f in fits)
    record = {"template": plan.template, "fits": fits, "aggregate": agg}
    if plan.reference:
        record["reference"] = plan.reference
    if plan.fit_extras is not None:
        record.update(plan.fit_extras(samples_by_seed))
    files["fit.json"] = _json_bytes(record)


def _orbit_runs(plan: _Plan, grid: np.ndarray, readers=None):
    """Per seed: (seed, SeriesRun) on the stored grid of the plan's n_terms
    terms w_k f(T^{u_k} x) from k_first on, from weighted_sums (running
    sums, exclusive N) or, for a hilbert plan, hilbert_series (the series
    of the terms divided by A(k), inclusive N). Given readers, each seed's
    running sums go to them block by block as they are summed, and its
    run keeps none; a series keeps its sums, which its Cauchy hulls need.

    Each is handed the weights as a BlockSource over weight_blocks and the
    orbit values as orbit_eval mapped over index_blocks, so weights,
    indices and orbit values are drawn one prefix_sums block at a time, in
    step: a run holds its stored grid and one block, not n_terms of
    anything. The draws therefore happen inside the sums' call. Both
    sums, the block iterators and orbit_eval are read at call time, so
    wrappers installed on this module apply.
    A run is yielded without a reference kept here, so it is freed as
    soon as the caller drops it."""
    k_first, norm, n_terms = plan.k_first, plan.normalizer, plan.n_terms
    k_end = k_first + n_terms
    for seed in plan.seeds or [None]:
        w = BlockSource(n_terms, weight_blocks(_for_seed(plan.weights, seed), k_first, k_end))
        point = OrbitPoint.doubling(seed) if plan.system.kind == "doubling" else plan.point
        values = map(partial(orbit_eval, plan.system, plan.observable, point),
                     index_blocks(_for_seed(plan.indices, seed), k_first, k_end))
        yield seed, (hilbert_series(w, values, norm, k_first, grid) if plan.hilbert
                     else weighted_sums(w, values, k_first, grid, readers))


def _decay_entry(ns, cps=None) -> dict:
    """Decay slope, ratios and tail maxima of a normalized series at the
    checkpoints cps (default: its decades and its last N)."""
    if not cps:
        lo, hi = int(ns.grid.n_grid[0]), int(ns.grid.n_grid[-1])
        cps = [10**e for e in range(1, 10) if lo <= 10**e <= hi]
        cps += [] if hi in cps else [hi]
    return {
        "slope": ns.slope(),
        "ratio_at": {str(c): ns.value_at(c) for c in cps},
        "tail_max": {str(c): ns.tail_max(c) for c in cps},
    }


# hseries.csv rows are _sum_rows; series.csv rows add A(N) and the ratio
_SUM_COLUMNS = ["seed", "N", "s_real", "s_imag", "s_abs"]
_SERIES_COLUMNS = _SUM_COLUMNS + ["a_value", "ratio"]


def _sum_rows(seed, n, sums, a_value=None):
    """CSV rows [seed, N, s_real, s_imag, s_abs] of one seed's sums at the
    grid n, built from n.tolist() and sums.tolist(), so every cell is a
    Python int or float. s_abs is Python's complex abs, which uses hypot
    (np.abs can differ by an ulp). Given the A(N) cells (None below k0),
    rows add A(N) and ratio = s_abs / A(N)."""
    n, sums = n.tolist(), sums.tolist()
    if a_value is None:
        return [[seed, k, s.real, s.imag, abs(s)] for k, s in zip(n, sums)]
    return [[seed, k, s.real, s.imag, abs(s), a, None if a is None else abs(s) / a]
            for k, s, a in zip(n, sums, a_value)]


def _average_stage(files, plan: _Plan, report_extra):
    """Normalized running-sum runs, one per seed, each under every
    normalizer the stage reports: the plan's, or N^beta (k0 = 1) for each
    beta of its beta ladder. Each (run, normalizer) pair gives one decay
    entry and one chart line; series.csv holds A(N) of the first
    normalizer, report.json adds report_extra, and a plan with a ladder
    adds an oscillation report under its normalizer. The stored grid, its
    CSV thinning, each normalized grid (N >= k0, which can be a strict
    suffix; the plan's own, with its stored grid, when _plan built it)
    and the chart's thinning of it are built once per stage.

    Each seed's sums are read once, block by block as they are summed,
    and never held whole (peak memory): the readers keep the CSV cells at
    the thinned N, the ratios under each normalizer, in one array per
    normalizer that every seed reuses, and the ladder maxima."""
    betas, ladder = plan.betas, plan.ladder
    norms = ([plan.normalizer] if betas is None
             else [NormalizerSpec(gamma=beta, k0=1) for beta in betas])
    if plan.normed is None:
        grid = run_grid(plan.k_first, plan.n_terms)
        normed = [NormalizedGrid.build(grid, norm) for norm in norms]
    else:
        grid, normed = plan.normed.stored, [plan.normed]
    keep = _thin_grid(grid)
    n = grid[keep]
    chart_keeps = [_thin_grid(g.n_grid) for g in normed]
    # A(N) for N >= k0, None below (the grid is sorted, so those come first)
    first = normed[0]
    below = int(np.searchsorted(keep, first.start))
    a_value = [None] * below + first.a[keep[below:] - first.start].tolist()
    cells = []

    def read_cells(i, block):
        lo, hi = np.searchsorted(keep, (i, i + block.size))
        cells.append(block[keep[lo:hi] - i])

    series = [NormalizedSeries(g, np.empty(g.n_grid.size)) for g in normed]
    maxima = None if ladder is None else LadderMaxima(grid, ladder, first)
    readers = [read_cells, *(ns.read for ns in series), *([] if maxima is None else [maxima])]
    csv_texts = []
    entries = []
    osc_entries = []
    chart = []
    osc_chart = []
    for seed, run in _orbit_runs(plan, grid, readers):
        csv_texts.append(_csv_text(_sum_rows(seed, n, np.concatenate(cells), a_value)))
        cells.clear()
        if maxima is not None:
            rep = oscillation_report(maxima, ladder, first)
            osc_entries.append({"seed": seed, **_fields_json(rep)})
            if len(osc_chart) < 4:
                label = "osc" if seed is None else f"seed {seed}"
                osc_chart.append((label, rep.ladder_j[:-1].tolist(), rep.osc.tolist()))
        for beta, ns, chart_keep in zip(betas or [None], series, chart_keeps):
            if beta is None:
                entry = {"seed": seed, "k_first": plan.k_first, "n_max": run.n_max,
                         "monotone_normalizer": ns.grid.monotone}
                label = "ratio" if seed is None else f"seed {seed}"
            else:
                entry, label = {"beta": beta}, f"beta {beta}"
            entries.append({**entry, **_decay_entry(ns, plan.checkpoints)})
            if len(chart) < len(_svg.PALETTE):
                chart.append((label, ns.grid.n_grid[chart_keep].tolist(),
                              ns.ratios[chart_keep].tolist()))
    if betas is None:
        title, y_label = "normalized running sums", "|S_N| / A(N)"
        record = {
            "normalizer": _fields_json(plan.normalizer),
            "convention": "exclusive",
            "per_seed": entries,
            "aggregate": {
                "median_slope": _median([e["slope"] for e in entries]),
                **{f"median_{k}": {c: _median([e[k][c] for e in entries])
                                   for c in entries[0][k]}
                   for k in ("ratio_at", "tail_max")},
            },
        }
    else:
        title, y_label = "prime-index averages", "|S_N| / N^beta"
        record = {
            "exploratory": True,
            "question": "does power-normalized decay along all integers force "
                        "decay along the primes?",
            "n_terms": plan.n_terms,
            "per_beta": entries,
        }
    files["series.csv"] = _csv_bytes(_SERIES_COLUMNS, csv_texts)
    files["ratio.svg"] = _svg.line_chart(
        title, "N", y_label, chart, x_log=True, y_log=True).encode("utf-8")
    files["report.json"] = _json_bytes({**record, **report_extra})
    if ladder is not None:
        files["oscillation.json"] = _json_bytes({
            "ladder": _fields_json(ladder),
            "per_seed": osc_entries,
            "all_decompositions_pass": all(
                e["decomposition"]["passed"] for e in osc_entries),
        })
        files["oscillation.svg"] = _svg.line_chart(
            "per-block oscillation maxima", "block index j", "osc_j",
            osc_chart, x_log=False, y_log=True).encode("utf-8")


def _hilbert_stage(files, plan: _Plan):
    """Partial sums of the one-sided series with Cauchy tail diagnostics,
    and a decay report under the plan's ratio_norm if it has one. Every
    seed has the same stored grid, so its CSV thinning and its normalized
    grid under ratio_norm are built once."""
    norm, bound, ratio_norm = plan.normalizer, plan.bound, plan.ratio_norm
    grid = run_grid(plan.k_first, plan.n_terms, True)
    keep = _thin_grid(grid)
    n = grid[keep]
    normed = None if ratio_norm is None else NormalizedGrid.build(grid, ratio_norm)
    csv_texts = []
    per_seed = []
    ratio_entries = []
    chart = []
    for seed, run in _orbit_runs(plan, grid):
        csv_texts.append(_csv_text(_sum_rows(seed, n, run.sums[keep])))
        starts = plan.tail_starts or _dyadic_starts(plan.k_first, run.n_max)
        tails = cauchy_tail_report(run, starts)
        max_abs = float(np.abs(run.sums).max())
        entry = {"seed": seed, "k_first": plan.k_first, "n_max": run.n_max,
                 "max_abs": max_abs, "tails": tails}
        if bound is not None:
            entry["within_bound"] = bool(max_abs <= bound)
        per_seed.append(entry)
        if len(chart) < len(_svg.PALETTE):
            label = "|partial|" if seed is None else f"seed {seed}"
            chart.append((label, n.tolist(), np.abs(run.sums[keep]).tolist()))
        if normed is not None:
            ns = normalized_series(run, normed)
            ratio_entries.append({"seed": seed, **_decay_entry(ns)})
        run = ns = None  # freed before the next seed draws (peak memory)
    files["hseries.csv"] = _csv_bytes(_SUM_COLUMNS, csv_texts)
    files["hseries.svg"] = _svg.line_chart(
        "series partial sums", "N", "|partial sum|",
        chart, x_log=True, y_log=False).encode("utf-8")
    record = {
        "normalizer": _fields_json(norm),
        "convention": "inclusive",
        "per_seed": per_seed,
        "max_abs": max(e["max_abs"] for e in per_seed),
    }
    if bound is not None:
        record["bound"] = float(bound)
        record["all_within_bound"] = all(e["within_bound"] for e in per_seed)
    files["cauchy.json"] = _json_bytes(record)
    if ratio_norm is not None:
        files["report.json"] = _json_bytes({
            "normalizer": _fields_json(ratio_norm),
            "per_seed": ratio_entries,
            "aggregate": {
                "median_slope": _median([e["slope"] for e in ratio_entries]),
            },
        })


def _dyadic_starts(k_first: int, n_max: int) -> list[int]:
    """Default tail starts: the powers of 2 in [max(k_first, 8), n_max / 2],
    else max(k_first, 8) alone."""
    lo = max(k_first, 8)
    return [1 << j for j in range((int(n_max) // 2).bit_length()) if 1 << j >= lo] or [lo]


def _pi_table_stage(files, seeds, big_ns):
    """Counting-function table Pi(N) log N / N for the random prime model."""
    rows = []
    scaled = {n: [] for n in big_ns}
    for seed in seeds:
        spec = IndexSpec(kind="cramer_primes", seed=int(seed))
        for n in big_ns:
            p = pi_count(spec, n)
            s = p * math.log(n) / n
            rows.append([seed, n, p, s])
            scaled[n].append(s)
    files["pi_table.csv"] = _csv_bytes(["seed", "N", "pi", "scaled"], [_csv_text(rows)])
    return {str(n): {"median": _median(v), "min": min(v), "max": max(v)}
            for n, v in scaled.items()}


# ---------------------------------------------------------------------------
# the run path


def _run_plan(plan: _Plan, files, walls):
    """Run each stage whose inputs the plan sets, under one wall time per
    stage: envelope rows, their fit, the pi table, then one orbit stage."""
    if plan.rows is not None:
        with _timed(walls, "envelope"):
            samples = _envelope_stage(files, plan.weights, plan.indices, plan.rows,
                                      plan.grid, plan.harmonic, plan.seeds)
    if plan.template is not None:
        with _timed(walls, "fit"):
            _fit_stage(files, samples, plan)
    report_extra = {}
    if plan.pi_ns is not None:
        with _timed(walls, "pi_table"):
            report_extra["pi_scaled"] = _pi_table_stage(files, plan.seeds, plan.pi_ns)
    if plan.n_terms is not None:
        with _timed(walls, "hilbert" if plan.hilbert else "average"):
            if plan.hilbert:
                _hilbert_stage(files, plan)
            else:
                _average_stage(files, plan, report_extra)


# ---------------------------------------------------------------------------
# presets: each one builds its plan from its params


_SQRT2_SYSTEM = SystemModel.rotation_sqrt2()
_MODE1 = Observable.fourier_mode(1)
_IDENTITY = IndexSpec(kind="identity")
_CONSTANT = WeightSpec(kind="constant")
_RANDOM_PHASE = WeightSpec(kind="iid_uniform_phase", seed=_ANY_SEED)


def _example1() -> _Plan:
    """Steep power phase over a squared orbit.

    Envelope rows are computed on a fixed 2^20 grid, too coarse for the
    global certificate once u ~ N^2 spans more than ~2^19, so the longer
    rows fall back to upper = sum |w| with the aliased flag. The
    exploratory fit therefore uses the grid maxima (`lower`); the
    reference exponent uses the n-th derivative envelope with delta = 2.5.
    """
    return _Plan(
        WeightSpec(kind="power_phase", delta=2.5), IndexSpec(kind="monomial", d=2),
        rows=[(0, 1 << j) for j in range(7, 13)], grid=ThetaGrid(1 << 20),
        template="H2", fit_field="lower", reference={
            "alpha": steep_power_phase_exponent(2.5),
            "label": "derivative-test envelope exponent for delta = 2.5",
            "note": "long rows are aliased on this grid; exploratory fit of "
                    "the grid maxima (lower)",
        },
        system=_SQRT2_SYSTEM, observable=_MODE1, hilbert=True, k_first=3,
        normalizer=NormalizerSpec(gamma=35.0 / 36.0, a=2.0, k0=3), n_terms=10_000)


def _example2() -> _Plan:
    """Fractional power phase on the integers: envelope fit, normalized
    run along an irrational rotation, and block oscillation maxima."""
    return _Plan(
        WeightSpec(kind="power_phase", delta=0.5), _IDENTITY,
        rows=[(0, 1 << j) for j in range(10, 18)],
        template="H2", reference={
            "alpha": power_phase_exponent(0.5),
            "label": "second-derivative envelope exponent 1 - delta/2",
        },
        system=_SQRT2_SYSTEM, observable=_MODE1,
        normalizer=NormalizerSpec(gamma=0.875, a=2.0, k0=3), n_terms=1_000_000,
        ladder=BlockLadder.dyadic(2, 19), checkpoints=[1_000, 10_000, 100_000, 1_000_000])


def _example3(h) -> _Plan:
    """Logarithmic phase: harmonic sup rows against the closed-form bound,
    a flat harmonic growth fit, and bounded series partial sums."""
    h = float(h)
    bound = hlawka_bound(h)
    return _Plan(
        WeightSpec(kind="log_phase", h=h), _IDENTITY,
        rows=[(0, 1 << 10), (0, 1 << 12), (0, 1 << 14), (0, 1 << 16), (0, 100_000)],
        harmonic=True, template="harmonic_H2", reference={
            "bound": bound,
            "label": "closed-form harmonic sup bound 30(|h| + 1/|h|)",
        }, fit_extras=partial(_bound_check, bound),
        system=_SQRT2_SYSTEM, observable=_MODE1, hilbert=True,
        normalizer=NormalizerSpec(gamma=1.0, k0=1), n_terms=100_000,
        tail_starts=[1 << j for j in range(7, 16, 2)], bound=bound)


def _bound_check(bound, samples_by_seed) -> dict:
    """example3's unseeded harmonic sup rows against the closed-form bound."""
    max_upper = max(s.upper for s in samples_by_seed[None])
    return {"bound_check": {
        "bound": bound,
        "max_upper": max_upper,
        "slack_fraction": 1.0 - max_upper / bound,
        "passed": bool(max_upper <= bound),
    }}


def _example4() -> _Plan:
    """Random unimodular weights over dyadic (M, N] blocks with a
    two-variable envelope fit and a square-root shape check."""
    return _Plan(
        _RANDOM_PHASE, _IDENTITY,
        rows=[(n - (n >> s), n)
              for n in (1 << j for j in range(11, 17))
              for s in (1, 2, 3)],
        template="H1", reference={
            "shape": "sqrt(N - M) sqrt(log N)",
            "label": "square-root block envelope for centered random weights",
        }, fit_extras=_shape_check)


def _shape_check(samples_by_seed) -> dict:
    """example4's largest upper / (sqrt(N - M) sqrt(log N)) per seed."""
    shape = {str(seed): max(s.upper / (math.sqrt(s.N - s.M) * math.sqrt(math.log(s.N)))
                            for s in got)
             for seed, got in samples_by_seed.items()}
    return {"shape_check": {
        "definition": "max upper / (sqrt(N - M) sqrt(log N)) per seed",
        "per_seed_max": shape,
        "max": max(shape.values()),
    }}


def _example5() -> _Plan:
    """Harmonic version of the random-weight scan plus the log-normalized
    series run."""
    return _Plan(
        _RANDOM_PHASE, _IDENTITY,
        rows=[(0, 1 << j) for j in range(8, 17)], harmonic=True,
        template="harmonic_log_decay", reference={
            "label": "slowly varying harmonic envelope log N / log^beta log N",
        },
        system=_SQRT2_SYSTEM, observable=_MODE1, hilbert=True,
        normalizer=NormalizerSpec(gamma=1.0, k0=1), n_terms=100_000,
        ratio_norm=NormalizerSpec(gamma=0.0, a=1.0, k0=3))


def _example6() -> _Plan:
    """Random prime model: counting-function scaling table plus normalized
    averages along the random index set."""
    return _Plan(
        _CONSTANT, IndexSpec(kind="cramer_primes", seed=_ANY_SEED),
        pi_ns=(10_000, 100_000, 1_000_000),
        system=_SQRT2_SYSTEM, observable=_MODE1,
        normalizer=NormalizerSpec(gamma=0.75, k0=1), n_terms=1_000_000,
        checkpoints=[10_000, 1_000_000])


def _prime_question(betas) -> _Plan:
    """Exploratory: decay of (1/N^beta) sums along the true primes for a
    ladder of beta values. No growth claim is certified here."""
    return _Plan(_CONSTANT, IndexSpec(kind="primes"),
                 system=_SQRT2_SYSTEM, observable=_MODE1, n_terms=200_000,
                 betas=[float(b) for b in betas])


class _Preset(NamedTuple):
    """One worked scenario: the function that builds its plan from its
    params (as keywords), its `ergosum presets` entry, its default seed
    list (nonempty exactly when the preset is stochastic) and its free
    params as name -> (default, check, diagnostic when the check fails)."""

    plan: Callable
    title: str
    exercises: tuple
    seeds: tuple = ()
    params: dict = {}


_PRESETS = {
    "example1": _Preset(
        _example1, "steep power phase over a squared orbit",
        ("grid envelope rows (aliased, exploratory)",
         "H2 fit vs the derivative-test exponent",
         "power-log normalized series partial sums")),
    "example2": _Preset(
        _example2, "fractional power phase on the integers",
        ("certified envelope rows 2^10..2^17",
         "H2 fit vs exponent 1 - delta/2",
         "normalized rotation run to N = 10^6",
         "dyadic block oscillation maxima")),
    "example3": _Preset(
        _example3, "logarithmic phase with a closed-form sup bound",
        ("harmonic sup rows vs 30(|h| + 1/|h|)",
         "flat harmonic growth fit",
         "bounded series partial sums"),
        # |h| < 1e307 keeps a huge integer out of float arithmetic; preset plans
        # skip the block iterators, so the phase rule is asked at the last k
        params={"h": (1.0, lambda h: is_real(h) and 0 < abs(h) < 1e307
                      and math.isfinite(hlawka_bound(h)) and not _past_precision(
                          WeightSpec(kind="log_phase", h=float(h)), 100_000),
                      "must be a finite nonzero number with a finite bound "
                      "30(|h| + 1/|h|) and phases |h| log k below 2**36 for "
                      "k <= 100000")}),
    "example4": _Preset(
        _example4, "random unimodular weights over dyadic blocks",
        ("two-variable H1 envelope fit",
         "square-root block shape check"),
        seeds=tuple(range(1, 11))),
    "example5": _Preset(
        _example5, "harmonic random weights",
        ("slowly varying harmonic envelope fit",
         "log-normalized series decay report"),
        seeds=(1, 2, 3, 4)),
    "example6": _Preset(
        _example6, "random prime model",
        ("counting-function scaling table",
         "power-normalized averages along the random set"),
        seeds=tuple(range(1, 21))),
    "prime_question": _Preset(
        _prime_question, "prime-index averages (exploratory)",
        ("decay slopes for a ladder of beta exponents",),
        params={"betas": ((0.6, 0.75, 0.9, 1.0),
                          lambda bs: isinstance(bs, (list, tuple)) and bool(bs) and all(
                              is_real(b) and 0.5 < b <= 1.0 for b in bs),
                          "each beta must lie in (1/2, 1]")}),
}

PRESET_IDS = tuple(_PRESETS)


def _preset_plan(pid: str, config: ExperimentConfig) -> _Plan:
    """Preset pid's plan at the config's params (defaults for the rest). A
    stochastic preset runs the config's seeds, else its default list; a
    deterministic one ignores seeds."""
    preset = _PRESETS[pid]
    given = config.params or {}
    plan = preset.plan(**{k: given.get(k, p[0]) for k, p in preset.params.items()})
    return replace(plan, seeds=list(config.seeds or preset.seeds) if preset.seeds else None)


# id -> runner (cfg, files, walls). Kept only because
# perfbench/test_perfbench.py calls one preset's runner directly; ROADMAP
# item 1 removes that pin.
_PRESET_RUNNERS = {pid: lambda cfg, files, walls, pid=pid: _run_plan(
    _preset_plan(pid, cfg), files, walls) for pid in _PRESETS}


def list_presets() -> list[dict]:
    """Catalog of built-in presets with what each one exercises."""
    return [{"id": pid, "title": p.title, "exercises": list(p.exercises),
             "stochastic": bool(p.seeds), "params": sorted(p.params)}
            for pid, p in _PRESETS.items()]


# ---------------------------------------------------------------------------
# run + manifest


@dataclass
class ResultManifest:
    """What a run produced: canonical config echo, digests, timings."""

    config: dict
    kind: str
    out_dir: str
    outputs: dict
    wall_seconds: dict
    seeds: list
    tool_version: str = TOOL_VERSION
    environment: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        out = asdict(self)
        out["output_dir"] = out.pop("out_dir")
        return out


def _output_root(config: ExperimentConfig) -> Path:
    return Path(config.output_dir or os.environ.get(OUTPUT_ROOT_VAR)
                or DEFAULT_OUTPUT_ROOT)


def run(config: ExperimentConfig) -> ResultManifest:
    """Validate, compute every output in memory, then write atomically.

    Raises ConfigError on validation failure. Outputs are written only once
    the whole computation has succeeded, into a temporary sibling of the
    result directory that then replaces it with os.replace; a failed write
    removes the temporary directory and leaves any previous results as
    they were.
    """
    plan, diags = _plan(config)
    if diags:
        raise ConfigError(diags)
    files: dict[str, bytes] = {}
    walls: dict[str, float] = {}
    with _timed(walls, "total"):
        _run_plan(plan, files, walls)

    root = _output_root(config)
    target = root / config.name
    root.mkdir(parents=True, exist_ok=True)
    tag = f"{os.getpid()}-{time.time_ns()}"
    staging = target.with_name(f".{config.name}.new-{tag}")
    staging.mkdir()
    aside = None
    try:
        outputs = {}
        for fname in sorted(files):
            payload = files[fname]
            (staging / fname).write_bytes(payload)
            outputs[fname] = {
                "sha256": hashlib.sha256(payload).hexdigest(),
                "bytes": len(payload),
            }
        manifest = ResultManifest(
            config=_py(config.to_dict()),
            kind=config.kind,
            out_dir=str(target),
            outputs=outputs,
            wall_seconds={k: round(v, 6) for k, v in walls.items()},
            seeds=list(plan.seeds or []),
            environment={"output_root": str(root)},
        )
        (staging / "manifest.json").write_bytes(_json_bytes(manifest.to_dict()))
        if target.exists():
            aside = target.with_name(f".{config.name}.old-{tag}")
            os.replace(target, aside)
        os.replace(staging, target)
    except BaseException:
        shutil.rmtree(staging, ignore_errors=True)
        if aside is not None and not target.exists():
            os.replace(aside, target)
        raise
    if aside is not None:
        shutil.rmtree(aside, ignore_errors=True)
    return manifest


# ---------------------------------------------------------------------------
# CLI


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="ergosum",
        description="weighted ergodic average experiments: certified "
                    "trig-sum envelopes, growth fits, normalized runs",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="validate a config and run it")
    p_run.add_argument("config", help="path to a JSON experiment config")
    p_val = sub.add_parser("validate", help="check a config without writing")
    p_val.add_argument("config", help="path to a JSON experiment config")
    sub.add_parser("presets", help="list built-in presets")
    args = parser.parse_args(argv)

    if args.command == "presets":
        for entry in list_presets():
            seeds = " (seeded)" if entry["stochastic"] else ""
            print(f"{entry['id']}: {entry['title']}{seeds}")
            for line in entry["exercises"]:
                print(f"    - {line}")
            if entry["params"]:
                print(f"    params: {', '.join(entry['params'])}")
        return EXIT_OK

    try:
        config, diags = ExperimentConfig.load(args.config), []
    except FileNotFoundError:
        config, diags = None, [f"config file not found: {args.config}"]
    except (OSError, RecursionError, TypeError, ValueError) as exc:
        config, diags = None, [f"could not read config: {exc}"]
    if config is not None and args.command == "validate":
        diags = validate(config)
    elif config is not None:
        try:
            manifest = run(config)
        except ConfigError as exc:
            diags = exc.diagnostics
        except Exception as exc:
            print(f"runtime failure: {exc}")
            return EXIT_RUNTIME
    for d in diags:
        print(f"invalid: {d}")
    if diags:
        return EXIT_VALIDATION
    if args.command == "validate":
        print("ok")
        return EXIT_OK
    print(f"wrote {len(manifest.outputs) + 1} files to {manifest.out_dir}")
    for fname in sorted(manifest.outputs):
        print(f"    {fname}")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
