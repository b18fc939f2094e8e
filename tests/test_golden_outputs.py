"""Byte-identity gate: every CSV, JSON and SVG a fixed set of runs writes
must hash to the sha256 recorded in golden_digests.json.

The set is four presets at their defaults, the three seeded presets at
seeds [1, 2] (random weights and the random prime model), one small
config per base kind, and one more average run whose normalizer starts
above its first stored N. Manifests are left out because they carry wall
times and output paths; only the order of their stage timings is
checked. Every CSV cell the runs format must be a plain Python value.
Two deterministic presets are rerun with seeds, which they ignore. A
change that alters an output on purpose records new digests and says
why.

The same base-kind configs seed a one-field mutation test: whatever one
field is replaced with, validate() returns diagnostics without raising,
and a config it accepts runs.
"""

import contextlib
import csv
import hashlib
import json
from pathlib import Path

import pytest

from ergosum import harness
from ergosum.harness import ExperimentConfig, run, validate

CONFIGS = {
    "example1": {"preset": "example1"},
    "example2": {"preset": "example2"},
    "example3": {"preset": "example3"},
    "prime_question": {"preset": "prime_question"},
    "example4": {"preset": "example4", "seeds": [1, 2]},
    "example5": {"preset": "example5", "seeds": [1, 2]},
    "example6": {"preset": "example6", "seeds": [1, 2]},
    "envelope_harmonic_seeded": {
        "kind": "envelope_scan",
        "weights": {"kind": "iid_uniform_phase"},
        "indices": {"kind": "identity"},
        "blocks": [[0, 256], [256, 1024], [1024, 4096]],
        "harmonic": True,
        "seeds": [1, 2],
    },
    "fit_h2": {
        "kind": "condition_fit",
        "weights": {"kind": "power_phase", "delta": 0.5},
        "indices": {"kind": "identity"},
        "blocks": [[0, 64], [0, 128], [0, 256], [0, 512], [0, 1024], [0, 2048], [0, 4096]],
        "template": "H2",
        "reference": {"alpha": 0.75, "label": "1 - delta/2"},
    },
    "average_seeded": {
        "kind": "average_run",
        "weights": {"kind": "iid_uniform_phase"},
        "indices": {"kind": "monomial", "d": 2},
        "system": {"kind": "rotation", "theta0": 0.3819660112501051},
        "observable": {"kind": "fourier_mode", "mode": 2},
        "normalizer": {"gamma": 0.5, "a": 1.0, "k0": 2},
        "x0": 0.125,
        "k_first": 5,
        "n_terms": 3000,
        "seeds": [1, 2, 3],
    },
    # k0 = 1000 lies above the first stored N = 1 and inside a thinning
    # bucket, so the chart's thinned rows come from a strict suffix of the
    # run grid and differ from the run grid's own thinned rows past k0
    "average_suffix_chart": {
        "kind": "average_run",
        "weights": {"kind": "iid_uniform_phase"},
        "indices": {"kind": "identity"},
        "system": {"kind": "rotation", "theta0": [5, 13]},
        "observable": {"kind": "fourier_mode", "mode": 1},
        "normalizer": {"gamma": 0.75, "k0": 1000},
        "k_first": 0,
        "n_terms": 3000,
        "seeds": [1, 2],
    },
    "oscillation_doubling": {
        "kind": "oscillation_run",
        "weights": {"kind": "constant"},
        "indices": {"kind": "identity"},
        "system": {"kind": "doubling"},
        "observable": {"kind": "indicator", "interval": [0.0, 0.5]},
        "normalizer": {"gamma": 1.0, "k0": 1},
        "ladder": {"kind": "dyadic", "j_lo": 2, "j_hi": 11},
        "n_terms": 2048,
        "seeds": [5, 6],
    },
    "hilbert_rational_x0": {
        "kind": "hilbert_run",
        "weights": {"kind": "log_phase", "h": 1.0},
        "indices": {"kind": "identity"},
        "system": {"kind": "rotation", "theta0": [5, 13]},
        "observable": {"kind": "indicator", "interval": [0.25, 0.75]},
        "normalizer": {"gamma": 1.0, "k0": 1},
        "x0": [1, 3],
        "n_terms": 3000,
        "bound": 50.0,
        "tail_starts": [16, 256, 1024],
    },
    "hilbert_primes": {
        "kind": "hilbert_run",
        "weights": {"kind": "constant"},
        "indices": {"kind": "primes"},
        "system": {"kind": "rotation", "theta0": 0.4142135623730951},
        "observable": {"kind": "finite_fourier",
                       "terms": [[1, 1.0, 0.0], [3, 0.5, -0.5]]},
        "normalizer": {"gamma": 1.0, "a": 1.0, "k0": 2},
        "x0": 0.25,
        "n_terms": 2000,
    },
}


def output_digests(out_dir: Path) -> dict:
    """sha256 of every file in a result directory except the manifest."""
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out_dir.iterdir()) if p.name != "manifest.json"}


# the stages each run times, in the order it runs them
ENVELOPE_FIT_HILBERT = ["envelope", "fit", "hilbert", "total"]
WALL_KEYS = {
    "example1": ENVELOPE_FIT_HILBERT,
    "example2": ["envelope", "fit", "average", "total"],
    "example3": ENVELOPE_FIT_HILBERT,
    "prime_question": ["average", "total"],
    "example4": ["envelope", "fit", "total"],
    "example5": ENVELOPE_FIT_HILBERT,
    "example6": ["pi_table", "average", "total"],
    "envelope_harmonic_seeded": ["envelope", "total"],
    "fit_h2": ["envelope", "fit", "total"],
    "average_seeded": ["average", "total"],
    "average_suffix_chart": ["average", "total"],
    "oscillation_doubling": ["average", "total"],
    "hilbert_rational_x0": ["hilbert", "total"],
    "hilbert_primes": ["hilbert", "total"],
}


def _golden():
    return json.loads(Path(__file__).with_name("golden_digests.json").read_text())


@pytest.mark.parametrize("name", list(CONFIGS))
def test_outputs_match_golden_digests(tmp_path, monkeypatch, name):
    """The digests and stage timings, and the type of every CSV cell the
    run formats: a plain Python float, int, bool or None, never a numpy
    scalar."""
    cell, cell_types = harness._cell, set()

    def typed_cell(v):
        cell_types.add(type(v))
        return cell(v)

    monkeypatch.setattr(harness, "_cell", typed_cell)
    # example1's default grid is too coarse for the Bernstein certificate
    with (pytest.warns(RuntimeWarning, match="grid too coarse") if name == "example1"
          else contextlib.nullcontext()):
        manifest = run(ExperimentConfig.from_dict(
            {"name": name, **CONFIGS[name], "output_dir": str(tmp_path)}))
    assert output_digests(tmp_path / name) == _golden()[name]
    assert list(manifest.wall_seconds) == WALL_KEYS[name]
    assert cell_types and cell_types <= {float, int, bool, type(None)}


@pytest.mark.parametrize("name", ["example3", "prime_question"])
def test_deterministic_presets_ignore_seeds(tmp_path, name):
    run(ExperimentConfig.from_dict(
        {"name": name, **CONFIGS[name], "seeds": [7], "output_dir": str(tmp_path)}))
    assert output_digests(tmp_path / name) == _golden()[name]


@pytest.mark.parametrize("name", [n for n, keys in WALL_KEYS.items() if "average" in keys])
def test_series_ratio_is_s_abs_over_a_value(tmp_path, name):
    """Every series.csv row holds ratio = s_abs / a_value, computed from the
    cells as written; both cells are empty below k0."""
    run(ExperimentConfig.from_dict(
        {"name": name, **CONFIGS[name], "output_dir": str(tmp_path)}))
    with open(tmp_path / name / "series.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert rows
    for row in rows:
        if row["a_value"] == "":
            assert row["ratio"] == "", row
        else:
            assert float(row["ratio"]) == float(row["s_abs"]) / float(row["a_value"]), row


# JSON values a hand-edited config might carry in any field; 1e400 is how
# JSON spells an overflowing number (it reads as inf)
MUTATION_POOL = (None, 0, 1, -1, 0.5, 1e400, 2**63, "", "x", "0.5", [], [1, 2],
                 [1.5, 7], {}, {"kind": "x"}, True)


def _paths(value, prefix=()):
    """Every dict key and list position inside a config, outermost first."""
    items = (value.items() if isinstance(value, dict)
             else enumerate(value) if isinstance(value, list) else ())
    for key, inner in items:
        yield prefix + (key,)
        yield from _paths(inner, prefix + (key,))


def _replaced(value, path, new):
    if not path:
        return new
    head, rest = path[0], path[1:]
    if isinstance(value, dict):
        return {k: _replaced(v, rest, new) if k == head else v for k, v in value.items()}
    return [_replaced(v, rest, new) if i == head else v for i, v in enumerate(value)]


def _mutations():
    for name, config in CONFIGS.items():
        if "preset" in config:
            continue
        for path in _paths(config):
            for new in MUTATION_POOL:
                yield name, path, _replaced(config, path, new)


def test_one_field_mutations_validate_cleanly_and_accepted_ones_run(tmp_path):
    faults, accepted = [], 0
    for name, path, mutated in _mutations():
        config = ExperimentConfig.from_dict(
            {"name": "m", **mutated, "output_dir": str(tmp_path)})
        where = f"{name} {'.'.join(map(str, path))} = {mutated}"
        try:
            if validate(config):
                continue
            accepted += 1
            run(config)
        except Exception as exc:  # every failure is reported, not just the first
            faults.append(f"{where}: {type(exc).__name__}: {exc}")
    assert faults == []
    assert accepted > 0
