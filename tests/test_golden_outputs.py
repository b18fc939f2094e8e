"""Byte-identity gate: every CSV, JSON and SVG a fixed set of runs writes
must hash to the sha256 recorded in golden_digests.json.

The set is four presets at their defaults and one small config per base
kind. Manifests are left out because they carry wall times and output
paths. A change that alters an output on purpose records new digests and
says why.
"""

import hashlib
import json
from pathlib import Path

import pytest

from ergosum.harness import ExperimentConfig, run

CONFIGS = {
    "example1": {"preset": "example1"},
    "example2": {"preset": "example2"},
    "example3": {"preset": "example3"},
    "prime_question": {"preset": "prime_question"},
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
        "n_ladder": [64, 128, 256, 512, 1024, 2048, 4096],
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


@pytest.mark.parametrize("name", list(CONFIGS))
def test_outputs_match_golden_digests(tmp_path, name):
    golden = json.loads(Path(__file__).with_name("golden_digests.json").read_text())
    run(ExperimentConfig.from_dict(
        {"name": name, **CONFIGS[name], "output_dir": str(tmp_path)}))
    assert output_digests(tmp_path / name) == golden[name]
