"""Experiment configs, validation diagnostics, runs, CLI exit codes."""

import contextlib
import dataclasses
import hashlib
import importlib.util
import json
import math
import os
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest

from ergosum import harness
from ergosum._kernels import _BLOCK, prefix_at
from ergosum.averages import orbit_terms
from ergosum.dynamics import OrbitPoint, SystemModel, orbit_eval
from ergosum.indices import gen_indices
from ergosum.weights import gen_weights
from ergosum.harness import (
    ConfigError,
    ExperimentConfig,
    _parse_x0,
    _thin_grid,
    list_presets,
    main,
    run,
    validate,
)
from ergosum.trigsum import SupEstimate, ThetaGrid, sup_envelope

import oracles


def cfg(**kw) -> ExperimentConfig:
    return ExperimentConfig.from_dict(kw)


def tiny_envelope(name="t_env", **extra) -> dict:
    d = {
        "name": name,
        "kind": "envelope_scan",
        "weights": {"kind": "constant"},
        "indices": {"kind": "identity"},
        "blocks": [[0, 24], [0, 48]],
        "theta_grid": {"points": 1024},
    }
    d.update(extra)
    return d


def tiny_average(name="t_avg", **extra) -> dict:
    d = {
        "name": name,
        "kind": "average_run",
        "weights": {"kind": "constant"},
        "indices": {"kind": "identity"},
        "system": {"kind": "rotation", "theta0": [2, 7]},
        "observable": {"kind": "fourier_mode", "mode": 1},
        "normalizer": {"gamma": 1.0, "k0": 1},
        "n_terms": 200,
    }
    d.update(extra)
    return d


# -------------------------------------------------------------- validation

def test_valid_tiny_configs():
    assert validate(cfg(**tiny_envelope())) == []
    assert validate(cfg(**tiny_average())) == []


def test_unknown_field_flagged():
    diags = validate(cfg(**tiny_envelope(banana=3)))
    assert any("banana: unknown field" in d for d in diags)


def test_bad_kind_flagged():
    diags = validate(cfg(name="x", kind="scan"))
    assert len(diags) == 1 and diags[0].startswith("kind:")


def test_name_path_safety():
    for bad in ("", "a/b", "..", "c\\d"):
        diags = validate(cfg(**tiny_envelope(name=bad)))
        assert any(d.startswith("name:") for d in diags), bad


def test_family_errors_surface_in_diagnostics():
    diags = validate(cfg(**tiny_envelope(indices={"kind": "monomial", "d": 0})))
    assert any(d.startswith("indices:") for d in diags)
    diags = validate(cfg(**tiny_envelope(weights={"kind": "warbler"})))
    assert any(d.startswith("weights:") for d in diags)


def test_rows_required():
    d = tiny_envelope()
    del d["blocks"]
    diags = validate(cfg(**d))
    assert any("ladder or explicit blocks" in x for x in diags)


def test_block_and_grid_bounds():
    diags = validate(cfg(**tiny_envelope(blocks=[[5, 5]])))
    assert any(d.startswith("blocks:") for d in diags)
    diags = validate(cfg(**tiny_envelope(theta_grid={"points": 8})))
    assert any("theta_grid.points" in d for d in diags)
    diags = validate(cfg(**tiny_envelope(theta_grid={"spacing": 0.1})))
    assert any("theta_grid.spacing: unknown field" in d for d in diags)


def test_seeded_weights_need_seeds():
    d = tiny_envelope(weights={"kind": "iid_uniform_phase"})
    diags = validate(cfg(**d))
    assert any("seeds: required" in x for x in diags)
    d["seeds"] = [1, 2]
    assert validate(cfg(**d)) == []


def test_size_caps_on_rows():
    diags = validate(cfg(**tiny_envelope(blocks=[[0, 10**12]])))
    assert any(d.startswith("blocks: N - M must be at most") for d in diags)
    diags = validate(cfg(**tiny_envelope(blocks=None, n_ladder=[64, 10**12])))
    assert any(d.startswith("n_ladder: N must be at most") for d in diags)


def test_seeds_shape_checks():
    assert any("distinct" in d for d in
               validate(cfg(**tiny_envelope(seeds=[1, 1]))))
    assert any("integers" in d for d in
               validate(cfg(**tiny_envelope(seeds=[1.5]))))
    assert any("at most" in d for d in
               validate(cfg(**tiny_envelope(seeds=list(range(300))))))


def test_template_harmonic_agreement():
    d = tiny_envelope(blocks=[[0, 1 << j] for j in range(5, 11)])  # H2 fits 6+ rows
    d["kind"] = "condition_fit"
    d["template"] = "harmonic_H2"
    diags = validate(cfg(**d))
    assert any("harmonic flag and template family disagree" in x for x in diags)
    d["template"] = "H2"
    assert validate(cfg(**d)) == []
    d["template"] = "H9"
    assert any(x.startswith("template:") for x in validate(cfg(**d)))


def test_spectral_system_rejected_for_orbit_runs():
    d = tiny_average(system={"kind": "spectral",
                             "measure": {"atoms": [[0.25, 1.0]]}})
    diags = validate(cfg(**d))
    assert any(x.startswith("system:") for x in diags)


def test_doubling_needs_seeds():
    d = tiny_average(system={"kind": "doubling"})
    diags = validate(cfg(**d))
    assert diags == ["seeds: doubling orbits draw their start point from a seed"]
    d["seeds"] = [3]
    assert validate(cfg(**d)) == []


def test_x0_parsing():
    assert _parse_x0(None) == 0.0
    assert _parse_x0(0.25) == 0.25
    from fractions import Fraction
    assert _parse_x0([1, 3]) == Fraction(1, 3)
    for bad in (1.5, -0.1, [1, 2, 3], [3, 2], "x"):
        with pytest.raises(ValueError):
            _parse_x0(bad)


def test_preset_param_allowlist():
    diags = validate(cfg(kind="preset", preset="example1", params={"h": 2.0}))
    assert any("params.h: not understood" in x for x in diags)
    assert validate(cfg(kind="preset", preset="example3",
                        params={"h": 2.0})) == []
    diags = validate(cfg(kind="preset", preset="example3", params={"h": 0}))
    assert any("params.h" in x for x in diags)
    diags = validate(cfg(kind="preset", preset="prime_question",
                         params={"betas": [0.4]}))
    assert any("params.betas" in x for x in diags)


def test_stochastic_preset_rejects_empty_seeds():
    diags = validate(cfg(kind="preset", preset="example4", seeds=[]))
    assert any("stochastic preset needs seeds" in x for x in diags)
    # deterministic preset is fine without seeds
    assert validate(cfg(kind="preset", preset="example2")) == []


def test_params_only_for_presets():
    diags = validate(cfg(**tiny_envelope(params={"h": 1.0})))
    assert any(x.startswith("params:") for x in diags)


def test_null_harmonic_and_params_mean_unset():
    assert validate(cfg(**tiny_average(harmonic=None, params=None))) == []


def test_k_first_against_family_offsets():
    d = tiny_average(weights={"kind": "log_phase", "h": 1.0}, k_first=0)
    diags = validate(cfg(**d))
    assert any("k_first: below the log_phase family offset" in x for x in diags)


# ------------------------------------------------------------ config objects

def test_from_dict_defaults():
    c = ExperimentConfig.from_dict({"preset": "example2"})
    assert c.kind == "preset"
    assert c.name == "example2"
    c2 = ExperimentConfig.from_dict({"name": "n", "kind": "envelope_scan"})
    assert c2.preset is None


def test_from_dict_sends_each_field_to_an_attribute_and_the_rest_to_extra():
    d = {k: f"value of {k}" for k in harness.FIELDS}
    c = ExperimentConfig.from_dict({**d, "typo": 1, "extra": {"x": 2}})
    assert {k: getattr(c, k) for k in harness.FIELDS} == d
    assert c.extra == {"typo": 1, "extra": {"x": 2}}
    # null means unset: no attribute is set and nothing is reported as not read
    unset = {k: None for k in harness.FIELDS if k not in ("name", "kind")}
    nulls = ExperimentConfig.from_dict({"name": "n", "kind": "average_run", **unset})
    assert all(getattr(nulls, k) is None for k in unset) and nulls.extra == {}
    assert nulls.to_dict() == {"name": "n", "kind": "average_run"}
    not_read = {k: None for k in unset if k not in harness._READS["average_run"]}
    assert validate(cfg(**tiny_average(**not_read))) == []


def test_to_dict_round_trip():
    d = tiny_average(seeds=[1, 2])
    c = cfg(**d)
    back = ExperimentConfig.from_dict(c.to_dict())
    assert back.to_dict() == c.to_dict()
    # a config that sets every field, and one more key
    every = {**{k: f"value of {k}" for k in harness.FIELDS}, "typo": 1}
    assert ExperimentConfig.from_dict(every).to_dict() == every


def test_load_error_paths(tmp_path):
    p = tmp_path / "c.json"
    p.write_text("{not json")
    with pytest.raises(ValueError):
        ExperimentConfig.load(p)
    p.write_text("[1, 2]")
    with pytest.raises(ValueError):
        ExperimentConfig.load(p)


# ------------------------------------------------------------------- runs

def test_tiny_envelope_run_outputs(tmp_path):
    c = cfg(**tiny_envelope(output_dir=str(tmp_path)))
    manifest = run(c)
    out = tmp_path / "t_env"
    names = sorted(p.name for p in out.iterdir())
    assert names == ["envelope.csv", "envelope.svg", "manifest.json"]
    for fname, entry in manifest.outputs.items():
        blob = (out / fname).read_bytes()
        assert hashlib.sha256(blob).hexdigest() == entry["sha256"]
        assert len(blob) == entry["bytes"]
    man = json.loads((out / "manifest.json").read_text())
    assert man["kind"] == "envelope_scan"
    assert set(man["wall_seconds"]) >= {"total"}
    rows = (out / "envelope.csv").read_text().strip().splitlines()
    columns = [f.name for f in dataclasses.fields(SupEstimate)]
    assert rows[0] == ",".join(["seed", "M", "N", *columns, "harmonic"])
    assert len(rows) == 3  # header + 2 blocks
    # the (0, 48] row: constant weights on u = 1..48, the config's 1024 grid
    est = sup_envelope(np.ones(48), np.arange(1, 49), grid=ThetaGrid(1024))
    assert rows[2] == ",".join(
        ["", "0", "48", *(harness._cell(getattr(est, c)) for c in columns), "0"])


def test_tiny_fit_run_outputs(tmp_path):
    d = tiny_envelope(name="t_fit", output_dir=str(tmp_path))
    d["kind"] = "condition_fit"
    d["template"] = "H2"
    d["blocks"] = [[0, 1 << j] for j in range(5, 14)]
    del d["theta_grid"]  # default grid keeps the certificates tight
    manifest = run(cfg(**d))
    out = tmp_path / "t_fit"
    assert (out / "fit.json").exists()
    fit = json.loads((out / "fit.json").read_text())
    assert fit["template"] == "H2"
    # constant weights on identity indices: sup = N exactly, alpha -> 1
    assert fit["fits"][0]["alpha"] == pytest.approx(1.0, abs=0.02)


def test_tiny_average_run_outputs(tmp_path):
    c = cfg(**tiny_average(output_dir=str(tmp_path)))
    run(c)
    out = tmp_path / "t_avg"
    names = sorted(p.name for p in out.iterdir())
    assert names == ["manifest.json", "ratio.svg", "report.json", "series.csv"]
    rep = json.loads((out / "report.json").read_text())
    assert rep["convention"] == "exclusive"
    # constant weights, fourier mode on a rational rotation: S_N stays
    # bounded, so S_N / N dies off at slope about -1
    assert rep["aggregate"]["median_slope"] < -0.8


def test_hilbert_run_on_a_circle_matches_brute_force_diameters(tmp_path):
    """Constant weights on an irrational rotation with gamma = 0: the partial
    sums lie on a circle, so every stored value is a hull vertex."""
    n = 2000
    theta = math.sqrt(2) - 1
    run(cfg(**tiny_average(name="circle", kind="hilbert_run", n_terms=n,
                           system={"kind": "rotation", "theta0": theta},
                           normalizer={"gamma": 0.0, "k0": 1},
                           output_dir=str(tmp_path))))
    rec = json.loads((tmp_path / "circle" / "cauchy.json").read_text())
    sums = np.cumsum(np.exp(2j * np.pi * theta * np.arange(1, n + 1)))
    tails = rec["per_seed"][0]["tails"]
    assert len(tails) > 3
    for t in tails:
        tail = sums[t["N0"] - 1:]
        assert t["points"] == tail.size
        want = max(float(np.abs(tail - z).max()) for z in tail)
        assert t["sup_diff"] == pytest.approx(want, rel=1e-9)


def test_import_validate_and_tail_sweep_leave_scipy_unloaded(tmp_path):
    """Nothing in the package loads scipy, whose spatial import alone takes
    about half a second: not the import, not validate() of every preset,
    and not a hilbert_run, whose Cauchy tail sweep builds convex hulls."""
    hilbert = tiny_average(kind="hilbert_run", output_dir=str(tmp_path))
    code = (
        "import sys\n"
        "import ergosum\n"
        "from ergosum.harness import ExperimentConfig, list_presets, run, validate\n"
        "for p in list_presets():\n"
        "    c = ExperimentConfig.from_dict({'name': p['id'], 'preset': p['id']})\n"
        "    assert validate(c) == [], p['id']\n"
        f"run(ExperimentConfig.from_dict({hilbert!r}))\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    repo = Path(__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(repo / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip() == "[]"
    assert json.loads((tmp_path / "t_avg" / "cauchy.json").read_text())["per_seed"]


def test_run_rejects_invalid_config(tmp_path):
    c = cfg(**tiny_envelope(theta_grid={"points": 4}, output_dir=str(tmp_path)))
    with pytest.raises(ConfigError) as exc:
        run(c)
    assert any("theta_grid.points" in d for d in exc.value.diagnostics)


def test_rerun_is_byte_identical_except_manifest(tmp_path):
    d = tiny_average(seeds=None, output_dir=str(tmp_path))
    run(cfg(**d))
    out = tmp_path / "t_avg"
    first = {p.name: p.read_bytes() for p in out.iterdir()}
    run(cfg(**d))
    second = {p.name: p.read_bytes() for p in out.iterdir()}
    assert set(first) == set(second)
    for name in first:
        if name == "manifest.json":
            continue
        assert first[name] == second[name], name


def test_report_bytes_do_not_depend_on_blas_threads(tmp_path):
    """A slope over 20,000 ratios is large enough for a BLAS dot product
    to split across threads; the report must not change with their count."""
    repo = Path(__file__).resolve().parents[1]
    reports = []
    for threads in ("1", "2"):
        d = tiny_average(weights={"kind": "iid_uniform_phase"},
                         system={"kind": "rotation", "theta0": [5, 13]},
                         normalizer={"gamma": 0.5, "k0": 1}, n_terms=20_000,
                         seeds=[1], output_dir=str(tmp_path / threads))
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(repo / "src"), env.get("PYTHONPATH")) if p)
        code = ("from ergosum.harness import ExperimentConfig, run\n"
                f"run(ExperimentConfig.from_dict({d!r}))\n")
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr[-2000:]
        reports.append((tmp_path / threads / "t_avg" / "report.json").read_bytes())
    assert reports[0] == reports[1]


def test_failed_write_keeps_previous_results(tmp_path, monkeypatch):
    run(cfg(**tiny_envelope(output_dir=str(tmp_path))))
    out = tmp_path / "t_env"
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    real_write = Path.write_bytes
    calls = []

    def failing_write(self, data):
        calls.append(self.name)
        if len(calls) == 2:
            raise OSError("disk full")
        return real_write(self, data)

    monkeypatch.setattr(Path, "write_bytes", failing_write)
    with pytest.raises(OSError, match="disk full"):
        run(cfg(**tiny_envelope(output_dir=str(tmp_path), blocks=[[0, 32]])))
    monkeypatch.undo()
    assert len(calls) == 2
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before
    assert [p.name for p in tmp_path.iterdir()] == ["t_env"]


def test_rerun_replaces_stale_files(tmp_path):
    c = cfg(**tiny_envelope(output_dir=str(tmp_path)))
    run(c)
    stale = tmp_path / "t_env" / "leftover.txt"
    stale.write_text("old")
    run(c)
    assert not stale.exists()


# -------------------------------------------------------------------- CLI

def test_cli_validate_and_run(tmp_path, capsys):
    p = tmp_path / "c.json"
    p.write_text(json.dumps(tiny_envelope(output_dir=str(tmp_path))))
    assert main(["validate", str(p)]) == 0
    assert capsys.readouterr().out.strip() == "ok"

    assert main(["run", str(p)]) == 0
    out = capsys.readouterr().out
    assert "wrote 3 files" in out
    assert "envelope.csv" in out

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(tiny_envelope(banana=1)))
    assert main(["validate", str(bad)]) == 2
    assert "invalid: banana" in capsys.readouterr().out
    assert main(["run", str(bad)]) == 2
    capsys.readouterr()

    assert main(["validate", str(tmp_path / "missing.json")]) == 2
    assert "not found" in capsys.readouterr().out


INVALID_CLI_CONFIGS = {
    "zero_angle_denominator": (
        tiny_average(system={"kind": "rotation", "theta0": [1, 0]}), "system:"),
    "weights_list": (tiny_average(weights=[1, 2]), "weights: must be an object"),
    "harmonic_block_not_a_pair": (
        tiny_envelope(harmonic=True, blocks=[5]), "blocks: must be [M, N]"),
    "harmonic_blocks_not_a_list": (
        tiny_envelope(harmonic=True, blocks=5), "blocks: must be [M, N]"),
    # the harmonic flag is a JSON boolean; "false" would read as true
    "harmonic_string": (
        tiny_envelope(blocks=None, n_ladder=[16, 32], harmonic="false"),
        "harmonic: must be true or false"),
    "harmonic_number": (tiny_envelope(harmonic=1), "harmonic: must be true or false"),
    # a falsy field is still set: only null or a missing key means unset
    **{f"harmonic_{label}_on_average": (
        tiny_average(harmonic=value), "harmonic: not read by average_run")
       for label, value in (("zero", 0), ("empty_string", ""), ("empty_list", []),
                            ("false", False))},
    **{f"params_{label}_on_average": (
        tiny_average(params=value), "params: not read by average_run")
       for label, value in (("empty_list", []), ("zero", 0), ("empty_object", {}))},
    # example3's phase h log k and its bound 30(|h| + 1/|h|) must stay finite
    **{f"example3_h_{label}": (
        {"name": "p3", "preset": "example3", "params": {"h": value}},
        "params.h: must be a finite nonzero number")
       for label, value in (("1e308", 1e308), ("1e307", 1e307),
                            ("5e-324", 5e-324), ("int_past_double", 10**400))},
    "preset_params_list": (
        {"name": "p3", "preset": "example3", "params": [1]}, "params: must be an object"),
    "preset_params_nested_list": (
        {"name": "p1", "preset": "example1", "params": [[1]]}, "params: must be an object"),
    "empty_angle": (
        tiny_average(system={"kind": "rotation", "theta0": []}), "system:"),
    "measure_not_an_object": (
        tiny_average(system={"kind": "rotation", "theta0": [2, 7], "measure": 0}),
        "system:"),
    # JSON reads 1e400 (and Infinity) as inf
    "infinite_k0": (
        tiny_average(normalizer={"gamma": 1.0, "k0": float("inf")}), "normalizer:"),
    "refine_iters": (
        tiny_envelope(theta_grid={"points": 1024, "refine_iters": 4}),
        "theta_grid.refine_iters: unknown field"),
    # fits whose rows the template cannot take
    "h2_five_rows": (
        tiny_envelope(kind="condition_fit", template="H2", blocks=None,
                      n_ladder=[256, 512, 1024, 2048, 4096]),
        "template: H2 needs at least 6 samples"),
    "harmonic_h1_on_n_ladder": (
        tiny_envelope(kind="condition_fit", template="harmonic_H1", harmonic=True,
                      blocks=None, n_ladder=[16, 64, 256, 1024]),
        "template: harmonic_H1 needs M >= 2"),
    # term ranges and stored grids the run cannot produce
    "explicit_indices_short": (
        tiny_average(indices={"kind": "explicit", "values": [1, 2, 3]}),
        "indices: explicit index list shorter than requested range"),
    "explicit_indices_short_blocks": (
        tiny_envelope(indices={"kind": "explicit", "values": [1, 2, 3]}),
        "indices: explicit index list shorter than requested range"),
    "monomial_past_int64": (
        tiny_average(indices={"kind": "monomial", "d": 9}),
        "indices: monomial index values exceed int64 range"),
    "k0_above_range": (
        tiny_average(normalizer={"gamma": 1.0, "k0": 1000}),
        "normalizer: entire grid lies below the normalizer offset k0"),
    "ladder_past_n_terms": (
        tiny_average(kind="oscillation_run",
                     ladder={"kind": "dyadic", "j_lo": 2, "j_hi": 12}),
        "ladder: every ladder value must be a stored checkpoint"),
    "tail_start_past_range": (
        tiny_average(kind="hilbert_run", tail_starts=[64, 1000]),
        "tail_starts: tail start 1000 is beyond the stored grid"),
    "hilbert_k_first_below_k0": (
        tiny_average(kind="hilbert_run", k_first=2,
                     normalizer={"gamma": 1.0, "k0": 5}),
        "k_first: series terms start at k >= k0 = 5"),
    # term indices k past int64, directly and through wraparound
    "k_first_past_int64": (
        tiny_average(k_first=10**30),
        "k_first: term indices k must stay below 2**63 - 1"),
    "blocks_past_int64": (
        tiny_envelope(blocks=[[10**30, 10**30 + 5]]),
        "blocks: term indices k must stay below 2**63 - 1"),
    "blocks_wrap_int64": (
        tiny_envelope(blocks=[[2**63 - 3, 2**63 + 2]]),
        "blocks: term indices k must stay below 2**63 - 1"),
    "normalizer_overflows_on_range": (
        tiny_average(normalizer={"gamma": 400, "k0": 1}),
        "normalizer: normalizer must be positive on the range"),
    "polynomial_negative_on_range": (
        tiny_average(indices={"kind": "polynomial", "coeffs": [0, -1]}),
        "indices: polynomial must be nonnegative and nondecreasing on the range"),
    "polynomial_decreasing_on_blocks": (
        tiny_envelope(indices={"kind": "polynomial", "coeffs": [5, -1]}),
        "indices: polynomial must be nonnegative and nondecreasing on the range"),
    # non-finite numbers the run cannot honour; JSON reads NaN and Infinity
    "hilbert_bound_nan": (
        tiny_average(kind="hilbert_run", bound=float("nan")),
        "bound: must be a finite positive number"),
    "hilbert_bound_infinite": (
        tiny_average(kind="hilbert_run", bound=float("inf")),
        "bound: must be a finite positive number"),
    "preset_h_nan": (
        {"name": "p3", "preset": "example3", "params": {"h": float("nan")}},
        "params.h: must be a finite nonzero number"),
    "preset_h_infinite": (
        {"name": "p3", "preset": "example3", "params": {"h": float("inf")}},
        "params.h: must be a finite nonzero number"),
    # fields the config's kind does not read
    "bound_on_average_run": (
        tiny_average(bound=-5), "bound: not read by average_run"),
    "n_terms_on_preset": (
        {"name": "p2", "preset": "example2", "n_terms": -1},
        "n_terms: not read by preset"),
    "misspelt_observable_kind": (
        tiny_average(observable={"kind": "indicatr", "mode": 2}),
        "observable: unknown observable kind 'indicatr'"),
    # a degree this large must be rejected without computing (n - 1) ** d
    "huge_monomial_degree": (
        tiny_envelope(indices={"kind": "monomial", "d": 10**12}, blocks=[[0, 64]]),
        "indices: monomial index values exceed int64 range"),
    # weight parameters that are not finite real numbers
    "log_phase_h_string": (
        tiny_average(weights={"kind": "log_phase", "h": "x"}),
        "weights: log_phase requires a finite real h != 0"),
    "power_phase_delta_infinite": (
        tiny_average(weights={"kind": "power_phase", "delta": float("inf")}),
        "weights: power_phase requires a finite real delta > 0"),
    "polynomial_phase_coeffs_not_finite": (
        tiny_envelope(weights={"kind": "polynomial_phase", "coeffs": [float("inf"), "0.5"]}),
        "weights: polynomial_phase coeffs must be finite real numbers"),
    "power_phase_overflows_on_range": (
        tiny_average(weights={"kind": "power_phase", "delta": 2**63}),
        "weights: power_phase phase overflows a double below k = 201"),
    # exact pairs and modes that must be integers, not read as such
    "theta0_float_numerator": (
        tiny_average(system={"kind": "rotation", "theta0": [1.5, 7]}),
        "system: theta0 pair must be two integers [num, den]"),
    "theta0_strings": (
        tiny_average(system={"kind": "rotation", "theta0": ["1", "7"]}),
        "system: theta0 pair must be two integers [num, den]"),
    "theta0_triple": (
        tiny_average(system={"kind": "rotation", "theta0": [1, 2, 3]}),
        "system: theta0 pair must be two integers [num, den]"),
    "finite_fourier_float_mode": (
        tiny_average(observable={"kind": "finite_fourier", "terms": [[1.7, 1, 0]]}),
        "observable: finite_fourier modes must be integers"),
    # a doubling orbit starts from its seed's digits, not from x0
    "x0_on_doubling": (
        tiny_average(system={"kind": "doubling"}, x0=0.25, seeds=[1]),
        "x0: not read by doubling systems"),
    # names the run could not write: the OS takes no null byte, and the
    # staging sibling .<name>.new-<pid>-<ns> must fit in 255 bytes
    "null_byte_name": (tiny_average(name="a\u0000b"), "name: must not contain a null byte"),
    "null_byte_output_dir": (
        tiny_average(output_dir="out\u0000dir"), "output_dir: must not contain a null byte"),
    "name_300_characters": (tiny_average(name="n" * 300), "name: at most 200 bytes"),
    # the output root's components are file names too, of 255 bytes at most
    "output_dir_300_byte_component": (
        tiny_average(output_dir="d" * 300),
        "output_dir: path components hold at most 255 bytes"),
    "lone_surrogate_name": (
        tiny_average(name="a\ud800"), "name: must be encodable in the file system encoding"),
    # the draws read a seed modulo 2**64: these would run one repetition twice
    "seeds_equal_modulo_2_64": (
        tiny_average(seeds=[1, 1 + 2**64]), "seeds: must be distinct modulo 2**64"),
    "ingredient_seed_and_seeds": (
        tiny_envelope(weights={"kind": "iid_uniform_phase", "seed": 3}, seeds=[1, 2]),
        "weights.seed: each repetition draws with its own seed from seeds"),
    # integer and real fields take no bool, string or fractional stand-in
    "weights_fractional_offset": (
        tiny_average(weights={"kind": "constant", "offset": 2.5}),
        "weights: constant offset must be an integer >= 0"),
    "indices_fractional_offset": (
        tiny_average(indices={"kind": "identity", "offset": 1.5}),
        "indices: identity offset must be an integer >= 0"),
    "explicit_fractional_values": (
        tiny_average(indices={"kind": "explicit", "values": [0.5] + list(range(1, 300))}),
        "indices: explicit values must be integers"),
    "fractional_k0": (
        tiny_average(normalizer={"gamma": 1.0, "k0": 1.9}),
        "normalizer: k0 must be an integer >= 1 for this normalizer"),
    "bool_gamma": (
        tiny_average(normalizer={"gamma": True, "k0": 1}),
        "normalizer: gamma must be finite and >= 0"),
    "bool_mode": (
        tiny_average(observable={"kind": "fourier_mode", "mode": True}),
        "observable: fourier_mode needs an integer mode"),
    "string_interval": (
        tiny_average(observable={"kind": "indicator", "interval": ["0", "0.5"]}),
        "observable: indicator needs an interval of two real numbers"),
    "bool_monomial_degree": (
        tiny_average(indices={"kind": "monomial", "d": True}),
        "indices: monomial requires integer degree d >= 1"),
    "bool_polynomial_coeff": (
        tiny_average(indices={"kind": "polynomial", "coeffs": [0, True]}),
        "indices: polynomial coefficients must be integers"),
    "bool_normalizer_exponent": (
        tiny_average(normalizer={"gamma": 1.0, "a": True, "k0": 2}),
        "normalizer: a and b must be finite real numbers"),
    "bool_fourier_coefficient": (
        tiny_average(observable={"kind": "finite_fourier", "terms": [[1, True, 0]]}),
        "observable: finite_fourier coefficients must be numbers"),
    "bool_ladder_ends": (
        tiny_average(kind="oscillation_run",
                     ladder={"kind": "dyadic", "j_lo": True, "j_hi": 7}),
        "ladder: need integers 0 <= j_lo <= j_hi"),
}


@pytest.mark.parametrize("command", ["validate", "run"])
@pytest.mark.parametrize("case", list(INVALID_CLI_CONFIGS))
def test_cli_invalid_config_exits_2(tmp_path, capsys, case, command):
    config, message = INVALID_CLI_CONFIGS[case]
    p = tmp_path / "c.json"
    p.write_text(json.dumps({"output_dir": str(tmp_path), **config}))
    assert main([command, str(p)]) == 2
    assert f"invalid: {message}" in capsys.readouterr().out
    assert [q.name for q in tmp_path.iterdir()] == ["c.json"]


def test_output_root_from_the_environment_is_checked(tmp_path, monkeypatch):
    """Without output_dir, validate() checks the root run() would use."""
    d = tiny_average()
    monkeypatch.setenv(harness.OUTPUT_ROOT_VAR, str(tmp_path / ("e" * 256)))
    assert validate(cfg(**d)) == ["output_dir: path components hold at most 255 bytes"]
    monkeypatch.setenv(harness.OUTPUT_ROOT_VAR, str(tmp_path / ("e" * 255)))
    assert validate(cfg(**d)) == []
    run(cfg(**d))
    assert (tmp_path / ("e" * 255) / "t_avg" / "series.csv").is_file()


def test_rational_zero_start_writes_the_float_zero_bytes(tmp_path):
    """x0 = [0, 1] and x0 = 0.0 are one start point and round alike, also
    on an angle whose denominator is past 2**53."""
    theta = SystemModel.rotation_sqrt2().theta0
    outs = []
    for x0 in ([0, 1], 0.0):
        out = tmp_path / str(len(outs))
        run(cfg(**tiny_average(
            system={"kind": "rotation", "theta0": [theta.numerator, theta.denominator]},
            x0=x0, n_terms=3000, output_dir=str(out))))
        outs.append({f.name: f.read_bytes() for f in (out / "t_avg").iterdir()
                     if f.name != "manifest.json"})
    assert sorted(outs[0]) == ["ratio.svg", "report.json", "series.csv"]
    assert outs[0] == outs[1]


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_normalizer_overflow_is_a_diagnostic_only():
    diags = validate(cfg(**tiny_average(normalizer={"gamma": 400, "k0": 1})))
    assert diags == ["normalizer: normalizer must be positive on the range"]


def test_cli_run_parses_the_config_once(tmp_path, monkeypatch, capsys):
    plans = []
    real_plan = harness._plan
    monkeypatch.setattr(harness, "_plan", lambda c: plans.append(c) or real_plan(c))
    p = tmp_path / "c.json"
    p.write_text(json.dumps(tiny_average(output_dir=str(tmp_path))))
    assert main(["run", str(p)]) == 0
    assert len(plans) == 1


# doubling runs whose indices reach far: 3000**3 = 2.7e10, the random
# prime model, which has no index bound before its run, and u = k up to
# 2**63 - 2, the largest term index
DOUBLING_RUNS = {
    "cubic_indices": {"indices": {"kind": "monomial", "d": 3}, "n_terms": 3000},
    "random_primes": {"indices": {"kind": "cramer_primes"}},
    "k_first_near_int64": {"k_first": 2**63 - 3000, "n_terms": 2999},
}


@pytest.mark.parametrize("command", ["validate", "run"])
@pytest.mark.parametrize("case", list(DOUBLING_RUNS))
def test_far_doubling_config_exits_0(tmp_path, capsys, case, command):
    """Each config validates ok and writes nothing; its run exits 0, and its
    sums equal those of orbit values drawn window by window as the reference,
    bit for bit."""
    d = tiny_average(system={"kind": "doubling"}, seeds=[1], output_dir=str(tmp_path),
                     **DOUBLING_RUNS[case])
    p = tmp_path / "c.json"
    p.write_text(json.dumps(d))
    assert main([command, str(p)]) == 0
    if command == "validate":
        assert capsys.readouterr().out == "ok\n"
        assert [q.name for q in tmp_path.iterdir()] == ["c.json"]
        return
    plan, _ = harness._plan(cfg(**d))
    k_first, k_end = plan.k_first, plan.k_first + plan.n_terms
    grid = harness._stored_grid(k_first, k_end, False)
    [(seed, got)] = harness._orbit_runs(plan, grid)
    u = gen_indices(harness._for_seed(plan.indices, seed), k_first, k_end)
    x = [oracles.doubling_window(seed, v) for v in u]
    terms = gen_weights(plan.weights, k_first, k_end) * plan.observable.eval(np.array(x))
    assert got.sums.tobytes() == prefix_at(terms, grid - k_first).tobytes()


# presets no other tier-1 test runs, at non-default params and seeds
PRESET_RUNS = {
    "example1": ({}, []),
    "example3": ({"params": {"h": 2.0}}, []),
    "example5": ({"seeds": [1, 2]}, ["report.json"]),
    "prime_question": ({"params": {"betas": [0.75, 1.0]}}, None),
}
_SERIES_PRESET_FILES = ["cauchy.json", "envelope.csv", "envelope.svg", "fit.json",
                        "hseries.csv", "hseries.svg", "manifest.json"]


@pytest.mark.parametrize("preset", list(PRESET_RUNS))
def test_preset_runs(tmp_path, preset):
    extra, more_files = PRESET_RUNS[preset]
    # example1's default grid is too coarse for the Bernstein certificate
    with (pytest.warns(RuntimeWarning, match="grid too coarse") if preset == "example1"
          else contextlib.nullcontext()):
        run(cfg(preset=preset, output_dir=str(tmp_path), **extra))
    out = tmp_path / preset
    names = sorted(p.name for p in out.iterdir())
    if more_files is None:
        assert names == ["manifest.json", "ratio.svg", "report.json", "series.csv"]
    else:
        assert names == sorted(_SERIES_PRESET_FILES + more_files)
    if preset == "example3":
        check = json.loads((out / "fit.json").read_text())["bound_check"]
        assert check["bound"] == 75.0 and check["passed"]
    if preset == "example5":
        fits = json.loads((out / "fit.json").read_text())["fits"]
        assert [f["seed"] for f in fits] == [1, 2]
    if preset == "prime_question":
        per_beta = json.loads((out / "report.json").read_text())["per_beta"]
        assert [e["beta"] for e in per_beta] == [0.75, 1.0]


@pytest.mark.parametrize("extra, seeds", [
    pytest.param({"preset": "example5"}, [1, 2, 3, 4], id="default_seeds"),
    pytest.param({"preset": "example3", "seeds": [7]}, [], id="ignored_seeds"),
])
def test_manifest_records_the_seeds_that_ran(tmp_path, extra, seeds):
    manifest = run(cfg(name="m", output_dir=str(tmp_path), **extra))
    assert manifest.seeds == seeds
    assert json.loads((tmp_path / "m" / "manifest.json").read_text())["seeds"] == seeds


def test_cli_presets_listing(capsys):
    assert main(["presets"]) == 0
    out = capsys.readouterr().out
    for entry in list_presets():
        assert entry["id"] in out
    assert "example6" in out


def test_list_presets_shape():
    entries = list_presets()
    ids = [e["id"] for e in entries]
    assert ids == ["example1", "example2", "example3", "example4",
                   "example5", "example6", "prime_question"]
    for e in entries:
        assert e["title"] and isinstance(e["exercises"], list)
    by_id = {e["id"]: e for e in entries}
    assert by_id["example4"]["stochastic"]
    assert not by_id["example2"]["stochastic"]
    assert by_id["example3"]["params"] == ["h"]


# ------------------------------------------------------------------ helpers

def test_thin_grid_properties():
    small = np.arange(1, 400, dtype=np.int64)
    assert np.array_equal(_thin_grid(small), np.arange(small.size))
    big = np.arange(1, 10**6 + 1, dtype=np.int64)
    idx = _thin_grid(big)
    assert idx[0] == 0 and idx[-1] == big.size - 1
    assert np.all(np.diff(idx) > 0)
    assert idx.size < 2500
    # geometric spacing in the tail
    tail = big[idx[idx > 600]]
    assert np.all(np.diff(tail) / tail[:-1].astype(float) < 0.03)


# ---------------------------------------------------------------------------
# orbit stages run block by block


_STAGE_CASES = {
    "float_theta": ({"kind": "rotation", "theta0": 0.3819660112501051},
                    {"kind": "fourier_mode", "mode": 3}, 0.125),
    "fraction_theta": ({"kind": "rotation", "theta0": [987, 1597]},
                       {"kind": "indicator", "interval": [0.25, 0.6]}, 0.375),
    "fraction_x0": ({"kind": "rotation", "theta0": [987, 1597]},
                    {"kind": "fourier_mode", "mode": 1}, [1, 3]),
    "doubling": ({"kind": "doubling"},
                 {"kind": "indicator", "interval": [0.25, 0.75]}, None),
    "finite_fourier": ({"kind": "rotation", "theta0": 0.3819660112501051},
                       {"kind": "finite_fourier", "terms": [[1, 0.3, 0.7], [-2, -1.1, 0.45]]},
                       0.0),
}


def _stage_config(kind, case, n_terms, seeds=(5,), **extra) -> dict:
    system, observable, x0 = _STAGE_CASES[case]
    d = {"kind": kind, "weights": {"kind": "iid_uniform_phase"},
         "indices": {"kind": "identity"}, "system": system, "observable": observable,
         "normalizer": {"gamma": 0.5, "k0": 1}, "n_terms": n_terms, "seeds": list(seeds)}
    if x0 is not None:
        d["x0"] = x0
    d.update(extra)
    return d


@pytest.mark.parametrize("kind", ["average_run", "hilbert_run"])
@pytest.mark.parametrize("case", list(_STAGE_CASES))
def test_blocked_stage_sums_match_one_unblocked_pass(kind, case, monkeypatch):
    """Each seed's terms and sums, over 3 blocks and 17 terms, equal bit for
    bit the terms w * v (divided by A(k) for a series) and their prefix
    sums with every orbit value v evaluated at once; a doubling point's
    values come from the reference window. The terms are compared too: a
    last-bit change in one term rarely reaches a sum far larger than it.
    The weights are random unimodular: with w = 1 a product taken as
    v * w would look the same as w * v."""
    plan, diags = harness._plan(cfg(**_stage_config(kind, case, 3 * _BLOCK + 17)))
    assert diags == []
    k_first, k_end = plan.k_first, plan.k_first + plan.n_terms
    grid = harness._stored_grid(k_first, k_end, plan.hilbert)
    fed = []
    monkeypatch.setattr(harness, "orbit_terms",
                        lambda *args: fed.append(orbit_terms(*args)) or fed[-1])
    [(seed, got)] = harness._orbit_runs(plan, grid)
    assert [t.size for t in fed] == [_BLOCK] * 3 + [17]
    w = gen_weights(harness._for_seed(plan.weights, seed), k_first, k_end)
    u = gen_indices(plan.indices, k_first, k_end)
    if plan.system.kind == "doubling":
        v = plan.observable.eval(np.array([oracles.doubling_window(seed, j) for j in u]))
    else:
        v = orbit_eval(plan.system, plan.observable, OrbitPoint.rotation(plan.x0), u)
    terms = w * v
    if plan.hilbert:
        terms = terms / plan.normalizer.values(np.arange(k_first, k_end))
    assert np.concatenate(fed).tobytes() == terms.tobytes()
    want = prefix_at(terms, grid - k_first + plan.hilbert)
    assert got.sums.tobytes() == want.tobytes()
    assert got.convention == ("inclusive" if plan.hilbert else "exclusive")


def test_orbit_runs_drop_each_seeds_sums_before_the_next_draws(monkeypatch):
    """Once the caller drops a seed's run, nothing keeps its sums alive
    while the next seed's weights are drawn, so two seeds' full-length
    arrays never coexist."""
    d = _stage_config("average_run", "float_theta", 2 * _BLOCK + 5, seeds=(1, 2))
    plan, _ = harness._plan(cfg(**d))
    refs = []

    def weights(*args):
        assert all(ref() is None for ref in refs)
        return gen_weights(*args)

    monkeypatch.setattr(harness, "gen_weights", weights)
    runs = harness._orbit_runs(plan, harness._stored_grid(
        plan.k_first, plan.k_first + plan.n_terms, plan.hilbert))
    seed, first = next(runs)
    refs.append(weakref.ref(first.sums))
    del first
    assert [seed for seed, _ in runs] == [2]


def _perfbench_spans():
    """perfbench/spans.py, the benchmark's tracer, loaded under its own name."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _output_bytes(root: Path) -> dict:
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file() and p.name != "manifest.json"}


def test_traced_orbit_runs_match_untraced(tmp_path, monkeypatch):
    """The benchmark's tracer wraps layer functions imported into the
    harness by name: with it installed, multi-block average and series runs
    write the same bytes as untraced ones, every orbit value is counted,
    and the layer self times partition the run span."""
    spans = _perfbench_spans()
    n_terms, seeds = 2 * _BLOCK + 5, (1, 2)
    configs = [_stage_config("average_run", "float_theta", n_terms, seeds, name="avg"),
               _stage_config("hilbert_run", "fraction_x0", n_terms, seeds, name="ser")]
    for d in configs:
        run(cfg(output_dir=str(tmp_path / "plain"), **d))
    for name in spans.LAYER_FUNCTIONS:  # restored after the test
        monkeypatch.setattr(harness, name, getattr(harness, name))
    recorder = spans.Recorder("guard")
    spans.install(harness, recorder)
    with recorder.span(spans.RUN_SPAN):
        for d in configs:
            run(cfg(output_dir=str(tmp_path / "traced"), **d))
    assert _output_bytes(tmp_path / "traced") == _output_bytes(tmp_path / "plain")
    metrics = spans.layer_metrics(recorder.spans)
    assert metrics["dynamics.terms"] == len(configs) * len(seeds) * n_terms
    assert metrics["dynamics.calls"] == len(configs) * len(seeds) * 3
    total = spans.run_total(recorder.spans)
    covered = sum(metrics[m] for m in spans.SELF_TIME_METRICS)
    assert covered == pytest.approx(total, rel=1e-6)
