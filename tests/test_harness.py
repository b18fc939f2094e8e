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
import tracemalloc
import weakref
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ergosum import averages, harness
from ergosum._kernels import _BLOCK, array_blocks, prefix_sums
from ergosum.averages import orbit_terms, run_grid, storage_grid
from ergosum.dynamics import OrbitPoint, SystemModel, orbit_eval
from ergosum.indices import gen_indices
from ergosum.weights import gen_weights
from ergosum.harness import (
    ConfigError,
    ExperimentConfig,
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
        "grid_points": 1024,
    }
    d.update(extra)
    return d


def nested_list(depth: int) -> list:
    """An empty list inside depth - 1 more lists: [[...[]...]]."""
    v = []
    for _ in range(depth - 1):
        v = [v]
    return v


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
    assert validate(cfg(**d)) == ["blocks: required"]


def test_block_and_grid_bounds():
    diags = validate(cfg(**tiny_envelope(blocks=[[5, 5]])))
    assert any(d.startswith("blocks:") for d in diags)
    diags = validate(cfg(**tiny_envelope(grid_points=8)))
    assert diags == [f"grid_points: must be an integer in [16, {2**26}]"]


def test_seeded_weights_need_seeds():
    d = tiny_envelope(weights={"kind": "iid_uniform_phase"})
    diags = validate(cfg(**d))
    assert any("seeds: required" in x for x in diags)
    d["seeds"] = [1, 2]
    assert validate(cfg(**d)) == []


def test_size_caps_on_rows():
    diags = validate(cfg(**tiny_envelope(blocks=[[0, 10**12]])))
    assert any(d.startswith("blocks: N - M must be at most") for d in diags)


def test_seeds_shape_checks():
    assert any("distinct" in d for d in
               validate(cfg(**tiny_envelope(seeds=[1, 1]))))
    assert any("integers" in d for d in
               validate(cfg(**tiny_envelope(seeds=[1.5]))))
    assert any("at most" in d for d in
               validate(cfg(**tiny_envelope(seeds=list(range(300))))))


def test_template_harmonic_agreement():
    """A fit's rows are harmonic exactly when its template is; an envelope
    scan's when its harmonic flag is true."""
    d = tiny_envelope(blocks=[[0, 1 << j] for j in range(5, 11)])  # H2 fits 6+ rows
    d["kind"] = "condition_fit"
    for template, harmonic in (("harmonic_H2", True), ("H2", False)):
        plan, diags = harness._plan(cfg(**d, template=template))
        assert diags == [] and plan.harmonic is harmonic
    d["template"] = "H9"
    assert any(x.startswith("template:") for x in validate(cfg(**d)))
    for flag in (True, False):
        assert harness._plan(cfg(**tiny_envelope(harmonic=flag)))[0].harmonic is flag


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
    """A rotation point takes a number in [0, 1), read as a float, or an
    exact [num, den] pair; a config without x0 starts at 0.0."""
    assert harness._plan(cfg(**tiny_average()))[0].point.x0 == 0.0
    assert OrbitPoint.rotation(0.25).x0 == 0.25
    assert type(OrbitPoint.rotation(0).x0) is float
    assert OrbitPoint.rotation([1, 3]).x0 == Fraction(1, 3)
    for bad in (1.5, -0.1, [1, 2, 3], [3, 2], "x", True, None, math.nan):
        with pytest.raises(ValueError):
            OrbitPoint.rotation(bad)


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
    assert "weights: log_phase weights start at k = 1; got range from 0" in diags


def test_readme_field_table_is_the_reads_table():
    """README's table of the fields each kind reads is harness._READS, so
    the docs name no field that is gone and miss none that is read."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    lines = text.split("| kind | fields |\n| --- | --- |\n", 1)[1].split("\n\n", 1)[0]
    table = {}
    for line in lines.splitlines():
        kind, names = line.strip("| ").split(" | ")
        table[kind.strip("`")] = tuple(n.strip("`") for n in names.split(", "))
    assert table == harness._READS


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
    # a falsy field is set, so the manifest echoes it like any other
    assert cfg(**tiny_envelope(harmonic=False)).to_dict() == tiny_envelope(harmonic=False)


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


def test_numpy_integer_seeds_and_blocks_write_plain_int_bytes(tmp_path):
    """A config built in Python may give its seeds and blocks as numpy
    integers: it validates, and writes the envelope.csv of its plain-int
    twin."""
    for name, as_int in (("plain", int), ("numpy", np.int64)):
        c = cfg(**tiny_envelope(name, output_dir=str(tmp_path),
                                weights={"kind": "iid_uniform_phase"},
                                seeds=[as_int(1), as_int(2)],
                                blocks=[[as_int(0), as_int(24)], [as_int(24), as_int(48)]]))
        assert validate(c) == []
        run(c)
    assert ((tmp_path / "numpy" / "envelope.csv").read_bytes()
            == (tmp_path / "plain" / "envelope.csv").read_bytes())


def test_tiny_fit_run_outputs(tmp_path):
    d = tiny_envelope(name="t_fit", output_dir=str(tmp_path))
    d["kind"] = "condition_fit"
    d["template"] = "H2"
    d["blocks"] = [[0, 1 << j] for j in range(5, 14)]
    del d["grid_points"]  # default grid keeps the certificates tight
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


def test_a_preset_run_imports_no_numpy_ma(tmp_path):
    """harness._median takes medians without np.median, and the random
    prime model groups its blocks without np.unique: both import numpy.ma
    in the middle of a run. example2 takes medians in its fit stage and
    its average stage; the cramer_primes run draws from the model."""
    primes = tiny_average(indices={"kind": "cramer_primes"}, seeds=[1], output_dir=str(tmp_path))
    code = (
        "import sys\n"
        "from ergosum.harness import ExperimentConfig, run\n"
        f"run(ExperimentConfig.from_dict({{'name': 'e2', 'preset': 'example2', "
        f"'output_dir': {str(tmp_path)!r}}}))\n"
        f"run(ExperimentConfig.from_dict({primes!r}))\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    repo = Path(__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(repo / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip() == "False"
    assert json.loads((tmp_path / "e2" / "fit.json").read_text())["aggregate"]["median_alpha"]


@given(st.lists(st.one_of(st.floats(), st.sampled_from([0.0, -0.0, 5e-324, -5e-324]),
                          st.none()), max_size=9))
def test_median_is_np_median_of_the_finite_values(vals):
    """Bit for bit np.median of the finite values, NaN when there are none,
    signed zeros included: np.median([-0.0]) is +0.0, and the mean of
    -5e-324 and -0.0 is -0.0."""
    finite = [v for v in vals if v is not None and math.isfinite(v)]
    with np.errstate(over="ignore"):  # the mean of two doubles near the top
        want = float(np.median(finite)) if finite else math.nan
    assert np.array(harness._median(vals)).tobytes() == np.array(want).tobytes()


def test_run_rejects_invalid_config(tmp_path):
    c = cfg(**tiny_envelope(grid_points=4, output_dir=str(tmp_path)))
    with pytest.raises(ConfigError) as exc:
        run(c)
    assert any(d.startswith("grid_points:") for d in exc.value.diagnostics)


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
    "harmonic_string": (tiny_envelope(harmonic="false"), "harmonic: must be true or false"),
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
    "refine_iters": (tiny_envelope(refine_iters=4), "refine_iters: unknown field"),
    # spellings of a field that has one name now
    "n_ladder": (tiny_envelope(n_ladder=[16, 32]), "n_ladder: unknown field"),
    "theta_grid": (tiny_envelope(theta_grid={"points": 1024}), "theta_grid: unknown field"),
    "harmonic_on_fit": (
        tiny_envelope(kind="condition_fit", template="harmonic_H2", harmonic=True,
                      blocks=[[0, 1 << j] for j in range(4, 8)]),
        "harmonic: not read by condition_fit"),
    # fits whose rows the template cannot take
    "h2_five_rows": (
        tiny_envelope(kind="condition_fit", template="H2",
                      blocks=[[0, 1 << j] for j in range(8, 13)]),
        "template: H2 needs at least 6 samples"),
    "harmonic_h1_on_n_ladder": (
        tiny_envelope(kind="condition_fit", template="harmonic_H1",
                      blocks=[[0, 16], [0, 64], [0, 256], [0, 1024]]),
        "template: harmonic_H1 needs M >= 2"),
    # term ranges and stored grids the run cannot produce
    "explicit_indices_short": (
        tiny_average(indices={"kind": "explicit", "values": [1, 2, 3]}),
        "indices: explicit index list shorter than requested range"),
    "explicit_indices_short_blocks": (
        tiny_envelope(indices={"kind": "explicit", "values": [1, 2, 3]}),
        "indices: explicit index list shorter than requested range"),
    # the random prime model's walk holds about 2.03e8 selected integers
    "cramer_primes_past_reach": (
        tiny_average(indices={"kind": "cramer_primes"}, seeds=[1], k_first=300_000_000,
                     n_terms=2),
        "indices: cramer_primes indices stop at k = 200000000"),
    "monomial_past_int64": (
        tiny_average(indices={"kind": "monomial", "d": 9}),
        "indices: monomial index values exceed int64 range"),
    "k0_above_range": (
        tiny_average(normalizer={"gamma": 1.0, "k0": 1000}),
        "normalizer: entire grid lies below the normalizer offset k0"),
    # a gamma = 0 slope regresses on log log N, which is -inf at N = 1
    "log_scale_slope_at_n_1": (
        tiny_average(normalizer={"gamma": 0.0, "k0": 1}, k_first=0, n_terms=1000,
                     system={"kind": "rotation", "theta0": 0.3}),
        "normalizer: gamma = 0 slopes regress on log log N"),
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
        "normalizer: normalizer defined for k >= 5"),
    # k0 is refused before the stored grid, which cannot start at k = 0
    "hilbert_k_first_0": (
        tiny_average(kind="hilbert_run", k_first=0),
        "normalizer: normalizer defined for k >= 1"),
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
    # run() writes the bound as a float, which 10**400 does not fit
    "bound_10_400": (
        tiny_average(kind="hilbert_run", bound=10**400),
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
        "weights: power_phase phase reaches 2**36, past double precision, from k = 2"),
    # phases whose reduction mod 1 keeps at most 16 bits: rounding noise
    "power_phase_envelope_past_precision": (
        tiny_envelope(weights={"kind": "power_phase", "delta": 4.5}, blocks=[[0, 65536]]),
        "weights: power_phase phase reaches 2**36, past double precision, from k = 256"),
    **{f"{kind}_average_past_precision": (
        tiny_average(weights={"kind": kind, **param}, n_terms=100_000),
        f"weights: {kind} phase reaches 2**36, past double precision, from k = {k}")
       for kind, param, k in (("log_phase", {"h": 1e17}, 2),
                              ("logpower_phase", {"delta": 20}, 33),
                              ("power_phase", {"delta": 4.5}, 256))},
    "example3_h_phase_past_precision": (
        {"name": "p3", "preset": "example3", "params": {"h": 1e10}},
        "params.h: must be a finite nonzero number"),
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
    # ... and the whole path, staging name and longest file name included,
    # holds PATH_MAX = 4096 bytes with its null
    "output_dir_past_path_max": (
        tiny_average(output_dir="/".join(["d" * 200] * 25)),
        "output_dir: the longest output path would hold 5084 bytes, past 4095"),
    "lone_surrogate_name": (
        tiny_average(name="a\ud800"), "name: must be encodable in the file system encoding"),
    # the draws read a seed modulo 2**64: these would run one repetition twice
    "seeds_equal_modulo_2_64": (
        tiny_average(seeds=[1, 1 + 2**64]), "seeds: must be distinct modulo 2**64"),
    "ingredient_seed_and_seeds": (
        tiny_envelope(weights={"kind": "iid_uniform_phase", "seed": 3}, seeds=[1, 2]),
        "weights.seed: each repetition draws with its own seed from seeds"),
    # a family's first k is no field: k_first and blocks say where k starts
    "weights_fractional_offset": (
        tiny_average(weights={"kind": "constant", "offset": 2.5}),
        "weights: WeightSpec.__init__() got an unexpected keyword argument 'offset'"),
    "indices_fractional_offset": (
        tiny_average(indices={"kind": "identity", "offset": 1.5}),
        "indices: IndexSpec.__init__() got an unexpected keyword argument 'offset'"),
    # integer and real fields take no bool, string or fractional stand-in
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
    # fit.json copies reference by recursion, which the stack ran out of at
    # these depths; the cap is fixed, whatever depth the stack allows
    **{f"reference_nested_{depth}_deep": (
        tiny_envelope(kind="condition_fit", template="H2",
                      weights={"kind": "power_phase", "delta": 0.5},
                      blocks=[[0, 1 << j] for j in range(6, 12)],
                      reference={"x": nested_list(depth)}),
        "reference: must nest at most 100 levels deep") for depth in (700, 900)},
    # past the one cap on modes, 2**53: the range configs may ask for, since
    # every orbit value reduces its phase exactly at any mode
    "fourier_mode_10_400": (
        tiny_average(observable={"kind": "fourier_mode", "mode": 10**400}),
        "observable: fourier_mode needs an integer mode with |m| <= 2**53"),
    "finite_fourier_mode_10_400": (
        tiny_average(observable={"kind": "finite_fourier", "terms": [[10**400, 1, 0]]}),
        "observable: finite_fourier modes must be integers with |m| <= 2**53"),
    # a sub-spec field its kind does not read
    "delta_on_constant_weights": (
        tiny_average(weights={"kind": "constant", "delta": 0.5}),
        "weights: constant reads no delta"),
    "seed_on_constant_weights": (
        tiny_average(weights={"kind": "constant", "seed": 3}),
        "weights: constant reads no seed"),
    "coeffs_on_identity_indices": (
        tiny_average(indices={"kind": "identity", "coeffs": [1, 2]}),
        "indices: identity reads no coeffs"),
    "interval_on_fourier_mode": (
        tiny_average(observable={"kind": "fourier_mode", "mode": 1, "interval": [0, 0.5]}),
        "observable: fourier_mode reads no interval"),
    "theta0_on_doubling": (
        tiny_average(system={"kind": "doubling", "theta0": 0.3}, seeds=[1]),
        "system: doubling reads no theta0"),
    "rho_on_dyadic_ladder": (
        tiny_average(kind="oscillation_run",
                     ladder={"kind": "dyadic", "j_lo": 2, "j_hi": 7, "rho": 2.0}),
        "ladder: dyadic reads no rho"),
    # ladders refused before a value of them is built
    "dyadic_ladder_j_hi_10_12": (
        tiny_average(kind="oscillation_run",
                     ladder={"kind": "dyadic", "j_lo": 2, "j_hi": 10**12}),
        "ladder: dyadic ladder exceeds the 2**62 cap"),
    "rho_ladder_j_hi_10_12": (
        tiny_average(kind="oscillation_run",
                     ladder={"kind": "rho_ladder", "j_lo": 2, "j_hi": 10**12,
                             "rho": 1.0000001, "epsilon": 0.5}),
        "ladder: a ladder holds at most 1048576 values"),
    # coefficient lists past degree 62, refused before any is evaluated
    "polynomial_10_4_coeffs": (
        tiny_average(indices={"kind": "polynomial", "coeffs": [0] * 9_999 + [1]}),
        "indices: polynomial takes at most 63 coefficients"),
    **{f"polynomial_{size}_coeffs_two_terms": (
        tiny_average(indices={"kind": "polynomial", "coeffs": [0] * (size - 1) + [1]},
                     n_terms=2, k_first=0),
        "indices: polynomial takes at most 63 coefficients") for size in (1_000, 3_000)},
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


@pytest.mark.parametrize("command", ["validate", "run"])
@pytest.mark.parametrize("text, reason", [
    pytest.param(None, "[Errno 21] Is a directory", id="directory"),
    pytest.param("[" * 100_000 + "]" * 100_000, "maximum recursion depth exceeded",
                 id="array_nested_100000_deep"),
    pytest.param("{not json", "Expecting property name", id="not_json"),
])
def test_cli_unreadable_config_exits_2(tmp_path, capsys, monkeypatch, command, text, reason):
    """A config path that cannot be read as a file, or whose text is not a
    JSON document the parser can read, gives one diagnostic and exit 2."""
    monkeypatch.setenv(harness.OUTPUT_ROOT_VAR, str(tmp_path / "out"))
    p = tmp_path / "c.json"
    if text is None:
        p.mkdir()
    else:
        p.write_text(text)
    assert main([command, str(p)]) == 2
    [line] = capsys.readouterr().out.splitlines()
    assert line.startswith(f"invalid: could not read config: {reason}")
    assert [q.name for q in tmp_path.iterdir()] == ["c.json"]


def test_reference_depth_cap(tmp_path):
    """A reference nested 100 levels deep is accepted and written to fit.json;
    one level more is not."""
    d = tiny_envelope(kind="condition_fit", template="H2", output_dir=str(tmp_path),
                      blocks=[[0, 1 << j] for j in range(5, 11)], grid_points=None)
    deepest = nested_list(99)
    assert validate(cfg(**d, reference={"x": [deepest]})) == [
        "reference: must nest at most 100 levels deep"]
    run(cfg(**d, reference={"x": deepest}))
    assert json.loads((tmp_path / "t_env" / "fit.json").read_text())["reference"] == {
        "x": deepest}


def test_largest_exact_mode_runs(tmp_path):
    """|m| = 2**53, the largest mode Observable takes, validates and runs."""
    for obs in ({"kind": "fourier_mode", "mode": -2**53},
                {"kind": "finite_fourier", "terms": [[2**53, 1, 0]]}):
        c = cfg(**tiny_average(observable=obs, output_dir=str(tmp_path)))
        assert validate(c) == []
        run(c)


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


@pytest.mark.parametrize("kind", ["average_run", "oscillation_run"])
def test_an_average_run_builds_its_normalized_grid_once(tmp_path, monkeypatch, kind):
    """_plan builds the NormalizedGrid to check the normalizer, and the
    stage reuses it: one build per run, and the outputs of a stage that
    builds its own."""
    extra = {"ladder": {"kind": "dyadic", "j_lo": 2, "j_hi": 7}} if kind == "oscillation_run" else {}
    config = cfg(**tiny_average(kind=kind, n_terms=3000, output_dir=str(tmp_path), **extra))
    builds = []
    real = averages.NormalizedGrid.build
    monkeypatch.setattr(averages.NormalizedGrid, "build",
                        lambda grid, norm: builds.append(norm) or real(grid, norm))
    manifest = run(config)
    assert len(builds) == 1
    plan = harness._plan(config)[0]
    assert plan.normed is not None
    reused, own = {}, {}
    harness._average_stage(reused, plan, {})
    assert len(builds) == 2
    harness._average_stage(own, dataclasses.replace(plan, normed=None), {})
    assert len(builds) == 3
    assert reused == own
    assert {name: hashlib.sha256(data).hexdigest() for name, data in own.items()} == {
        name: manifest.outputs[name]["sha256"] for name in own}


def test_cli_run_parses_the_config_once(tmp_path, monkeypatch, capsys):
    plans = []
    real_plan = harness._plan
    monkeypatch.setattr(harness, "_plan", lambda c: plans.append(c) or real_plan(c))
    p = tmp_path / "c.json"
    p.write_text(json.dumps(tiny_average(output_dir=str(tmp_path))))
    assert main(["run", str(p)]) == 0
    assert len(plans) == 1


def _window_values(f, seed: int, u) -> np.ndarray:
    """A doubling point's orbit values as the rotation by 2**-53 from 0 at
    the window integers that oracles.doubling_window reads with Python
    integers."""
    w = np.array([oracles.doubling_window(seed, v) for v in u], dtype=np.int64)
    return orbit_eval(SystemModel.rotation(Fraction(1, 2**53)), f, OrbitPoint.rotation([0, 1]), w)


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
    grid = run_grid(k_first, plan.n_terms)
    [(seed, got)] = harness._orbit_runs(plan, grid)
    u = gen_indices(harness._for_seed(plan.indices, seed), k_first, k_end)
    terms = gen_weights(plan.weights, k_first, k_end) * _window_values(plan.observable, seed, u)
    assert got.sums.tobytes() == prefix_sums(array_blocks(terms), grid - k_first).tobytes()


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


def test_beta_ladder_is_an_average_run(tmp_path):
    """prime_question's series.csv, A(N) = N^beta of its first beta, is the
    series.csv of the average run along the primes under that normalizer."""
    theta = SystemModel.rotation_sqrt2().theta0
    run(cfg(preset="prime_question", output_dir=str(tmp_path)))
    run(cfg(**tiny_average(
        output_dir=str(tmp_path), indices={"kind": "primes"},
        system={"kind": "rotation", "theta0": [theta.numerator, theta.denominator]},
        normalizer={"gamma": 0.6, "k0": 1}, n_terms=200_000)))
    want = (tmp_path / "prime_question" / "series.csv").read_bytes()
    assert (tmp_path / "t_avg" / "series.csv").read_bytes() == want


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


def _thin_grid_by_unique(n_grid):
    """The CSV thinning as np.unique over every bucket, the reference."""
    if n_grid.size <= harness._CSV_DENSE_ROWS:
        return np.arange(n_grid.size)
    head = np.flatnonzero(n_grid <= harness._CSV_DENSE_ROWS)
    rest = np.flatnonzero(n_grid > harness._CSV_DENSE_ROWS)
    buckets = np.floor(np.log(n_grid[rest].astype(np.float64))
                       / np.log(harness._CSV_THIN_RATIO)).astype(np.int64)
    _, first = np.unique(buckets, return_index=True)
    return np.unique(np.concatenate([head, rest[first], [n_grid.size - 1]]))


@pytest.mark.parametrize("lo, hi", [(1, 512), (1, 513), (1, 1_000), (3, 70_000),
                                    (1, 1_000_001), (600, 5 * 10**6), (1, 10**8),
                                    (2 * 10**6, 3 * 10**9)])
def test_thin_grid_keeps_the_rows_the_unique_form_keeps(lo, hi):
    """Chunked bucket edges keep exactly the rows np.unique over all
    buckets keeps, on storage grids short and long, dense and sparse."""
    grid = storage_grid(lo, hi)
    assert np.array_equal(_thin_grid(grid), _thin_grid_by_unique(grid))


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
    grid = run_grid(k_first, plan.n_terms, plan.hilbert)
    fed = []
    monkeypatch.setattr(averages, "orbit_terms",
                        lambda *args: fed.append(orbit_terms(*args)) or fed[-1])
    [(seed, got)] = harness._orbit_runs(plan, grid)
    assert [t.size for t in fed] == [_BLOCK] * 3 + [17]
    w = gen_weights(harness._for_seed(plan.weights, seed), k_first, k_end)
    u = gen_indices(plan.indices, k_first, k_end)
    if plan.system.kind == "doubling":
        v = _window_values(plan.observable, seed, u)
    else:
        v = orbit_eval(plan.system, plan.observable, plan.point, u)
    terms = w * v
    if plan.hilbert:
        terms = terms / plan.normalizer.values(np.arange(k_first, k_end))
    assert np.concatenate(fed).tobytes() == terms.tobytes()
    want = prefix_sums(array_blocks(terms), grid - k_first + plan.hilbert)
    assert got.sums.tobytes() == want.tobytes()
    assert got.convention == ("inclusive" if plan.hilbert else "exclusive")


@pytest.mark.parametrize("kind", ["average_run", "hilbert_run"])
def test_orbit_runs_hand_the_sums_sized_weights_and_one_orbit_eval_per_block(
        kind, monkeypatch):
    """What the benchmark's traced pass counts: the weights _orbit_runs
    hands harness.weighted_sums or harness.hilbert_series have len() equal
    to n_terms, and harness.orbit_eval, looked up when the run starts, is
    called once per block."""
    n_terms = 2 * _BLOCK + 5
    plan, _ = harness._plan(cfg(**_stage_config(kind, "float_theta", n_terms)))
    sums = "hilbert_series" if plan.hilbert else "weighted_sums"
    sized, calls = [], []
    real_sums, real_eval = getattr(harness, sums), harness.orbit_eval
    monkeypatch.setattr(harness, sums, lambda w, *a: sized.append(len(w)) or real_sums(w, *a))
    monkeypatch.setattr(harness, "orbit_eval",
                        lambda *a: calls.append(a[-1].size) or real_eval(*a))
    [(_, run)] = harness._orbit_runs(plan, run_grid(plan.k_first, n_terms, plan.hilbert))
    assert sized == [n_terms]
    assert calls == [_BLOCK, _BLOCK, 5]
    assert run.n_grid[-1] == plan.k_first + n_terms - plan.hilbert


def test_orbit_runs_drop_each_seeds_sums_before_the_next_draws(monkeypatch):
    """Once the caller drops a seed's run, nothing keeps its sums alive
    while the next seed's weights are drawn, so two seeds' stored sums
    never coexist."""
    d = _stage_config("average_run", "float_theta", 2 * _BLOCK + 5, seeds=(1, 2))
    plan, _ = harness._plan(cfg(**d))
    refs = []
    weight_blocks = harness.weight_blocks

    def weights(*args):
        assert all(ref() is None for ref in refs)
        return weight_blocks(*args)

    monkeypatch.setattr(harness, "weight_blocks", weights)
    runs = harness._orbit_runs(plan, run_grid(plan.k_first, plan.n_terms, plan.hilbert))
    seed, first = next(runs)
    refs.append(weakref.ref(first.sums))
    del first
    assert [seed for seed, _ in runs] == [2]


def test_orbit_run_memory_does_not_grow_with_n_terms(tmp_path):
    """Weights, indices and orbit values are drawn one block at a time, so
    the traced peak of a one-seed cramer_primes average_run at 1.6e7 terms
    stays within 1.1x + 4 MiB of the peak at 10^6 terms: both store about
    10^6 N. Drawn whole, the weights and indices alone took 24 bytes a
    term, 384 MB at 1.6e7."""
    def peak(n_terms):
        config = cfg(kind="average_run", name=f"n{n_terms}", seeds=[1],
                     output_dir=str(tmp_path), weights={"kind": "constant"},
                     indices={"kind": "cramer_primes"},
                     system={"kind": "rotation", "theta0": [2, 7]},
                     observable={"kind": "fourier_mode", "mode": 1},
                     normalizer={"gamma": 1.0}, n_terms=n_terms)
        tracemalloc.start()
        try:
            run(config)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    small, large = peak(10**6), peak(16 * 10**6)
    assert large <= 1.1 * small + 4 * 2**20


def test_orbit_run_peak_memory_holds_no_sums_array(tmp_path):
    """The average stage reads each seed's sums block by block and keeps
    the stored grid, A(N) and one ratio array: a one-seed 10^6-term
    cramer_primes average_run peaks under tracemalloc at no more than 24
    bytes per stored N plus 16 MiB. A complex array of the stored sums
    alone is 16 bytes per N, and the slope's regressor and logs held
    whole 8 more each."""
    config = cfg(kind="average_run", name="mem", seeds=[1], output_dir=str(tmp_path),
                 weights={"kind": "constant"}, indices={"kind": "cramer_primes"},
                 system={"kind": "rotation", "theta0": [2, 7]},
                 observable={"kind": "fourier_mode", "mode": 1},
                 normalizer={"gamma": 1.0}, n_terms=10**6)
    stored = run_grid(1, 10**6).size
    tracemalloc.start()
    try:
        run(config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 24 * stored + 16 * 2**20, peak / 2**20


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
    write the same bytes as untraced ones, every orbit value and term is
    counted, every stored point too, and the layer self times partition
    the run span."""
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
    assert metrics["averages.terms"] == len(configs) * len(seeds) * n_terms
    plans = [harness._plan(cfg(**d))[0] for d in configs]
    assert metrics["averages.stored_points"] == len(seeds) * sum(
        run_grid(p.k_first, p.n_terms, p.hilbert).size for p in plans)
    total = spans.run_total(recorder.spans)
    covered = sum(metrics[m] for m in spans.SELF_TIME_METRICS)
    assert covered == pytest.approx(total, rel=1e-6)
