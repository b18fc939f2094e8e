"""Tests for the benchmark's own code. Run: python3 -m pytest perfbench -q"""

from pathlib import Path

import pytest

import spans
from workloads import DEFAULT_SEED, WORKLOADS, check_envelope_rows, preset_seeds

SRC = Path(__file__).resolve().parent.parent / "src"

_HEADER = ("seed,M,N,lower,upper,argmax_theta,deriv_bound,weight_l1,grid_points,"
           "grid_spacing,bracket_width,aliased,harmonic\n")


def _span(i, name, parent, start, end, counts=None):
    return {"id": i, "name": name, "parent": parent, "run": "r",
            "start": start, "end": end, "counts": counts or {}}


def test_self_times_subtract_direct_children_only():
    tree = [
        _span(0, "run", None, 0.0, 10.0),
        _span(1, "a", 0, 1.0, 4.0),
        _span(2, "b", 1, 2.0, 3.5),
        _span(3, "c", 0, 5.0, 6.0),
    ]
    assert spans.self_times(tree) == pytest.approx({0: 6.0, 1: 1.5, 2: 1.5, 3: 1.0})


def test_layer_self_times_partition_the_run():
    sup = {"terms": 8, "grid_points": 64, "aliased_rows": 1, "slack": 0.25}
    tree = [
        _span(0, "run", None, 0.0, 10.0),
        _span(1, "validate", 0, 0.0, 0.5),
        _span(2, "gen_weights", 0, 0.5, 1.0, {"terms": 8}),
        _span(3, "sup_envelope", 0, 1.0, 7.0, sup),
        _span(4, "sup_harmonic", 0, 7.0, 8.0, {**sup, "slack": 0.75}),
        _span(5, "fit_H1", 0, 8.0, 8.5, {"samples": 2}),
    ]
    m = spans.layer_metrics(tree)
    assert m["trigsum.self_s"] == pytest.approx(7.0)
    assert m["trigsum.calls"] == 2 and m["trigsum.terms"] == 16
    assert m["trigsum.fft_bytes"] == 2 * 64 * spans.FFT_BYTES_PER_POINT
    assert m["trigsum.aliased_rows"] == 2
    assert m["trigsum.median_slack"] == pytest.approx(0.5)
    assert m["harness.validate_s"] == pytest.approx(0.5)
    # run self time 1.5 s plus validation 0.5 s
    assert m["harness.self_s"] == pytest.approx(2.0)
    assert m["scaling_fit.samples"] == 2 and m["dynamics.calls"] == 0
    total = sum(m[name] for name in spans.SELF_TIME_METRICS)
    assert total == pytest.approx(spans.run_total(tree))


def test_recorder_nests_spans_and_counts_calls():
    rec = spans.Recorder("r")
    with rec.span(spans.RUN_SPAN):
        out = rec.wrap("gen_indices", lambda spec, m, n: list(range(m, n)))(None, 2, 7)
    assert out == [2, 3, 4, 5, 6]
    run, call = rec.spans
    assert call["parent"] == run["id"] and call["counts"] == {"terms": 5}
    assert run["start"] <= call["start"] <= call["end"] <= run["end"]


def test_envelope_check_rejects_lower_above_upper(tmp_path):
    path = tmp_path / "envelope.csv"
    good = "1,0,16,3.5,3.75,0.1,10.0,16.0,256,0.0039,1e-9,0,0\n"
    path.write_text(_HEADER + good)
    assert check_envelope_rows(path) == []
    path.write_text(_HEADER + good + "1,0,16,3.75,3.5,0.1,10.0,16.0,256,0.0039,1e-9,0,0\n")
    problems = check_envelope_rows(path)
    assert len(problems) == 1 and "row 1" in problems[0]


def test_seed_one_maps_to_the_presets_default_seed_lists(monkeypatch):
    """Run each preset with no seeds up to its first stage and capture the
    seed list the preset falls back to."""
    monkeypatch.syspath_prepend(str(SRC))
    from ergosum import harness

    class Captured(Exception):
        pass

    def capture(seeds):
        raise Captured(list(seeds))

    # (files, weights, indices, blocks, theta_grid, harmonic, seeds)
    monkeypatch.setattr(harness, "_envelope_stage", lambda *a: capture(a[6]))
    monkeypatch.setattr(harness, "_pi_table_stage", lambda files, seeds, ns: capture(seeds))
    for workload, (preset, n) in WORKLOADS.items():
        cfg = harness.ExperimentConfig.from_dict({"kind": "preset", "preset": preset})
        with pytest.raises(Captured) as got:
            harness._PRESET_RUNNERS[preset](cfg, {}, {})
        assert preset_seeds(workload, DEFAULT_SEED) == got.value.args[0]
        assert len(preset_seeds(workload, 2)) == n
        assert set(preset_seeds(workload, 2)).isdisjoint(preset_seeds(workload, 1))
