"""Running sums, normalizers, series partials, ladders, oscillation."""

import json
import math
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ergosum._kernels import pairwise_sum
from ergosum.averages import (
    DENSE_LIMIT,
    GRID_RATIO,
    BlockLadder,
    NormalizedGrid,
    NormalizerSpec,
    SeriesRun,
    _diameter,
    abel_decompose,
    cauchy_tail_report,
    control_integral,
    epsilon_for_beta,
    hilbert_partial,
    hilbert_series,
    maximal_norm,
    normalized_series,
    oscillation_report,
    split_level,
    storage_grid,
    weighted_sums,
)
from ergosum.dynamics import SpectralMeasure
from ergosum.harness import _json_bytes, _fields_json

import oracles


# ------------------------------------------------------------- normalizers

def test_normalizer_values():
    n = NormalizerSpec(0.875, a=2.0, k0=3)
    k = np.array([3, 10, 1000], dtype=np.int64)
    want = k**0.875 * np.log(k) ** 2.0
    assert np.allclose(n.values(k), want, rtol=1e-15)

    m = NormalizerSpec(0.75, k0=1)
    assert m.values(np.array([1]))[0] == 1.0


def test_normalizer_k0_minimums():
    assert NormalizerSpec(1.0).k0 == 3  # default
    assert NormalizerSpec(1.0, k0=1).k0 == 1  # pure power may start at 1
    with pytest.raises(ValueError):
        NormalizerSpec(1.0, a=1.0, k0=1)  # log 1 = 0
    assert NormalizerSpec(1.0, a=1.0, k0=2).k0 == 2
    with pytest.raises(ValueError):
        NormalizerSpec(1.0, b=1.0, k0=2)  # log log 2 < 0
    assert NormalizerSpec(1.0, b=1.0).k0 == 16  # default shifts when b != 0
    assert NormalizerSpec(1.0, b=1.0, k0=3).k0 == 3
    with pytest.raises(ValueError):
        NormalizerSpec(-0.5)


def test_normalizer_rejects_low_k():
    n = NormalizerSpec(1.0, a=2.0, k0=3)
    with pytest.raises(ValueError):
        n.values(np.array([2]))


def test_normalizer_monotonicity():
    assert NormalizerSpec(1.0, k0=1).is_monotone_on(1, 1000)
    # N^0 log^2 N loglog^{-3} N dips before growing
    n = NormalizerSpec(0.0, a=2.0, b=-3.0, k0=16)
    assert not n.is_monotone_on(16, 40)
    assert NormalizerSpec(0.0, a=1.0, k0=3).is_monotone_on(3, 10**6)


def test_normalizer_round_trip():
    # the JSON form a report writes builds the same spec
    n = NormalizerSpec(0.5, a=1.0, b=2.0, k0=20)
    assert NormalizerSpec(**json.loads(_json_bytes(_fields_json(n)))) == n


# ------------------------------------------------------------------ ladders

def test_ladder_values():
    assert list(BlockLadder.dyadic(3, 7).values()) == [8, 16, 32, 64, 128]
    assert list(BlockLadder.doubly_exponential(1, 4).values()) == [4, 16, 256, 65536]


def test_rho_ladder_frozen_values():
    lad = BlockLadder(kind="rho_ladder", j_lo=2, j_hi=8, rho=2.0, epsilon=0.25)
    assert list(lad.values()) == [2, 5, 15, 41, 116, 331, 949]


def test_rho_rho_ladder_grows():
    lad = BlockLadder(kind="rho_rho_ladder", j_lo=2, j_hi=4, rho=1.5, epsilon=0.5)
    vals = lad.values()
    assert np.all(np.diff(vals) > 0)
    # N_j = floor(rho ** (rho ** (sqrt(j) log j)))
    want = math.floor(1.5 ** (1.5 ** (math.sqrt(3) * math.log(3))))
    assert vals[1] == want


def test_ladder_validation():
    with pytest.raises(ValueError):
        BlockLadder(kind="triadic", j_lo=1, j_hi=3)
    with pytest.raises(ValueError):
        BlockLadder.dyadic(5, 3)
    with pytest.raises(ValueError):
        BlockLadder.dyadic(0, 62)  # cap
    with pytest.raises(ValueError):
        BlockLadder(kind="rho_ladder", j_lo=1, j_hi=5, rho=2.0, epsilon=0.25)
    with pytest.raises(ValueError):
        BlockLadder(kind="rho_ladder", j_lo=2, j_hi=5, rho=0.5, epsilon=0.25)
    with pytest.raises(ValueError):
        # rho barely above 1 collapses neighboring floors
        BlockLadder(kind="rho_ladder", j_lo=2, j_hi=8, rho=1.01, epsilon=0.5)


def test_ladder_round_trip():
    # the JSON form oscillation.json writes builds the same spec
    for lad in (BlockLadder(kind="rho_ladder", j_lo=2, j_hi=6, rho=3.0, epsilon=0.125),
                BlockLadder.dyadic(2, 11)):
        d = json.loads(_json_bytes(_fields_json(lad)))
        assert BlockLadder(**d) == lad
    assert d == {"kind": "dyadic", "j_lo": 2, "j_hi": 11}  # unset rho, epsilon left out


def test_storage_grid():
    g = storage_grid(1, 500)
    assert np.array_equal(g, np.arange(1, 501))
    g = storage_grid(1, 10**7)
    assert np.array_equal(g[:DENSE_LIMIT], np.arange(1, DENSE_LIMIT + 1))
    assert g[-1] == 10**7
    tail = g[DENSE_LIMIT - 1 :]
    assert np.all(tail[1:] > tail[:-1])
    assert np.all(tail[1:] <= tail[:-1] * GRID_RATIO)
    assert tail.size < 250  # geometric, not dense
    with pytest.raises(ValueError):
        storage_grid(5, 4)


def _list_built_grid(n_lo, n_hi):
    # the grid as it was first written: a Python list, one int per point
    dense_top = min(n_hi, max(DENSE_LIMIT, n_lo))
    out = list(range(n_lo, dense_top + 1))
    n = dense_top
    while n < n_hi:
        n = min(max(n + 1, int(n * GRID_RATIO)), n_hi)
        out.append(n)
    return np.array(out, dtype=np.int64)


@pytest.mark.parametrize("n_lo, n_hi", [
    (1, 1), (3, 500), (1, DENSE_LIMIT - 1), (1, DENSE_LIMIT),
    (2, DENSE_LIMIT + 1), (1, 10**9), (DENSE_LIMIT + 5, 10**8),
])
def test_storage_grid_matches_list_built_grid(n_lo, n_hi):
    got = storage_grid(n_lo, n_hi)
    want = _list_built_grid(n_lo, n_hi)
    assert got.dtype == want.dtype and np.array_equal(got, want)


# ------------------------------------------------------------ running sums

def test_weighted_sums_exclusive_convention():
    v = np.ones(5, dtype=np.complex128)
    w = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
    run = weighted_sums(v, w, k_first=2)
    # S_3 = w_2 alone: sum over k in [2, 3)
    assert run.sum_at(3) == pytest.approx(1.0)
    assert run.sum_at(7) == pytest.approx(15.0)
    assert run.convention == "exclusive"
    with pytest.raises(KeyError):
        run.sum_at(8)


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(1, 30),
    k_first=st.integers(0, 9),
    data=st.data(),
)
def test_weighted_sums_match_plain_accumulation(n, k_first, data):
    fl = st.floats(-4.0, 4.0, allow_nan=False)
    w = np.array(data.draw(st.lists(fl, min_size=n, max_size=n)))
    v = np.array(data.draw(st.lists(fl, min_size=n, max_size=n)))
    run = weighted_sums(v, w, k_first=k_first)
    ora = oracles.prefix_sums((w * v).tolist())
    for i, ngrid in enumerate(run.n_grid):
        assert complex(run.sums[i]) == pytest.approx(
            ora[int(ngrid) - k_first - 1], abs=1e-12
        )


def test_weighted_sums_grid_validation():
    v = np.ones(10, dtype=np.complex128)
    with pytest.raises(ValueError):
        weighted_sums(v, np.ones(9))
    with pytest.raises(ValueError):
        weighted_sums(v, np.ones(10), k_first=2,
                      n_grid=np.array([2]))  # at k_first, not after
    with pytest.raises(ValueError):
        weighted_sums(v, np.ones(10), n_grid=np.array([11]))  # beyond range


def test_series_run_validation():
    with pytest.raises(ValueError):
        SeriesRun(k_first=0, n_grid=np.array([2, 2]), sums=np.zeros(2))
    with pytest.raises(ValueError):
        SeriesRun(k_first=0, n_grid=np.array([1, 2]), sums=np.zeros(3))
    with pytest.raises(ValueError):
        SeriesRun(k_first=5, n_grid=np.array([5]), sums=np.zeros(1),
                  convention="exclusive")  # exclusive needs N > k_first
    ok = SeriesRun(k_first=5, n_grid=np.array([5]), sums=np.zeros(1),
                   convention="inclusive")
    assert ok.n_max == 5
    with pytest.raises(ValueError):
        SeriesRun(k_first=0, n_grid=np.array([1]), sums=np.zeros(1),
                  convention="cumulative")


def test_normalized_series_and_slope():
    n = 4096
    v = np.ones(n, dtype=np.complex128)
    run = weighted_sums(v, np.ones(n), k_first=0)
    ns = normalized_series(run, NormalizerSpec(0.7, k0=1))
    # |S_N| = N so ratios = N^0.3: slope of log ratio vs log N is 0.3
    assert ns.slope() == pytest.approx(0.3, abs=1e-6)
    assert ns.value_at(100) == pytest.approx(100**0.3)
    assert ns.value_at(101) == pytest.approx(101**0.3)
    assert ns.tail_max(4000) == pytest.approx(4096**0.3)
    assert ns.monotone_normalizer
    with pytest.raises(KeyError):
        ns.value_at(0)
    with pytest.raises(ValueError):
        ns.tail_max(5000)


def test_normalized_series_requires_normalizer():
    run = weighted_sums(np.ones(8), np.ones(8))
    with pytest.raises(ValueError):
        normalized_series(run)
    with pytest.raises(ValueError):
        normalized_series(run, NormalizerSpec(1.0, k0=100))


def _slope_reference(n, ratios, gamma):
    """The least-squares slope over the positive ratios, written out."""
    mask = ratios > 0.0
    if mask.sum() < 2:
        return math.nan
    x = np.log(n[mask].astype(np.float64))
    if gamma == 0.0:
        x = np.log(x)
    y = np.log(ratios[mask])
    xc = x - x.mean()
    den = float(pairwise_sum(xc * xc))
    if den == 0.0:
        return math.nan
    return float(pairwise_sum(xc * (y - y.mean()))) / den


@given(st.lists(st.integers(min_value=-1, max_value=1), min_size=2, max_size=300),
       st.sampled_from([(0.0, 1.0), (0.5, 0.0), (1.0, 1.0)]),
       st.integers(min_value=1, max_value=300))
@settings(max_examples=80, deadline=None)
def test_normalized_series_from_a_grid_or_a_spec(steps, shape, k0):
    """A prebuilt NormalizedGrid and a NormalizerSpec give the same bits,
    and both match the masked computation written out: k0 can lie above
    the first stored N, and integer steps make some |S_N| exactly 0, so
    the slope's masked fallback runs."""
    gamma, a = shape
    run = weighted_sums(np.ones(len(steps)), steps, k_first=0)
    k0 = min(max(k0, 2 if a else 1), run.n_max)
    norm = NormalizerSpec(gamma, a=a, k0=k0)
    grid = NormalizedGrid.build(run.n_grid, norm)
    by_grid, by_spec = normalized_series(run, grid), normalized_series(run, norm)
    mask = run.n_grid >= k0
    n = run.n_grid[mask]
    ratios = np.abs(run.sums[mask]) / norm.values(n)
    for ns in (by_grid, by_spec):
        assert ns.n_grid.tobytes() == n.tobytes()
        assert ns.ratios.tobytes() == ratios.tobytes()
        assert np.float64(ns.slope()).tobytes() == np.float64(
            _slope_reference(n, ratios, gamma)).tobytes()
        for c in (k0, int(n[len(n) // 2]), run.n_max):
            assert ns.tail_max(c) == ratios[n >= c].max()
            assert ns.value_at(c) == ratios[n <= c][-1]


def test_normalized_series_rejects_a_grid_of_another_run():
    run = weighted_sums(np.ones(50), np.ones(50))
    other = NormalizedGrid.build(np.arange(2, 52), NormalizerSpec(1.0, k0=1))
    with pytest.raises(ValueError):
        normalized_series(run, other)


# ----------------------------------------------------------- series partials

def harmonic(N):
    return float(sum(Fraction(1, k) for k in range(1, N + 1)))


def test_hilbert_partial_harmonic_checkpoints():
    n = 100
    ones = np.ones(n, dtype=np.complex128)
    norm = NormalizerSpec(1.0, k0=1)
    for N in (1, 3, 6, 50, 100):
        got = hilbert_partial(ones, ones, norm, N)
        assert got == pytest.approx(harmonic(N), rel=1e-14)
    assert hilbert_partial(ones, ones, norm, 3) == pytest.approx(11 / 6)


def test_hilbert_series_inclusive_convention():
    n = 50
    ones = np.ones(n, dtype=np.complex128)
    norm = NormalizerSpec(1.0, k0=1)
    run = hilbert_series(ones, ones, norm)
    assert run.convention == "inclusive"
    assert run.k_first == 1
    assert run.sum_at(1) == pytest.approx(1.0)
    assert run.sum_at(3) == pytest.approx(11 / 6)
    assert run.sum_at(50) == pytest.approx(harmonic(50), rel=1e-14)


def test_hilbert_partial_range_checks():
    ones = np.ones(10, dtype=np.complex128)
    norm = NormalizerSpec(1.0, k0=1)
    with pytest.raises(ValueError):
        hilbert_partial(ones, ones, norm, 11)
    with pytest.raises(ValueError):
        hilbert_partial(ones, ones, norm, 0)
    with pytest.raises(ValueError):
        hilbert_partial(ones, ones, norm, 5, k_first=0)  # below k0


@settings(max_examples=50, deadline=None)
@given(
    n=st.integers(2, 200),
    pick=st.integers(0, 3),
    seed=st.integers(0, 2**31),
)
def test_abel_decompose_matches_direct(n, pick, seed):
    """Summation by parts is an algebraic identity; both evaluations must
    agree to rounding for any weights, values and normalizer."""
    rng = np.random.default_rng(seed)
    norm = [
        NormalizerSpec(1.0, k0=1),
        NormalizerSpec(0.875, a=2.0, k0=3),
        NormalizerSpec(0.0, a=1.0, k0=3),
        NormalizerSpec(35 / 36, a=2.0, k0=3),
    ][pick]
    w = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    v = np.exp(2j * np.pi * rng.uniform(0, 1, n))
    N = int(rng.integers(norm.k0, norm.k0 + n))
    direct = hilbert_partial(w, v, norm, N)
    abel = abel_decompose(w, v, norm, N)
    assert abs(abel - direct) <= 1e-9 * max(1.0, abs(direct))


def test_abel_single_term():
    norm = NormalizerSpec(1.0, k0=1)
    w = np.array([2.0 + 1j])
    v = np.array([0.5 + 0.5j])
    assert abel_decompose(w, v, norm, 1) == pytest.approx(w[0] * v[0])


# --------------------------------------------------------- control integral

def test_control_integral_closed_form():
    for m, n, L in ((3, 10, 2.0), (5, 10**6, 1.5), (100, 200, 3.0)):
        want = oracles.adaptive_quad(
            lambda x: 1.0 / (x * math.log(1.0 / x) ** L), 1.0 / n, 1.0 / m
        )
        assert control_integral(m, n, L) == pytest.approx(want, abs=1e-10)


def test_control_integral_additivity():
    rng = np.random.default_rng(9)
    for _ in range(100):
        m = int(rng.integers(3, 1000))
        n = m + int(rng.integers(1, 1000))
        p = n + int(rng.integers(1, 10**6))
        L = float(rng.uniform(1.01, 4.0))
        lhs = control_integral(m, n, L) + control_integral(n, p, L)
        assert lhs == pytest.approx(control_integral(m, p, L), abs=1e-12)


def test_control_integral_domain():
    with pytest.raises(ValueError):
        control_integral(3, 10, 1.0)
    with pytest.raises(ValueError):
        control_integral(2, 10, 2.0)
    with pytest.raises(ValueError):
        control_integral(10, 10, 2.0)


# -------------------------------------------------------------- oscillation

def oscillating_run(n=1 << 12):
    ks = np.arange(0, n, dtype=np.int64)
    w = np.exp(2j * np.pi * 0.37 * ks)
    return weighted_sums(np.ones(n, dtype=np.complex128), w, k_first=0,
                         normalizer=NormalizerSpec(0.5, k0=1))


def test_oscillation_report_decomposition():
    run = oscillating_run()
    lad = BlockLadder.dyadic(2, 12)
    rep = oscillation_report(run, lad)
    assert rep.osc.size == lad.values().size - 1
    assert np.allclose(rep.cumulative_sq, np.cumsum(rep.osc**2))
    assert np.all(rep.grid_points == np.diff(lad.values()))
    chk = rep.check_decomposition()
    assert chk["passed"]
    assert chk["max_excess_ulps"] <= 8


def test_oscillation_anchor_values():
    run = oscillating_run()
    rep = oscillation_report(run, BlockLadder.dyadic(2, 12))
    norm = NormalizerSpec(0.5, k0=1)
    for j, n_j in enumerate(rep.ladder_n[:-1]):
        want = abs(run.sum_at(int(n_j))) / norm.values(np.array([n_j]))[0]
        assert rep.anchors[j] == pytest.approx(want, rel=1e-12)


def test_oscillation_block_maximum_direct():
    run = oscillating_run(256)
    norm = NormalizerSpec(0.5, k0=1)
    rep = oscillation_report(run, BlockLadder.dyadic(4, 8))
    # recompute block (16, 32] by brute force
    r = {int(n): run.sum_at(int(n)) / norm.values(np.array([n]))[0]
         for n in range(16, 33)}
    want = max(abs(r[n] - r[16]) for n in range(17, 33))
    assert rep.osc[0] == pytest.approx(want, rel=1e-12)


def test_weighted_cumulative_sq():
    run = oscillating_run()
    rep = oscillation_report(run, BlockLadder.dyadic(2, 12))
    assert np.allclose(rep.weighted_cumulative_sq(0.0), rep.cumulative_sq)
    j = rep.ladder_j[:-1].astype(np.float64)
    assert np.allclose(rep.weighted_cumulative_sq(2.0),
                       np.cumsum(j**2 * rep.osc**2))


def test_oscillation_requires_stored_ladder():
    run = oscillating_run(100)
    with pytest.raises(ValueError):
        oscillation_report(run, BlockLadder.dyadic(2, 8))  # 256 not stored
    with pytest.raises(ValueError):
        oscillation_report(weighted_sums(np.ones(100), np.ones(100)),
                           BlockLadder.dyadic(2, 6))  # no normalizer


# ----------------------------------------------------------- tail diameters

def test_cauchy_tail_report_convergent_series():
    n = 5000
    ones = np.ones(n, dtype=np.complex128)
    run = hilbert_series(ones, ones, NormalizerSpec(2.0, k0=1))
    rep = cauchy_tail_report(run, [10, 100, 1000])
    sups = [r["sup_diff"] for r in rep]
    assert sups[0] > sups[1] > sups[2]
    # tail beyond N0: sum_{k > N0} 1/k^2 ~ 1/N0
    assert sups[2] < 1.2e-3
    assert rep[0]["N0"] == 10
    with pytest.raises(ValueError):
        cauchy_tail_report(run, [6000])


def test_tail_diameter_matches_brute_force():
    """The last 20 values repeat one point, more often than the hull filter
    has directions: that tail has diameter 0, and the longer one keeps it."""
    vals = np.array([0.0, 1.0 + 1j, 2.0, 0.5 + 3j, -1.0 - 1j] + [4.0 + 2j] * 20)
    run = SeriesRun(k_first=1, n_grid=np.arange(1, 26), sums=vals,
                    convention="inclusive")
    rep = cauchy_tail_report(run, [1, 6])
    want = max(abs(a - b) for a in vals for b in vals)
    assert rep[0]["sup_diff"] == pytest.approx(want, rel=1e-12)
    assert rep[1]["sup_diff"] == 0.0


def _brute_diameter(points) -> float:
    """All-pairs diameter in Python integers: exact for integer points."""
    xy = [(int(p.real), int(p.imag)) for p in points]
    best = max(((ax - bx) ** 2 + (ay - by) ** 2 for ax, ay in xy for bx, by in xy),
               default=0)
    return math.sqrt(best)


_coord = st.integers(min_value=-9, max_value=9)
_cloud = st.lists(st.tuples(_coord, _coord), max_size=60)
_collinear = st.builds(
    lambda a, d, ts: [(a[0] + t * d[0], a[1] + t * d[1]) for t in ts],
    st.tuples(_coord, _coord), st.tuples(_coord, _coord),
    st.lists(st.integers(-6, 6), max_size=20))
_walk = st.lists(st.tuples(st.integers(-2, 2), st.integers(-2, 2)),
                 max_size=80).map(
    lambda steps: np.cumsum(np.array(steps or [(0, 0)]), axis=0).tolist())
# the 108 integer points on the circle x^2 + y^2 = 1105^2, all hull vertices
_RING = sorted({(x, sy * math.isqrt(1105**2 - x * x)) for x in range(-1105, 1106)
                for sy in (1, -1) if math.isqrt(1105**2 - x * x) ** 2 == 1105**2 - x * x})
_ring = st.lists(st.booleans(), min_size=len(_RING), max_size=len(_RING)).map(
    lambda keep: [p for p, k in zip(_RING, keep) if k])
# nearly collinear: (t, 3t + e) with e in {-1, 0, 1}, more points than the
# hull filter's 16 directions; |t| <= 10^7 keeps every cross product and
# squared distance below 2^53, so they stay exact
_near_line = st.lists(st.tuples(st.integers(-10**7, 10**7), st.sampled_from((-1, 0, 1))),
                      min_size=17, max_size=300).map(
    lambda te: [(t, 3 * t + e) for t, e in te])


@given(st.one_of(_cloud, _collinear, _walk, _ring, _near_line))
@settings(max_examples=300, deadline=None)
def test_diameter_matches_all_pairs_exactly(xy):
    """On small integer coordinates every operation is exact, so the
    antipodal-pair diameter must equal the all-pairs maximum bit for bit:
    duplicates, collinear and nearly collinear sets, 0-3 points, walks and
    circles included."""
    points = np.array([complex(x, y) for x, y in xy], dtype=np.complex128)
    assert _diameter(points) == _brute_diameter(points)


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_tail_sweep_matches_independent_diameters(seed):
    """The nested sweep returns, for every start, the same bits as an
    independent diameter of that suffix, in the caller's order."""
    rng = np.random.default_rng(seed)
    n = 3000
    steps = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    run = SeriesRun(k_first=1, n_grid=np.arange(1, n + 1), sums=np.cumsum(steps),
                    convention="inclusive")
    starts = [2000, 1, 64, 2000, 2999, 7, 3000, 64, 500]
    rep = cauchy_tail_report(run, starts)
    assert [r["N0"] for r in rep] == starts
    for r in rep:
        i = r["N0"] - 1
        assert r["points"] == n - i
        assert r["sup_diff"] == _diameter(run.sums[i:])


def test_diameter_of_many_hull_vertices_is_fast():
    """10^5 points on a circle are all hull vertices; an all-pairs loop over
    them would take minutes."""
    points = np.exp(2j * np.pi * np.arange(100_000) * (math.sqrt(2) - 1))
    t0 = time.perf_counter()
    d = _diameter(points)
    assert time.perf_counter() - t0 < 5.0
    assert d == pytest.approx(2.0, abs=1e-8)


# ------------------------------------------------------------- maximal norm

def test_maximal_norm_single_atom_direct():
    rng = np.random.default_rng(17)
    n = 300
    w = rng.standard_normal(n)
    u = np.arange(n, dtype=np.int64)
    t = 0.2137
    norm = NormalizerSpec(1.0, k0=1)
    ns = np.array([10, 50, 100, 300], dtype=np.int64)
    meas = SpectralMeasure(atoms=((t, 1.7),))
    got = maximal_norm(w, u, norm, meas, ns)
    pref = oracles.prefix_sums((w * np.exp(2j * np.pi * t * u)).tolist())
    best = max(abs(pref[int(N) - 1]) / float(N) for N in ns)
    assert got == pytest.approx(math.sqrt(1.7) * best, rel=1e-9)


def test_maximal_norm_dominates_single_n():
    """The grid max over several N dominates any single-N spectral norm."""
    rng = np.random.default_rng(23)
    n = 200
    w = rng.standard_normal(n)
    u = np.cumsum(rng.integers(1, 5, size=n)).astype(np.int64)
    norm = NormalizerSpec(1.0, k0=1)
    meas = SpectralMeasure(atoms=((0.1, 0.5), (0.7, 1.0)))
    ns = np.array([20, 80, 200], dtype=np.int64)
    full = maximal_norm(w, u, norm, meas, ns)
    for N in ns:
        single = maximal_norm(w, u, norm, meas, np.array([N], dtype=np.int64))
        assert single <= full + 1e-12


def test_maximal_norm_density_matches_direct_sums():
    """Uniform density: the mean over the 2**16 grid of max_N |V_N / A(N)|^2,
    with every V_N(j / 2**16) summed directly."""
    rng = np.random.default_rng(29)
    w = rng.standard_normal(40) + 1j * rng.standard_normal(40)
    u = np.cumsum(rng.integers(1, 9000, size=40)).astype(np.int64)
    norm = NormalizerSpec(0.5, k0=1)
    ns = np.array([5, 17, 40], dtype=np.int64)
    got = maximal_norm(w, u, norm, SpectralMeasure.uniform(), ns)
    t = np.arange(1 << 16) / (1 << 16)
    terms = w * np.exp(2j * np.pi * np.outer(t, u))
    best = np.max([np.abs(terms[:, :n].sum(axis=1)) / n**0.5 for n in ns], axis=0)
    assert got == pytest.approx(math.sqrt(np.mean(best**2)), rel=1e-12)


def test_maximal_norm_density_rejects_negative_indices():
    u = np.array([3, -1, 4], dtype=np.int64)
    with pytest.raises(ValueError, match="nonnegative"):
        maximal_norm(np.ones(3), u, NormalizerSpec(1.0, k0=1),
                     SpectralMeasure.uniform(), np.array([3], dtype=np.int64))


def test_maximal_norm_validation():
    w = np.ones(10)
    u = np.arange(10, dtype=np.int64)
    norm = NormalizerSpec(1.0, k0=1)
    meas = SpectralMeasure.uniform()
    with pytest.raises(ValueError):
        maximal_norm(w, u, norm, meas, np.array([11], dtype=np.int64))
    with pytest.raises(TypeError):
        maximal_norm(w, np.arange(10.0), norm, meas, np.array([5]))


# ------------------------------------------------------ splitting exponents

def test_split_level_values():
    k = np.array([2.0, math.e**2])
    got = split_level(k, epsilon=0.5, delta=1.0)
    assert got[0] == pytest.approx(math.sqrt(2.0) / math.log(2.0))
    assert got[1] == pytest.approx(math.e / 2.0)
    with pytest.raises(ValueError):
        split_level(k, epsilon=1.0, delta=1.0)
    with pytest.raises(ValueError):
        split_level(np.array([1.0]), epsilon=0.5, delta=1.0)


def test_epsilon_for_beta():
    assert epsilon_for_beta(1.0) == pytest.approx(0.5)
    assert epsilon_for_beta(0.75) == pytest.approx(1.0 / 3.0)
    # round trip: beta = 1 / (2 (1 - eps))
    eps = epsilon_for_beta(0.9)
    assert 1.0 / (2.0 * (1.0 - eps)) == pytest.approx(0.9)
    with pytest.raises(ValueError):
        epsilon_for_beta(0.5)
