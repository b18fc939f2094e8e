"""Running sums, normalizers, series partials, ladders, oscillation."""

import cmath
import json
import math
import time
import tracemalloc
from fractions import Fraction
from functools import partial

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from ergosum._kernels import _BLOCK, BlockSource, array_blocks, pairwise_sum, prefix_sums
from ergosum.averages import (
    DENSE_LIMIT,
    GRID_RATIO,
    BlockLadder,
    LadderMaxima,
    NormalizedGrid,
    NormalizedSeries,
    NormalizerSpec,
    SeriesRun,
    _log_mean,
    abel_decompose,
    cauchy_tail_report,
    control_integral,
    hilbert_partial,
    hilbert_series,
    maximal_norm,
    normalized_series,
    orbit_terms,
    oscillation_report,
    read_blocks,
    run_grid,
    spectral_l2_norm,
    storage_grid,
    weighted_sums,
)
from ergosum.dynamics import Observable, OrbitPoint, SpectralMeasure, SystemModel, orbit_eval
from ergosum.indices import IndexSpec, gen_indices
from ergosum.trigsum import DEFAULT_GRID_CAP, SCALED_GRID_CAP, eval_sum, sup_envelope
from ergosum.weights import WeightSpec, gen_weights
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
    def monotone(norm, lo, hi):
        return NormalizedGrid.build(np.arange(lo, hi + 1), norm).monotone
    assert monotone(NormalizerSpec(1.0, k0=1), 1, 1000)
    # N^0 log^2 N loglog^{-3} N dips before growing
    assert not monotone(NormalizerSpec(0.0, a=2.0, b=-3.0, k0=16), 16, 40)
    assert monotone(NormalizerSpec(0.0, a=1.0, k0=3), 3, 10**6)


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
    run = weighted_sums(w, v, k_first=2)
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
    run = weighted_sums(w, v, k_first=k_first)
    ora = oracles.prefix_sums((w * v).tolist())
    for i, ngrid in enumerate(run.n_grid):
        assert complex(run.sums[i]) == pytest.approx(
            ora[int(ngrid) - k_first - 1], abs=1e-12
        )


def test_weighted_sums_grid_validation():
    v = np.ones(10, dtype=np.complex128)
    with pytest.raises(ValueError):
        weighted_sums(np.ones(9), v)
    with pytest.raises(ValueError):
        weighted_sums(np.ones(10), v, k_first=2,
                      n_grid=np.array([2]))  # at k_first, not after
    with pytest.raises(ValueError):
        weighted_sums(np.ones(10), v, n_grid=np.array([11]))  # beyond range


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
    run = weighted_sums(np.ones(n), v, k_first=0)
    ns = normalized_series(run, NormalizerSpec(0.7, k0=1))
    # |S_N| = N so ratios = N^0.3: slope of log ratio vs log N is 0.3
    assert ns.slope() == pytest.approx(0.3, abs=1e-6)
    assert ns.value_at(100) == pytest.approx(100**0.3)
    assert ns.value_at(101) == pytest.approx(101**0.3)
    assert ns.tail_max(4000) == pytest.approx(4096**0.3)
    assert ns.grid.monotone
    with pytest.raises(KeyError):
        ns.value_at(0)
    with pytest.raises(ValueError):
        ns.tail_max(5000)


def test_normalized_series_requires_normalizer():
    run = weighted_sums(np.ones(8), np.ones(8))
    with pytest.raises(TypeError):
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
    run = weighted_sums(steps, np.ones(len(steps)), k_first=0)
    k0 = min(max(k0, 2 if a else 1), run.n_max)
    norm = NormalizerSpec(gamma, a=a, k0=k0)
    grid = NormalizedGrid.build(run.n_grid, norm)
    by_grid, by_spec = normalized_series(run, grid), normalized_series(run, norm)
    mask = run.n_grid >= k0
    n = run.n_grid[mask]
    ratios = np.abs(run.sums[mask]) / norm.values(n)
    for ns in (by_grid, by_spec):
        assert ns.grid.n_grid.tobytes() == n.tobytes()
        assert ns.ratios.tobytes() == ratios.tobytes()
        assert np.float64(ns.slope()).tobytes() == np.float64(
            _slope_reference(n, ratios, gamma)).tobytes()
        for c in (k0, int(n[len(n) // 2]), run.n_max):
            assert ns.tail_max(c) == ratios[n >= c].max()
            assert ns.value_at(c) == ratios[n <= c][-1]


@pytest.mark.parametrize("size", [1, 7, 8, 129, 4096, _BLOCK, _BLOCK + 1, 3 * _BLOCK + 13, 10**6])
def test_log_mean_is_numpys_mean_of_the_logs(size):
    """_log_mean sums the logs block by block on numpy's pairwise split,
    so its bits are those of np.log(r).mean() at every depth of it."""
    r = np.random.default_rng(size).lognormal(0.0, 3.0, size)
    assert np.float64(_log_mean(r)).tobytes() == np.log(r).mean().tobytes()


@pytest.mark.parametrize("read", [
    lambda run: run.sum_at(8),
    lambda run: normalized_series(run, NormalizerSpec(1.0, k0=1)),
    lambda run: oscillation_report(run, BlockLadder.dyadic(1, 5), NormalizerSpec(1.0, k0=1)),
    lambda run: cauchy_tail_report(run, [8]),
], ids=["sum_at", "normalized_series", "oscillation_report", "cauchy_tail_report"])
def test_a_run_whose_sums_went_to_readers_refuses_to_be_read(read):
    """A run that fed its sums to block readers keeps none: every reader
    of its sums says so, not an AttributeError or TypeError from None."""
    run = weighted_sums(np.ones(40), np.ones(40), readers=[lambda i, block: None])
    assert run.sums is None
    with pytest.raises(ValueError, match="went to block readers and were not kept"):
        read(run)


def _oscillation_reference(run, ladder, norm):
    """Anchors, maxima and worst excess in ulps over the complex ratios of
    the whole ladder range, block by block, written out."""
    pos = np.searchsorted(run.n_grid, ladder.values())
    r = run.sums[pos[0] : pos[-1] + 1] / norm.values(run.n_grid[pos[0] : pos[-1] + 1])
    at = pos - pos[0]
    anchors = np.abs(r[at[:-1]])
    osc, worst = np.zeros(at.size - 1), 0.0
    for j in range(osc.size):
        seg = r[at[j] + 1 : at[j + 1] + 1]
        osc[j] = float(np.abs(seg - r[at[j]]).max())
        top = anchors[j] + osc[j]
        worst = max(worst, (float(np.abs(seg).max()) - top) / max(np.spacing(top), 5e-324))
    return anchors, osc, worst


@given(st.integers(min_value=0, max_value=2**32 - 1),
       st.integers(min_value=_BLOCK + 1, max_value=5 * _BLOCK // 2),
       st.integers(min_value=0, max_value=3000),
       st.sampled_from([(0.0, 0.0), (0.75, 0.0), (1.0, 1.0), (0.5, -1.0)]),
       st.integers(min_value=2, max_value=40_000),
       st.sampled_from(["steps", "phases", "spikes"]))
@settings(max_examples=12, deadline=None)
@example(seed=1, n_terms=_BLOCK + 1, k_first=0, shape=(0.0, 0.0), k0=2, terms="steps")
def test_block_readers_match_the_array_forms(seed, n_terms, k_first, shape, k0, terms):
    """Ratios, slope, tail maxima, values and the oscillation report are
    the same bits whether a run's sums go to the block readers as they are
    summed (weighted_sums' readers), are read from the stored array by
    normalized_series and oscillation_report, are read in blocks cut
    anywhere, or are written out whole.
    Runs span two or three 2**16-N blocks at shifted offsets; gamma = 0
    regresses on log log N; k0 can lie above the first stored N; and
    integer steps of -1, 0 and 1 make some |S_N| exactly 0, so the slope's
    masked path runs. Spikes at k = 2**m put the largest |r(N) - r(N_j)|
    of a dyadic block first, where random terms put it last more often."""
    rng = np.random.default_rng(seed)
    if terms == "steps":
        w = rng.integers(-1, 2, n_terms).astype(np.complex128)
    elif terms == "phases":
        w = np.exp(2j * np.pi * rng.random(n_terms)) * rng.exponential(1.0, n_terms)
    else:
        w = np.zeros(n_terms, dtype=np.complex128)
        spikes = 2 ** np.arange(20) - k_first
        w[spikes[(spikes >= 0) & (spikes < n_terms)]] = 1000.0
    run = weighted_sums(w, np.ones(n_terms), k_first=k_first)
    gamma, a = shape
    j_hi = run.n_max.bit_length() - 1
    k0 = min(max(k0, int(run.n_grid[0])), 1 << (j_hi - 1))  # two ladder values at least
    norm = NormalizerSpec(gamma, a=a, k0=k0)
    grid = NormalizedGrid.build(run.n_grid, norm)
    ladder = BlockLadder.dyadic((k0 - 1).bit_length(), j_hi)
    streamed = NormalizedSeries(grid, np.empty(grid.n_grid.size))
    maxima = LadderMaxima(run.n_grid, ladder, grid)
    kept = weighted_sums(w, np.ones(n_terms), k_first, run.n_grid, [streamed.read, maxima])
    assert kept.sums is None and kept.n_grid.tobytes() == run.n_grid.tobytes()
    # any partition will do: blocks that start or end at a ladder value,
    # one-N blocks, and cuts anywhere
    pos = np.searchsorted(run.n_grid, ladder.values())
    cuts = np.unique(np.concatenate([pos, pos + 1, pos + 2, rng.integers(1, run.n_grid.size, 5)]))
    split = NormalizedSeries(grid, np.empty(grid.n_grid.size))
    split_maxima = LadderMaxima(run.n_grid, ladder, grid)
    read_blocks(np.split(run.sums, cuts), [split.read, split_maxima])
    n = grid.n_grid
    ratios = np.abs(run.sums[grid.start :]) / norm.values(n)
    slope = np.float64(_slope_reference(n, ratios, gamma)).tobytes()
    for ns in (normalized_series(run, grid), streamed, split):
        assert ns.ratios.tobytes() == ratios.tobytes()
        for c in (k0, int(n[n.size // 2]), int(n[-1])):
            assert ns.value_at(c) == ratios[n <= c][-1]
            assert ns.tail_max(c) == ratios[n >= c].max()
        assert np.float64(ns.slope()).tobytes() == slope
        assert ns.ratios.tobytes() == ratios.tobytes()  # the slope keeps them
    anchors, osc, worst = _oscillation_reference(run, ladder, norm)
    for rep in (oscillation_report(run, ladder, grid), oscillation_report(maxima, ladder, grid),
                oscillation_report(split_maxima, ladder, grid)):
        assert rep.anchors.tobytes() == anchors.tobytes()
        assert rep.osc.tobytes() == osc.tobytes()
        assert rep.decomposition["max_excess_ulps"] == worst
        assert rep.grid_points.tolist() == np.diff(ladder.values()).tolist()


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


def test_orbit_values_as_blocks_match_the_array_form():
    """weighted_sums and hilbert_series read an array of orbit values as
    its slices: handed an iterator of its blocks instead, over 3 blocks
    and 17 terms, with the weights as an array or a BlockSource, they draw
    each block once, in order, and store the same bits, and every form
    equals prefix_sums of orbit_terms on the whole arrays."""
    n, k_first = 3 * _BLOCK + 17, 5
    rng = np.random.default_rng(21)
    w = np.exp(2j * np.pi * rng.random(n))
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    norm = NormalizerSpec(0.5, k0=3)
    for inclusive in (False, True):
        drawn = []

        def forms():
            yield w, v
            for weights in (w, BlockSource(n, array_blocks(w))):
                yield weights, (drawn.append(i) or v[i : i + _BLOCK]
                                for i in range(0, n, _BLOCK))
        if inclusive:
            runs = [hilbert_series(a, b, norm, k_first) for a, b in forms()]
            terms = orbit_terms(w, v, norm, k_first)
        else:
            runs = [weighted_sums(a, b, k_first) for a, b in forms()]
            terms = orbit_terms(w, v)
        grid = run_grid(k_first, n, inclusive)
        assert drawn == 2 * list(range(0, n, _BLOCK))
        want = prefix_sums(array_blocks(terms), grid - k_first + inclusive).tobytes()
        for run in runs:
            assert run.n_grid.tobytes() == grid.tobytes()
            assert run.sums.tobytes() == want
            assert run.convention == ("inclusive" if inclusive else "exclusive")


def test_misaligned_orbit_values_are_refused_not_broadcast():
    """A block of orbit values shorter than its block of weights raises
    ValueError, even one term that np.multiply would broadcast, and so
    does an orbit-value array of another length."""
    norm = NormalizerSpec(1.0, k0=1)
    for short in (np.ones(1), np.ones(4)):
        with pytest.raises(ValueError):
            weighted_sums(np.ones(5), iter([short]))
        with pytest.raises(ValueError):
            hilbert_series(np.ones(5), iter([short]), norm)
        with pytest.raises(ValueError):
            abel_decompose(np.ones(5), iter([short]), norm, 5)
    for other in (np.ones(1), np.ones(6)):
        with pytest.raises(ValueError):
            weighted_sums(np.ones(5), other)


def test_run_grid_conventions():
    assert run_grid(3, 5).tolist() == [4, 5, 6, 7, 8]
    assert run_grid(3, 5, inclusive=True).tolist() == [3, 4, 5, 6, 7]
    with pytest.raises(ValueError):
        hilbert_series(np.ones(4), np.ones(4), NormalizerSpec(1.0, k0=3), k_first=2)
    with pytest.raises(ValueError):  # N = k_first is no exclusive end
        hilbert_series(np.ones(4), np.ones(4), NormalizerSpec(1.0, k0=1),
                       n_grid=np.array([5]))


_ORBIT_WEIGHTS = [WeightSpec(kind="constant"), WeightSpec(kind="power_phase", delta=0.5),
                  WeightSpec(kind="iid_uniform_phase", seed=4)]
_ORBIT_INDICES = [IndexSpec(kind="identity"), IndexSpec(kind="monomial", d=2),
                  IndexSpec(kind="primes")]
_ORBIT_THETAS = [Fraction(987, 1597), 0.3819660112501051]
_EPS = float(np.finfo(np.float64).eps)


def _e(x: Fraction) -> complex:
    """e(x) = exp(2 i pi x), with x reduced mod 1 exactly first."""
    return cmath.exp(2j * math.pi * float(x - math.floor(x)))


@settings(max_examples=50, deadline=None)
@example(wspec=WeightSpec(kind="constant"), ispec=IndexSpec(kind="identity"),
         theta=Fraction(987, 1597), x0=0.875, terms={1: (0.0, 5e-324)},
         k_first=1, n=1, data=None)
@given(wspec=st.sampled_from(_ORBIT_WEIGHTS), ispec=st.sampled_from(_ORBIT_INDICES),
       theta=st.sampled_from(_ORBIT_THETAS),
       x0=st.one_of(st.floats(0.0, 1.0, exclude_max=True),
                    st.integers(0, 96).map(lambda a: [a, 97])),
       terms=st.dictionaries(
           st.integers(-4, 4).filter(bool),
           st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)), min_size=1, max_size=3),
       k_first=st.integers(1, 5), n=st.integers(1, 2 * _BLOCK + 17), data=st.data())
def test_rotation_sums_match_the_trig_sum_engine(wspec, ispec, theta, x0, terms,
                                                 k_first, n, data):
    """For a rotation by theta and f = sum_m c_m e(m x), the orbit sum is
    S_N = sum_m c_m e(m x0) V_N(m theta), V_N = eval_sum over the same
    (w_k, u_k), k_first <= k < N: two engines, one number. A float theta
    enters the reference as its exact Fraction times m, so both reduce
    m theta u exactly.

    The bound is N eps (16 (M + 2) sum|c_m| + 2 max_{j <= N} |S_j|), with
    M = max |m| and |w_k| <= 1. Each orbit value is off by at most about
    (3 pi M + 4) eps sum|c_m|: its position by 2 ulps (the reduction and
    x0's addition), m x by M more, then e(.) and the sum over modes. The
    reference's terms and pairwise sum take at most (log2 N + 20) eps/2 per
    unit of N sum|c_m|. The prefix kernel adds each term to a running sum
    of size at most max |S_j|, with one rounding of that size each.

    A subnormal c_m makes the products that carry it underflow, each off
    by up to 2**-1075 absolutely, which no relative bound covers (a c_m of
    5e-324 gives a bound of 0 above). A term takes at most 4 (t + 1) <= 28
    real products per mode, with t <= 6 digit tables for int64 indices,
    and the reference 8 per mode, so the bound adds
    2**-1075 (32 (N - k_first) + 8) per mode.

    Within that bound, |S_N| <= sum|c_m| sup_theta |V_N(theta)|, checked
    against sup_envelope's upper at N <= 4096 with span D <= 2**16. There
    its default grid has at least 16 D points, so the estimate is never
    aliased."""
    f = Observable(kind="finite_fourier", terms=[[m, re, im] for m, (re, im) in terms.items()])
    point = OrbitPoint.rotation(x0)
    system = SystemModel.rotation(theta)
    w = gen_weights(wspec, k_first, k_first + n)
    u = gen_indices(ispec, k_first, k_first + n)
    run = weighted_sums(w, map(partial(orbit_eval, system, f, point), array_blocks(u)), k_first)
    sizes = np.maximum.accumulate(np.abs(run.sums))
    c_l1 = sum(abs(c) for _, c in f.terms)
    top = max(abs(m) for m, _ in f.terms)
    x0_exact = Fraction(point.x0)
    # an explicit example passes data=None and checks the last stored N alone
    picks = [] if data is None else data.draw(
        st.lists(st.integers(0, run.n_grid.size - 1), min_size=1, max_size=8))
    for i in sorted(set(picks + [run.n_grid.size - 1])):
        N = int(run.n_grid[i])
        count = N - k_first
        want = sum(c * _e(m * x0_exact)
                   * eval_sum(w[:count], u[:count], Fraction(theta) * m)
                   for m, c in f.terms)
        bound = (count * _EPS * (16 * (top + 2) * c_l1 + 2 * float(sizes[i]))
                 + math.ldexp(8 * len(f.terms) * (4 * count + 1), -1075))
        assert abs(run.sums[i] - want) <= bound, (N, abs(run.sums[i] - want), bound)
        if count <= 4096 and u[count - 1] - u[0] <= 1 << 16:
            sup = sup_envelope(w[:count], u[:count])
            assert not sup.aliased
            assert abs(run.sums[i]) <= c_l1 * sup.upper + bound, (N, sup)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 3 * _BLOCK // 2), seed=st.integers(0, 2**31), k0=st.integers(1, 5))
def test_hilbert_partial_is_the_stored_series_value(n, seed, k0):
    """hilbert_partial(N) is the value hilbert_series stores at N, bit for
    bit, whichever N and whatever other N the series stores."""
    rng = np.random.default_rng(seed)
    w = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    v = np.exp(2j * np.pi * rng.random(n))
    norm = NormalizerSpec(0.75, k0=k0)
    run = hilbert_series(w, v, norm)
    for N in {k0, k0 + n // 2, k0 + n - 1}:
        got = hilbert_partial(w, v, norm, N)
        assert np.complex128(got).tobytes() == np.complex128(run.sum_at(N)).tobytes()


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
    return weighted_sums(w, np.ones(n, dtype=np.complex128), k_first=0)


_OSC_NORM = NormalizerSpec(0.5, k0=1)


def test_oscillation_report_decomposition():
    """rep.decomposition against |r(N)| - (anchor_j + osc_j), in units in
    the last place of the right side, recomputed block by block from
    run.sums and NormalizerSpec.values. Under A = 1, heavy-tailed real
    weights carry r(N) past twice its anchor, where r(N) - r(N_j) rounds,
    and at this seed one block's excess is a whole ulp."""
    rng = np.random.default_rng(11)
    run = weighted_sums(np.exp(rng.uniform(0, 20, 4096)), np.ones(4096), k_first=0)
    norm, lad = NormalizerSpec(0.0, k0=2), BlockLadder.dyadic(1, 12)
    rep = oscillation_report(run, lad, norm)
    assert rep.osc.size == lad.values().size - 1
    assert np.allclose(rep.cumulative_sq, np.cumsum(rep.osc**2))
    assert np.all(rep.grid_points == np.diff(lad.values()))
    worst = 0.0
    for n_lo, n_hi in zip(lad.values()[:-1], lad.values()[1:]):
        i, k = np.searchsorted(run.n_grid, [n_lo, n_hi])
        r = run.sums[i : k + 1] / norm.values(run.n_grid[i : k + 1])
        top = np.abs(r[:1])[0] + np.abs(r[1:] - r[0]).max()
        worst = max(worst, (np.abs(r[1:]).max() - top) / np.spacing(top))
    assert worst > 0
    assert rep.decomposition == {"passed": True, "max_excess_ulps": worst}


def test_oscillation_anchor_values():
    run = oscillating_run()
    rep = oscillation_report(run, BlockLadder.dyadic(2, 12), _OSC_NORM)
    for j, n_j in enumerate(rep.ladder_n[:-1]):
        want = abs(run.sum_at(int(n_j))) / _OSC_NORM.values(np.array([n_j]))[0]
        assert rep.anchors[j] == pytest.approx(want, rel=1e-12)


def test_oscillation_block_maximum_direct():
    run = oscillating_run(256)
    rep = oscillation_report(run, BlockLadder.dyadic(4, 8), _OSC_NORM)
    # recompute block (16, 32] by brute force
    r = {int(n): run.sum_at(int(n)) / _OSC_NORM.values(np.array([n]))[0]
         for n in range(16, 33)}
    want = max(abs(r[n] - r[16]) for n in range(17, 33))
    assert rep.osc[0] == pytest.approx(want, rel=1e-12)


def test_oscillation_requires_stored_ladder():
    run = oscillating_run(100)
    with pytest.raises(ValueError):
        oscillation_report(run, BlockLadder.dyadic(2, 8), _OSC_NORM)  # 256 not stored
    with pytest.raises(ValueError):  # 4 lies below k0
        oscillation_report(run, BlockLadder.dyadic(2, 6), NormalizerSpec(0.5, k0=5))
    with pytest.raises(ValueError):
        oscillation_report(run, BlockLadder.dyadic(2, 6),
                           NormalizedGrid.build(np.arange(2, 102), _OSC_NORM))


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


def _diameter(points) -> float:
    """The diameter cauchy_tail_report gives for one tail of every point."""
    run = SeriesRun(k_first=1, n_grid=np.arange(1, len(points) + 1), sums=points,
                    convention="inclusive")
    return cauchy_tail_report(run, [1])[0]["sup_diff"]


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
    assume(xy)  # a stored tail holds at least one point
    points = np.array([complex(x, y) for x, y in xy], dtype=np.complex128)
    assert _diameter(points) == _brute_diameter(points)


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_tail_sweep_matches_independent_diameters(seed):
    """The nested sweep returns, for every start, the same bits as a report
    of that start alone, whose one tail is one independent hull, in the
    caller's order."""
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
        assert r["sup_diff"] == cauchy_tail_report(run, [r["N0"]])[0]["sup_diff"]


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
    """Uniform density: the mean of max_N |V_N / A(N)|^2 over the grid of
    L = next_pow2(D + 1) = 2**18 points that the index span D sets, with
    every V_N(j / L) summed directly (phases j u_k mod L in integers)."""
    rng = np.random.default_rng(29)
    w = rng.standard_normal(40) + 1j * rng.standard_normal(40)
    u = np.cumsum(rng.integers(1, 9000, size=40)).astype(np.int64)
    L = 1 << 18
    assert L // 2 <= int(u[-1] - u[0]) < L
    norm = NormalizerSpec(0.5, k0=1)
    ns = np.array([5, 17, 40], dtype=np.int64)
    got = maximal_norm(w, u, norm, SpectralMeasure.uniform(), ns)
    j = np.arange(L, dtype=np.int64)
    v_n = np.zeros(L, dtype=np.complex128)
    best = np.zeros(L)
    lo = 0
    for n in ns:
        for k in range(lo, n):
            v_n += w[k] * np.exp(2j * np.pi * ((j * u[k]) % L) / L)
        lo = n
        best = np.maximum(best, np.abs(v_n) / n**0.5)
    assert got == pytest.approx(math.sqrt(np.mean(best**2)), rel=1e-12)


def test_spectral_norms_size_the_density_grid_from_the_index_span():
    """Indices 2**16 apart all fold onto theta = 0 of a 2**16-point grid,
    which would give |V| = 10 everywhere; on the span-sized grid both norms
    give Parseval's sqrt(10). A span of 2**26 needs a grid past the cap."""
    w = np.ones(10)
    u = (1 << 16) * np.arange(10, dtype=np.int64)
    uniform = SpectralMeasure.uniform()
    one = NormalizerSpec(0.0, k0=1)
    assert spectral_l2_norm(w, u, 1.0, uniform) == pytest.approx(math.sqrt(10), rel=1e-12)
    assert maximal_norm(w, u, one, uniform, [10]) == pytest.approx(math.sqrt(10), rel=1e-12)
    far = np.array([0, SCALED_GRID_CAP], dtype=np.int64)
    with pytest.raises(ValueError, match="span"):
        spectral_l2_norm(np.ones(2), far, 1.0, uniform)
    with pytest.raises(ValueError, match="span"):
        maximal_norm(np.ones(2), far, one, uniform, [1, 2])
    # atoms need no grid
    atom = SpectralMeasure(atoms=((0.25, 1.0),))
    assert spectral_l2_norm(np.ones(2), far, 1.0, atom) == pytest.approx(2.0, rel=1e-15)


def test_maximal_norm_refuses_a_density_grid_past_the_cap_before_allocating():
    """A span of DEFAULT_GRID_CAP needs a grid of 2 DEFAULT_GRID_CAP points,
    about 470 MB at 56 bytes a point: the norm raises with no grid made."""
    far = np.array([0, DEFAULT_GRID_CAP], dtype=np.int64)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="span"):
            maximal_norm(np.ones(2), far, NormalizerSpec(0.0, k0=1), SpectralMeasure.uniform(),
                         [1, 2])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_maximal_norm_density_rejects_negative_indices():
    """The input check of eval_sum, with or without a density."""
    u = np.array([3, -1, 4], dtype=np.int64)
    for meas in (SpectralMeasure.uniform(), SpectralMeasure(atoms=((0.3, 1.0),))):
        with pytest.raises(ValueError, match="nonnegative"):
            maximal_norm(np.ones(3), u, NormalizerSpec(1.0, k0=1), meas,
                         np.array([3], dtype=np.int64))


@settings(max_examples=50, deadline=None)
@given(n=st.integers(1, 40), data=st.data(),
       atoms=st.lists(st.tuples(st.floats(0.0, 1.0, exclude_max=True), st.floats(0.01, 4.0)),
                      max_size=3, unique_by=lambda a: a[0]),
       density=st.integers(0, 4).flatmap(
           lambda e: st.lists(st.floats(0.0, 4.0), min_size=1 << e, max_size=1 << e)))
def test_spectral_norm_within_the_sup_envelope(n, data, atoms, density):
    """For unitary U, ||sum_k w_k U^{u_k} f|| <= sup_theta |V(theta)| ||f||,
    where ||f||^2 = mu_f([0, 1)): every atom and every density grid point
    sees |V| <= sup |V| <= sup_envelope's upper."""
    w = np.array(data.draw(st.lists(st.complex_numbers(max_magnitude=2.0), min_size=n,
                                    max_size=n)), dtype=np.complex128)
    # spans up to 2**17, each bit length equally likely: a span D costs a
    # sup_envelope grid of about 16 D points
    top = 1 << data.draw(st.integers(0, 17))
    offsets = data.draw(st.lists(st.integers(0, top), min_size=n, max_size=n))
    u = data.draw(st.integers(0, 1 << 20)) + np.sort(np.array(offsets, dtype=np.int64))
    density = np.array(density) + (0.0 if atoms else 0.5)  # positive total mass
    meas = SpectralMeasure(atoms=tuple(atoms), density=density)
    got = spectral_l2_norm(w, u, 1.0, meas)
    cap = sup_envelope(w, u).upper * math.sqrt(meas.total_mass())
    assert got <= cap * (1 + 1e-12)


def test_maximal_norm_validation():
    w = np.ones(10)
    u = np.arange(10, dtype=np.int64)
    norm = NormalizerSpec(1.0, k0=1)
    meas = SpectralMeasure.uniform()
    with pytest.raises(ValueError):
        maximal_norm(w, u, norm, meas, np.array([11], dtype=np.int64))
    with pytest.raises(TypeError):
        maximal_norm(w, np.arange(10.0), norm, meas, np.array([5]))
