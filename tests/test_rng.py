"""Counter-based generator: pure function of (seed, counter)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ergosum import _rng
from ergosum.dynamics import Observable, OrbitPoint, SystemModel, orbit_eval


def test_raw64_is_a_pure_function_of_seed_and_counter():
    a = _rng.raw64(42, np.arange(100, dtype=np.int64))
    b = _rng.raw64(42, np.arange(100, dtype=np.int64))
    assert np.array_equal(a, b)
    c = _rng.raw64(43, np.arange(100, dtype=np.int64))
    assert not np.array_equal(a, c)


def test_raw64_range_independence():
    """Chunked generation must splice into the full stream bit for bit."""
    full = _rng.raw64(5, np.arange(0, 1000, dtype=np.int64))
    lo = _rng.raw64(5, np.arange(0, 400, dtype=np.int64))
    hi = _rng.raw64(5, np.arange(400, 1000, dtype=np.int64))
    assert np.array_equal(full, np.concatenate([lo, hi]))


_M64 = (1 << 64) - 1


def _splitmix(z: int) -> int:
    """The SplitMix64 finalizer on one Python integer."""
    z = ((z ^ (z >> 30)) * _rng._MIX1) & _M64
    z = ((z ^ (z >> 27)) * _rng._MIX2) & _M64
    return z ^ (z >> 31)


def test_in_place_mixer_matches_python_integers_and_keeps_the_counters():
    """The in-place rounds give the integer SplitMix64 bits, and neither the
    counters nor, through uniform01, anything of the caller is written."""
    c = np.array([0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1, 12345678901234567],
                 dtype=np.uint64)
    before = c.copy()
    for seed in (0, 7, -3):
        key = _splitmix((seed + _rng._GOLDEN) & _M64)
        assert int(_rng._key(seed)) == key
        want = [_splitmix((_splitmix(((x + _rng._GOLDEN) & _M64) ^ key) + key) & _M64)
                for x in c.tolist()]
        assert _rng._mixed(_rng._key(seed), c).tolist() == want
        assert _rng.raw64(seed, c).tolist() == want
        assert _rng.uniform01(seed, c).tolist() == [(x >> 11) / 2**53 for x in want]
    assert np.array_equal(c, before)


def test_uniform01_bounds_and_mean():
    u = _rng.uniform01(11, np.arange(200000, dtype=np.int64))
    assert u.min() >= 0.0 and u.max() < 1.0
    assert abs(u.mean() - 0.5) < 0.005


def test_bits_are_zero_one_and_balanced():
    """The digits of a doubling point, each bit of its draws read in turn
    as the first digit of a window, are exact 0/1 values and fair."""
    b = orbit_eval(SystemModel.doubling(), Observable.indicator(0.5, 1.0),
                   OrbitPoint.doubling(seed=3), np.arange(100000, dtype=np.int64))
    assert set(np.unique(b).tolist()) <= {0, 1}
    assert abs(b.real.mean() - 0.5) < 0.01


@given(st.integers(min_value=-(2**62), max_value=2**62))
@settings(max_examples=40, deadline=None)
def test_any_seed_is_accepted(seed):
    v = _rng.raw64(seed, np.arange(4, dtype=np.int64))
    assert v.shape == (4,) and v.dtype == np.uint64


def test_cramer_indicator_matches_probability():
    """P(X_k = 1) = 1/log k: empirical rate over many seeds at fixed k."""
    k = 1000
    hits = sum(
        int(_rng.cramer_indicator(s, np.array([k], dtype=np.int64))[0])
        for s in range(4000)
    )
    p = 1.0 / np.log(k)
    # binomial sd ~ 0.0055, allow 4 sigma
    assert abs(hits / 4000 - p) < 0.022


def test_cramer_indicator_deterministic_and_binary():
    ks = np.arange(3, 5000, dtype=np.int64)
    a = _rng.cramer_indicator(9, ks)
    b = _rng.cramer_indicator(9, ks)
    assert np.array_equal(a, b)
    assert set(np.unique(a).tolist()) <= {0, 1}


def test_cramer_indicator_is_independent_of_blocking():
    """A range straddling several blocks (every dyadic edge below 2^16 and
    three 2^16-wide ones) matches calls on single integers and on chunks
    that cut across the block edges, each of them drawing its own blocks."""
    hi = 3 + 3 * _rng._WIDE + 11
    ks = np.arange(3, hi, dtype=np.int64)
    whole = _rng.cramer_indicator(17, ks)
    chunked = np.concatenate([_rng.cramer_indicator(17, ks[i : i + 999])
                              for i in range(0, ks.size, 999)])
    assert np.array_equal(whole, chunked)
    edges = [int(e) - 3 + d for e in _rng.block_starts(3, hi) for d in (-2, -1, 0, 1)]
    for i in sorted(set(range(0, ks.size, 211)) | {i for i in edges if 0 <= i < ks.size}):
        assert whole[i] == _rng.cramer_indicator(17, ks[i : i + 1])[0]


def test_cramer_indicator_keeps_input_shape():
    ks = np.arange(3, 3 + 2 * (_rng._WIDE + 5), dtype=np.int64)
    grid = _rng.cramer_indicator(4, ks.reshape(2, -1))
    assert grid.shape == (2, _rng._WIDE + 5)
    assert np.array_equal(grid.reshape(-1), _rng.cramer_indicator(4, ks))
    assert _rng.cramer_indicator(4, np.zeros((0, 3), dtype=np.int64)).shape == (0, 3)


def test_block_starts_tile_the_integers():
    """Blocks are [3, 4), dyadic [2^j, 2^(j+1)) up to 2^16, then 2^16 wide,
    and block_start maps every integer into the block that holds it."""
    los = _rng.block_starts(3, 5 * _rng._WIDE)
    ends = los + _rng._widths(los)
    assert los[0] == 3 and np.array_equal(ends[:-1], los[1:])
    assert los.tolist()[:4] == [3, 4, 8, 16] and ends[14] == _rng._WIDE
    assert np.all(np.diff(los[15:]) == _rng._WIDE)
    ks = np.arange(3, 5 * _rng._WIDE, dtype=np.int64)
    held = _rng.block_start(ks)
    assert np.all((los[np.searchsorted(los, held)] == held) & (held <= ks)
                  & (ks < held + _rng._widths(held)))
    top = np.array([2**62 + 5, 2**63 - 1], dtype=np.int64)
    assert _rng.block_start(top).tolist() == [2**62, 2**63 - _rng._WIDE]


def test_thinned_block_does_not_depend_on_candidate_count():
    """Too few candidates give None (and a redraw with more); any count that
    reaches past the block's end gives the same selected integers."""
    key = _rng._key(8) ^ np.uint64(_rng._CRAMER_STREAM)
    los = np.array([1024, 2**20], dtype=np.int64)
    width = _rng._widths(los)
    full = _rng._thinned(key, los, width)
    assert _rng._thinned(key, los, np.array([10, 10])) == [None, None]
    for want in ([300, 6000], [700, 30_000]):
        got = _rng._thinned(key, los, np.array(want))
        assert all(np.array_equal(a, b) for a, b in zip(got, full))
    assert all(np.array_equal(a, b) for a, b in zip(_rng.cramer_blocks(8, los), full))


# One dyadic block below 2^16, one 2^16 block at 2^20 and one at 2^40.
LAW_BLOCKS = (1024, 2**20, 2**40)
LAW_SEEDS = 300


@pytest.mark.parametrize("lo", LAW_BLOCKS)
def test_cramer_block_count_matches_law(lo):
    """The number selected in a block has the mean sum p_k and the variance
    sum p_k (1 - p_k) of independent Bernoulli(1/log k) draws, each within
    4 standard errors over LAW_SEEDS seeds."""
    width = int(_rng._widths(np.array([lo]))[0])
    p = 1.0 / np.log(lo + np.arange(width, dtype=np.float64))
    mean, var = p.sum(), (p * (1 - p)).sum()
    counts = np.array([_rng.cramer_blocks(s, [lo])[0].size for s in range(LAW_SEEDS)])
    assert abs(counts.mean() - mean) < 4 * np.sqrt(var / LAW_SEEDS)
    # the sample variance of near-normal counts has sd var sqrt(2 / (n - 1))
    assert abs(counts.var(ddof=1) - var) < 4 * var * np.sqrt(2 / (LAW_SEEDS - 1))


def _count_counters(monkeypatch):
    """Record every (key, counter array) pair that reaches the mixer."""
    seen = []
    mixed = _rng._mixed

    def counting(key, counters):
        seen.append((key, np.array(counters, dtype=np.uint64)))
        return mixed(key, counters)

    monkeypatch.setattr(_rng, "_mixed", counting)
    return seen


def test_cramer_counters_stay_inside_their_block(monkeypatch):
    """Candidate i of block [lo, lo + w) reads counters 2 lo + 2i and
    2 lo + 2i + 1 only: ranges of distinct blocks are disjoint, and the last
    block below 2^63 neither wraps past 2^64 nor meets its neighbour. The
    key is not the one uniform01(seed, k) draws under."""
    los = np.array([3, 4, 2**15, 2**16, 2**40, 2**63 - 2 * _rng._WIDE,
                    2**63 - _rng._WIDE], dtype=np.int64)
    for lo in los:
        seen = _count_counters(monkeypatch)
        _rng.cramer_blocks(5, [lo])
        width = int(_rng._widths(np.array([lo]))[0])
        used = np.concatenate([c for _, c in seen]).tolist()
        assert used and min(used) >= 2 * int(lo) and max(used) < 2 * (int(lo) + width)
        assert all(key != _rng._key(5) for key, _ in seen)
        monkeypatch.undo()


def test_cramer_draw_count_is_thinned(monkeypatch):
    """Drawing [2^20, 2^21) sends at most 1.25 sum 2 p_max width counters
    through the mixer, where one draw per integer would send 2^20."""
    seen = _count_counters(monkeypatch)
    los = _rng.block_starts(2**20, 2**21)
    _rng.cramer_blocks(3, los)
    widths = _rng._widths(los)
    budget = 1.25 * float(np.sum(2 * widths / np.log(los.astype(np.float64))))
    assert 0 < sum(c.size for _, c in seen) <= budget
