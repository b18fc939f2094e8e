"""Counter-based generator: pure function of (seed, counter)."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from ergosum import _rng


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


def test_uniform01_bounds_and_mean():
    u = _rng.uniform01(11, np.arange(200000, dtype=np.int64))
    assert u.min() >= 0.0 and u.max() < 1.0
    assert abs(u.mean() - 0.5) < 0.005


def test_bits_are_zero_one_and_balanced():
    b = _rng.bits(3, np.arange(100000, dtype=np.int64))
    assert set(np.unique(b).tolist()) <= {0, 1}
    assert abs(b.mean() - 0.5) < 0.01


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
    """A range straddling several blocks matches calls on single counters
    and on chunks that cut across the block edges."""
    block = _rng._BLOCK
    ks = np.arange(3, 3 + 3 * block + 11, dtype=np.int64)
    whole = _rng.cramer_indicator(17, ks)
    chunked = np.concatenate([_rng.cramer_indicator(17, ks[i : i + 999])
                              for i in range(0, ks.size, 999)])
    assert np.array_equal(whole, chunked)
    edges = [e + d for e in range(0, ks.size, block) for d in (-2, -1, 0, 1)]
    for i in sorted(set(range(0, ks.size, 211)) | {i for i in edges if i >= 0}):
        assert whole[i] == _rng.cramer_indicator(17, ks[i : i + 1])[0]


def test_cramer_indicator_keeps_input_shape():
    ks = np.arange(3, 3 + 2 * (_rng._BLOCK + 5), dtype=np.int64)
    grid = _rng.cramer_indicator(4, ks.reshape(2, -1))
    assert grid.shape == (2, _rng._BLOCK + 5)
    assert np.array_equal(grid.reshape(-1), _rng.cramer_indicator(4, ks))
    assert _rng.cramer_indicator(4, np.zeros((0, 3), dtype=np.int64)).shape == (0, 3)
