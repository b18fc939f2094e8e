"""Index families: exact values, sieves against trial division."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ergosum import _rng
from ergosum.indices import (
    IndexSpec,
    first_primes,
    gen_indices,
    pi_count,
    primes_upto,
)
from ergosum.weights import WeightSpec, gen_weights

import oracles


def test_identity_and_monomial():
    assert np.array_equal(gen_indices(IndexSpec(kind="identity"), 0, 5),
                          np.array([0, 1, 2, 3, 4]))
    assert np.array_equal(gen_indices(IndexSpec(kind="monomial", d=3), 1, 5),
                          np.array([1, 8, 27, 64]))


def test_polynomial_integer_exact():
    spec = IndexSpec(kind="polynomial", coeffs=(1, 0, 2))  # 1 + 2k^2
    u = gen_indices(spec, 0, 4)
    assert np.array_equal(u, np.array([1, 3, 9, 19]))


def test_explicit_values():
    # explicit lists are 0-based: u_k = values[k]
    spec = IndexSpec(kind="explicit", values=(2, 3, 5, 9))
    assert np.array_equal(gen_indices(spec, 0, 3), np.array([2, 3, 5]))
    assert np.array_equal(gen_indices(spec, 1, 4), np.array([3, 5, 9]))
    with pytest.raises(ValueError):
        gen_indices(spec, 1, 6)  # beyond the provided list


def test_primes_upto_against_trial_division():
    ps = primes_upto(500)
    want = [n for n in range(2, 501) if oracles.is_prime(n)]
    assert ps.tolist() == want


def test_first_primes_count_and_tail():
    ps = first_primes(1000)
    assert ps.size == 1000
    assert oracles.is_prime(int(ps[-1]))
    assert int(ps[0]) == 2 and int(ps[99]) == 541  # the 100th prime


def test_primes_kind_window():
    spec = IndexSpec(kind="primes")
    u = gen_indices(spec, 3, 7)  # 3rd..6th primes
    assert u.tolist() == [5, 7, 11, 13]


def test_monomial_rejects_degree_zero():
    with pytest.raises(ValueError):
        IndexSpec(kind="monomial", d=0)


def test_polynomial_rejects_float_coeffs():
    with pytest.raises(ValueError):
        IndexSpec(kind="polynomial", coeffs=(1.5, 2))


def test_cramer_deterministic_and_increasing():
    spec = IndexSpec(kind="cramer_primes", seed=4)
    u = gen_indices(spec, 1, 2000)
    v = gen_indices(spec, 1, 2000)
    assert np.array_equal(u, v)
    assert np.all(np.diff(u) > 0)
    assert int(u[0]) >= 3


@given(st.integers(min_value=1, max_value=1500), st.integers(min_value=1, max_value=400))
@settings(max_examples=30, deadline=None)
def test_cramer_window_consistency(m, size):
    """Windows are slices of one fixed random set per seed."""
    spec = IndexSpec(kind="cramer_primes", seed=11)
    big = gen_indices(spec, 1, 2001)
    win = gen_indices(spec, m, m + size)
    assert np.array_equal(win, big[m - 1 : m - 1 + size])


def test_cramer_counting_function_consistent_with_elements():
    spec = IndexSpec(kind="cramer_primes", seed=2)
    u = gen_indices(spec, 1, 90_001)
    assert u[-1] > 2**20 + 1  # the bounds below cross a 2^20 segment edge
    for bound in (10, 100, 1000, 2**20 - 1, 2**20, 2**20 + 1, int(u[-1])):
        want = int((u <= bound).sum())
        assert pi_count(spec, bound) == want


def test_cramer_density_tracks_li():
    """Pi(N) log N / N should sit near 1 for N ~ 10^5."""
    vals = []
    for seed in range(1, 9):
        spec = IndexSpec(kind="cramer_primes", seed=seed)
        n = 100_000
        vals.append(pi_count(spec, n) * np.log(n) / n)
    med = float(np.median(vals))
    assert 0.9 < med < 1.25


def test_pi_count_true_primes():
    spec = IndexSpec(kind="primes")
    assert pi_count(spec, 100) == 25
    assert pi_count(spec, 1000) == 168


def test_round_trip_dict():
    # each JSON form builds through the constructor the same spec
    for spec, d in ((IndexSpec(kind="monomial", d=2), {"kind": "monomial", "d": 2}),
                    (IndexSpec(kind="cramer_primes", seed=8),
                     {"kind": "cramer_primes", "seed": 8}),
                    (IndexSpec(kind="explicit", values=(1, 4, 9)),
                     {"kind": "explicit", "values": [1, 4, 9]}),
                    (IndexSpec(kind="polynomial", coeffs=(1, 0, 2)),
                     {"kind": "polynomial", "coeffs": [1, 0, 2]})):
        assert IndexSpec(**d) == spec


def test_centered_cramer_weights_share_the_index_realization():
    """Across every dyadic edge and four 2^16-wide ones, w_k = 1 - p_k for
    the centered model exactly at the k in the cramer_primes set of the
    same seed, and w_k = -p_k elsewhere."""
    u = gen_indices(IndexSpec(kind="cramer_primes", seed=21), 1, 26_001)
    top = int(u[-1])
    assert top > 4 * 2**16
    k = np.arange(3, top + 1, dtype=np.int64)
    w = gen_weights(WeightSpec(kind="centered_cramer", seed=21), 3, top + 1)
    p = np.minimum(1.0, 1.0 / np.log(k.astype(np.float64)))
    hit = w.real == 1.0 - p
    assert np.array_equal(k[hit], u)
    assert np.array_equal(w.real[~hit], -p[~hit]) and not w.imag.any()


def test_cramer_cache_holds_the_last_two_seeds():
    """A third seed drops the blocks of the least recently used one (a
    cache hit counts as a use), and a redraw of a dropped seed gives the
    same indices."""
    first = gen_indices(IndexSpec(kind="cramer_primes", seed=31), 1, 100_001)
    assert pi_count(IndexSpec(kind="cramer_primes", seed=32), 3 * 2**20) > 0
    assert {seed for seed, _ in _rng._cramer_cache} == {31, 32}
    assert pi_count(IndexSpec(kind="cramer_primes", seed=33), 2**20) > 0
    assert {seed for seed, _ in _rng._cramer_cache} == {32, 33}
    again = gen_indices(IndexSpec(kind="cramer_primes", seed=31), 1, 100_001)
    assert np.array_equal(first, again)
    assert {seed for seed, _ in _rng._cramer_cache} == {31, 33}
    gen_indices(IndexSpec(kind="cramer_primes", seed=33), 1, 1_001)
    assert pi_count(IndexSpec(kind="cramer_primes", seed=34), 2**20) > 0
    assert {seed for seed, _ in _rng._cramer_cache} == {33, 34}


def test_cramer_seeds_read_in_turn_draw_each_block_once(monkeypatch):
    """A weight seed and an index seed read in turn over growing blocks, as
    an envelope scan with its own seed per spec does, draw each (seed,
    block) once."""
    drawn = []
    draw = _rng._draw_blocks

    def counting(seed, los):
        drawn.extend((seed, int(lo)) for lo in los)
        return draw(seed, los)

    monkeypatch.setattr(_rng, "_draw_blocks", counting)
    _rng._cramer_cache.clear()
    ws = WeightSpec(kind="centered_cramer", seed=41)
    js = IndexSpec(kind="cramer_primes", seed=42)
    for m, n in [(2, 2_000), (2_000, 8_000), (8_000, 32_000), (32_000, 64_000)]:
        gen_weights(ws, m + 1, n + 1)
        gen_indices(js, m + 1, n + 1)
    assert {seed for seed, _ in drawn} == {41, 42}
    assert len(drawn) == len(set(drawn))
