"""Deterministic numeric kernels: exact mod-1 reduction, stable sums."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ergosum._kernels import (
    _BLOCK,
    BlockSource,
    CHUNK,
    MULMOD_MAX_DEN,
    _estimated_remainder,
    _fold,
    array_blocks,
    chunk_sums,
    frac_of,
    frac_poly,
    frac_ratio,
    mod1,
    mulmod,
    next_pow2,
    pairwise_sum,
    prefix_sums,
)

from ergosum.dynamics import SystemModel, _rotation_positions

import oracles


def test_next_pow2():
    assert next_pow2(1) == 1
    assert next_pow2(2) == 2
    assert next_pow2(3) == 4
    assert next_pow2(1023) == 1024
    assert next_pow2(1024) == 1024


def test_frac_mul_matches_fraction_arithmetic():
    """The dyadic wraparound path must agree with exact rationals."""
    theta = 0.3173828125  # 325/1024, exactly representable
    u = np.arange(0, 5000, dtype=np.int64)
    got = frac_of(theta, u)
    fr = Fraction(theta)
    for ui in (0, 1, 7, 999, 4096, 4999):
        want = Fraction(ui) * fr
        want -= math.floor(want)
        assert got[ui] == pytest.approx(float(want), abs=0.0)


@given(st.integers(min_value=0, max_value=10**12),
       st.floats(min_value=1e-9, max_value=1.0, exclude_max=True))
@settings(max_examples=80, deadline=None)
def test_frac_mul_in_unit_interval(u, theta):
    v = frac_of(theta, np.array([u], dtype=np.int64))[0]
    assert 0.0 <= v < 1.0


def test_frac_ratio_exact():
    # u * p mod q done in integer arithmetic, huge q included
    q = (1 << 61) + 1
    p = 123456789123456789
    u = np.array([0, 1, 10**9, 10**14], dtype=np.int64)
    got = frac_ratio(p, q, u)
    for i, ui in enumerate(u.tolist()):
        assert got[i] == ((ui * p) % q) / q


_U_EDGES = [0, 2**32 - 1, 2**32, 2**63 - 1]


def _frac_ratio_reference(p, q, u):
    # the residue in Python integers, rounded as float(rem) / float(q)
    return np.array([float((int(v) * p) % q) / float(q) for v in u])


@given(st.integers(min_value=1, max_value=MULMOD_MAX_DEN),
       st.integers(min_value=0, max_value=2**64),
       st.lists(st.one_of(st.integers(min_value=0, max_value=2**63 - 1),
                          st.sampled_from(_U_EDGES)),
                min_size=1, max_size=40))
@settings(max_examples=300, deadline=None)
def test_frac_ratio_matches_big_int_residues(q, p, u):
    """The vectorized mulmod reproduces the big-int residue bit for bit."""
    u = np.array(u + _U_EDGES, dtype=np.int64)
    got = frac_ratio(p, q, u)
    assert np.array_equal(got.view(np.uint64),
                          _frac_ratio_reference(p, q, u).view(np.uint64))


def test_frac_ratio_extreme_denominators():
    # moduli at the ends of the mulmod range and around the exact-double
    # limit, with multipliers next to 0, den/2 and den
    dens = [2, 3, 2**32 - 1, 2**32, 2**32 + 1, 2**53 - 1, 2**53 + 1,
            2**61 - 1, 2**62 - 1, MULMOD_MAX_DEN]
    u = np.array(_U_EDGES + [1, 2**31, 2**62, 2**62 + 1, 2**63 - 2, 10**18],
                 dtype=np.int64)
    for q in dens:
        for p in {1, 2, q // 2, q // 2 + 1, q - 2, q - 1, q + 1} - {q}:
            got = frac_ratio(p, q, u)
            want = _frac_ratio_reference(p, q, u)
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), (p, q)


_FIXUP_CASES = [
    # the float estimate of the quotient x*p/q is one too low ...
    (877181864167639653, 241220534493581704, 3778751375, 1),
    (2031592297745348115, 671195875496932979, 2539200035, 1),
    # ... or one too high, so each fixup must fire
    (3992532687554291053, 3319764759397588915, 2405252647, -1),
    (851596624388778873, 542116115702005472, 3453774121, -1),
]


@pytest.mark.parametrize("q, p, x, off", _FIXUP_CASES)
def test_estimated_remainder_fixups(q, p, x, off):
    rem = _estimated_remainder(np.array([x], dtype=np.int64), p, q)
    assert int(rem[0]) == (x * p) % q + off * q
    assert int(_fold(rem, q)[0]) == (x * p) % q
    u = np.array([x], dtype=np.int64)
    assert frac_ratio(p, q, u)[0] == _frac_ratio_reference(p, q, u)[0]


def test_mulmod_folds_each_half():
    # the low half's estimate is one too low and the high half leaves a
    # residue near q, so the unfolded sum would exceed 2*q
    q, p = 877181864167639653, 241220534493581704
    u = np.array([496133181040962447, 5712588570845981583], dtype=np.int64)
    assert mulmod(u, p, q).tolist() == [(v * p) % q for v in u.tolist()]


def test_low_half_fixups_in_one_array():
    """The four fixup indices in one array, all below 2**32, so mulmod
    reduces the low half alone: under each case's (q, p) the estimate is
    off by its +-1 on its own lane, and every lane folds to the residue."""
    x = np.array([case[2] for case in _FIXUP_CASES], dtype=np.int64)
    for lane, (q, p, _, off) in enumerate(_FIXUP_CASES):
        rem = _estimated_remainder(x, p, q)
        assert int(rem[lane]) == (int(x[lane]) * p) % q + off * q
        assert mulmod(x, p, q).tolist() == [(v * p) % q for v in x.tolist()]


@given(st.integers(min_value=1, max_value=MULMOD_MAX_DEN),
       st.integers(min_value=0, max_value=2**64),
       st.lists(st.one_of(st.integers(min_value=0, max_value=2**32 - 1),
                          st.sampled_from([0, 1, 2**31, 2**32 - 1])),
                min_size=1, max_size=40))
@settings(max_examples=300, deadline=None)
def test_mulmod_below_2_32_matches_big_int_residues(q, p, u):
    """Every u below 2**32: the high half is skipped and the residue is
    still exact."""
    c = p % q
    assert mulmod(np.array(u, dtype=np.int64), c, q).tolist() == [v * c % q for v in u]


def test_mulmod_with_some_high_halves():
    """One array where only some u reach 2**32 takes both halves on every
    lane, the low ones included."""
    rng = np.random.default_rng(14)
    u = np.concatenate([rng.integers(0, 2**32, 60), [0, 2**32 - 1, 2**32],
                        rng.integers(2**32, 2**63, 4)])
    rng.shuffle(u)
    for q in (3, 2**32 - 1, 2**32 + 1, 2**53 + 1, 877181864167639653, MULMOD_MAX_DEN):
        for p in (1, q // 2, q - 1):
            assert mulmod(u, p, q).tolist() == [v * p % q for v in u.tolist()], (p, q)


def test_frac_ratio_outside_mulmod_range():
    """Moduli above 2**62 and negative u keep the big-int path."""
    u = np.array([-5, 0, 3, 2**40], dtype=np.int64)
    for q in (7, MULMOD_MAX_DEN + 1, 3**50):
        got = frac_ratio(2, q, u)
        assert np.array_equal(got, _frac_ratio_reference(2, q, u))
    assert frac_ratio(5, 3, np.array(4, dtype=np.int64)).shape == ()


def test_frac_of_dispatch():
    u = np.arange(1, 50, dtype=np.int64)
    a = frac_of(Fraction(1, 3), u)
    assert a[0] == pytest.approx(1.0 / 3.0)
    assert a[2] == 0.0
    b = frac_of(0.5, u)
    assert b[0] == 0.5 and b[1] == 0.0


_MOD1_EDGES = [0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e-300, -1e-17, 0.5, -0.5,
               1.0, -1.0, 2.0**52 + 0.5, -(2.0**52 + 0.5), 2.0**52 - 0.5,
               -(2.0**52 - 0.5), 2.0**53, -2.0**53, 1e300, -1e300]


@given(st.lists(st.one_of(
    st.integers(min_value=0, max_value=2**64 - 1).map(
        lambda b: np.array(b, dtype=np.uint64).view(np.float64).item()),
    st.floats(min_value=-2.0**60, max_value=2.0**60)), max_size=40))
@settings(max_examples=300, deadline=None)
def test_mod1_matches_np_mod_bit_for_bit(ys):
    """y - floor(y) is np.mod(y, 1.0) bit for bit on every finite double:
    random 64-bit patterns, doubles of magnitude up to 2**60, and the
    edges (signed zeros, tiny negatives, 2**52 +- 0.5, +-1e300)."""
    y = np.array(ys + _MOD1_EDGES, dtype=np.float64)
    y = y[np.isfinite(y)]
    assert np.array_equal(mod1(y).view(np.uint64), np.mod(y, 1.0).view(np.uint64))


# ---------------------------------------------------------------------------
# one exact reduction, one rounding: float(rem) / float(den)

_SQRT2 = SystemModel.rotation_sqrt2().theta0
_GOLDEN = SystemModel.rotation_golden().theta0
_INT64 = st.integers(min_value=-2**63, max_value=2**63 - 1)
_DENS = st.one_of(
    st.integers(min_value=1, max_value=2**126),
    st.integers(min_value=0, max_value=126).map(lambda j: 1 << j),
    # a convergent angle p/q with the start point 1/3 reduces over 3q
    st.sampled_from([_SQRT2.denominator, 3 * _SQRT2.denominator,
                     _GOLDEN.denominator, 3 * _GOLDEN.denominator]),
)
# doubles m * 2**e: dyadic denominators up to 2**1013, past 2**64 too
_DYADIC = st.builds(math.ldexp, st.integers(min_value=-2**53, max_value=2**53),
                    st.integers(min_value=-960, max_value=8))


def _rule(rem: int, den: int) -> float:
    return float(rem) / float(den)


def _frac_rule(f: Fraction) -> float:
    # f mod 1 under the rule; a power-of-two den reduces to the same value
    f %= 1
    return _rule(f.numerator, f.denominator)


@given(st.integers(min_value=-2**130, max_value=2**130), _DENS,
       st.integers(min_value=-2**130, max_value=2**130),
       st.one_of(st.lists(_INT64, min_size=1, max_size=20),
                 st.lists(st.integers(min_value=0, max_value=2**63 - 1),
                          min_size=1, max_size=20)))
@settings(max_examples=400, deadline=None)
def test_frac_ratio_matches_big_int_rule(num, den, shift, u):
    """Every residue source (dyadic wraparound, mulmod, Python integers)
    gives float(rem) / float(den) of the exact residue, bit for bit."""
    got = frac_ratio(num, den, np.array(u, dtype=np.int64), shift=shift)
    want = np.array([_rule((shift + v * num) % den, den) for v in u])
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


@given(st.one_of(_DYADIC, st.floats(min_value=-4.0, max_value=4.0).filter(
           lambda t: t == 0.0 or abs(t) >= 2.0**-960)),
       st.lists(_INT64, min_size=1, max_size=20))
@settings(max_examples=300, deadline=None)
def test_frac_of_float_matches_fraction_rule(theta, u):
    got = frac_of(theta, np.array(u, dtype=np.int64))
    want = np.array([_frac_rule(Fraction(theta) * v) for v in u])
    want[want == 1.0] = 0.0
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


@given(st.lists(st.one_of(_DYADIC, st.integers(-5, 5).map(float)),
                min_size=1, max_size=5),
       st.lists(st.integers(min_value=-2**40, max_value=2**40), min_size=1,
                max_size=20))
@settings(max_examples=200, deadline=None)
def test_frac_poly_matches_fraction_rule(coeffs, k):
    """Monomial by monomial, k**j * c reduced exactly and rounded by the
    rule, summed in order, then taken mod 1."""
    got = frac_poly(coeffs, np.array(k, dtype=np.int64))
    total = np.zeros(len(k))
    for j, c in enumerate(coeffs):
        total += np.array([_frac_rule(Fraction(c) * v**j) for v in k])
    want = np.mod(total, 1.0)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_frac_of_reaches_every_double():
    # den = 2**1074 is past the double range and is scaled, not overflowed
    tiny = math.ldexp(1.0, -1074)
    assert frac_of(tiny, np.array([0, 1, 3])).tolist() == [0.0, tiny, 3 * tiny]
    assert frac_poly([0.0, tiny], np.array([3])).tolist() == [3 * tiny]


@pytest.mark.parametrize("theta", [_SQRT2, _GOLDEN], ids=["sqrt2", "golden"])
def test_convergent_positions_from_one_third(theta):
    """x0 = 1/3 on a convergent p/q: one ratio (q + 3pu) / 3q, by the rule."""
    rng = np.random.default_rng(5)
    u = np.concatenate([np.arange(4000), rng.integers(0, 2**62, 2000)])
    p, q = theta.numerator, theta.denominator
    got = _rotation_positions(theta, Fraction(1, 3), u)
    want = np.mod([_rule((q + 3 * p * v) % (3 * q), 3 * q) for v in u.tolist()], 1.0)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_pairwise_sum_matches_fsum():
    rng = np.random.default_rng(7)
    x = rng.standard_normal(10000) * np.exp(rng.uniform(-8, 8, 10000))
    want = math.fsum(x.tolist())
    assert pairwise_sum(x) == pytest.approx(want, rel=1e-13)


def test_pairwise_sum_complex():
    rng = np.random.default_rng(8)
    z = rng.standard_normal(5000) + 1j * rng.standard_normal(5000)
    got = pairwise_sum(z)
    assert got.real == pytest.approx(math.fsum(z.real.tolist()), rel=1e-12)
    assert got.imag == pytest.approx(math.fsum(z.imag.tolist()), rel=1e-12)


def prefix_at(terms, bounds):
    """Prefix sums of one array at ``bounds``: prefix_sums over its slices."""
    return prefix_sums(array_blocks(np.asarray(terms)), bounds)


def test_prefix_at_matches_plain_accumulation():
    rng = np.random.default_rng(9)
    z = rng.standard_normal(300) + 1j * rng.standard_normal(300)
    bounds = np.array([1, 2, 17, 100, 300], dtype=np.int64)
    got = prefix_at(z, bounds)
    ora = oracles.prefix_sums(z.tolist())
    for i, b in enumerate(bounds.tolist()):
        assert got[i] == pytest.approx(ora[b - 1], rel=1e-12)


@given(st.lists(st.integers(min_value=1, max_value=200), min_size=1,
                max_size=12, unique=True))
@settings(max_examples=60, deadline=None)
def test_prefix_at_consistent_across_bound_sets(bounds):
    """prefix_at values depend only on the bound, not on the bound set."""
    bounds = sorted(bounds)
    z = (np.sin(np.arange(200) * 0.7) + 1j * np.cos(np.arange(200) * 1.3))
    full = prefix_at(z, np.arange(1, 201, dtype=np.int64))
    part = prefix_at(z, np.array(bounds, dtype=np.int64))
    for i, b in enumerate(bounds):
        assert part[i] == full[b - 1]


def test_prefix_at_across_chunk_edges():
    """Bounds at and beside every chunk edge, plus random ones, agree bit
    for bit with the dense call and with the chunk partition written out
    by hand; a leading -0.0 keeps its sign."""
    n = 3 * CHUNK + 17
    rng = np.random.default_rng(12)
    z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    z[0] = complex(-0.0, -0.0)
    edges = [c * CHUNK + d for c in range(1, 4) for d in (-1, 0, 1)]
    bounds = np.unique(np.concatenate(
        [[1, 2, n], edges, rng.integers(1, n + 1, size=40)])).astype(np.int64)
    got = prefix_at(z, bounds)
    dense = prefix_at(z, np.arange(1, n + 1, dtype=np.int64))
    assert got.tobytes() == dense[bounds - 1].tobytes()
    totals = np.cumsum([np.cumsum(z[c : c + CHUNK])[-1] for c in range(0, n, CHUNK)])
    for b, value in zip(bounds.tolist(), got):
        q, r = divmod(b, CHUNK)
        if r == 0:
            want = totals[q - 1]
        else:
            want = np.cumsum(z[q * CHUNK : b])[-1]
            if q:
                want = want + totals[q - 1]
        assert value == want, b
    assert math.copysign(1.0, got[0].real) == -1.0
    assert math.copysign(1.0, got[0].imag) == -1.0


def _padded_prefix(terms, bounds):
    """prefix_sums' chunk scheme over a zero-padded copy of the terms."""
    rows = -(-terms.size // CHUNK)
    padded = np.zeros(rows * CHUNK, dtype=terms.dtype)
    padded[: terms.size] = terms
    within = np.cumsum(padded.reshape(rows, CHUNK), axis=1)
    totals = np.cumsum(within[:, -1])
    within[1:] += totals[:-1, None]
    return within.ravel()[bounds - 1]


@pytest.mark.parametrize("n", [1, 5, CHUNK - 1, CHUNK, 3 * CHUNK, CHUNK + 1,
                               3 * CHUNK + 1, _BLOCK - 1, _BLOCK, _BLOCK + 1,
                               3 * _BLOCK + 17])
@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
def test_prefix_at_matches_the_padded_reference(n, dtype):
    """Dense and sparse ends, the sparse ones beside chunk and block edges
    too, agree bit for bit with the chunk scheme over zero-padded terms,
    for a leading -0.0 and non-finite terms too."""
    rng = np.random.default_rng(n)
    z = rng.standard_normal(n).astype(dtype)
    if dtype is np.complex128:
        z += 1j * rng.standard_normal(n)
    z[0] = -0.0
    if n > 3:
        z[[n // 3, n - 2]] = [np.inf, np.nan]
    dense = np.arange(1, n + 1, dtype=np.int64)
    got = prefix_at(z, dense)
    assert got.tobytes() == _padded_prefix(z, dense).tobytes()
    assert math.copysign(1.0, got[0].real) == -1.0
    edges = [e + d for e in (CHUNK, _BLOCK, 2 * _BLOCK) for d in (-1, 0, 1)]
    ends = np.unique(np.concatenate([[1, n], rng.integers(1, n + 1, size=20),
                                     [e for e in edges if 1 <= e <= n]])).astype(np.int64)
    assert prefix_at(z, ends).tobytes() == got[ends - 1].tobytes()


@pytest.mark.parametrize("n", [1, CHUNK - 1, CHUNK, CHUNK + 1])
@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
def test_prefix_sums_in_any_blocks_match_the_padded_reference(n, dtype):
    """Whatever the stream's blocks are, views of one array, a fresh array
    per block, strided views or read-only views, prefix_sums agrees bit
    for bit with the chunk scheme over zero-padded terms at every end and
    at ends beside the chunk edge, for a leading -0.0 and inf/nan terms
    too, and leaves the caller's terms as they were."""
    rng = np.random.default_rng(n + 1)
    z = rng.standard_normal(n).astype(dtype)
    if dtype is np.complex128:
        z += 1j * rng.standard_normal(n)
    z[0] = -0.0
    if n > 3:
        z[[n // 3, n - 2]] = [np.inf, np.nan]
    kept = z.tobytes()
    strided = np.zeros(2 * n, dtype=dtype)
    strided[::2] = z
    frozen = z.copy()
    frozen.flags.writeable = False
    streams = (lambda: array_blocks(z), lambda: (b.copy() for b in array_blocks(z)),
               lambda: array_blocks(strided[::2]), lambda: array_blocks(frozen))
    ends = np.unique(np.concatenate([[1, n], rng.integers(1, n + 1, size=40),
                                     [e for e in (CHUNK - 1, CHUNK, CHUNK + 1)
                                      if e <= n]])).astype(np.int64)
    for bounds in (np.arange(1, n + 1, dtype=np.int64), ends):
        want = _padded_prefix(z, bounds).tobytes()
        for blocks in streams:
            assert prefix_sums(blocks(), bounds).tobytes() == want
    assert math.copysign(1.0, prefix_sums(streams[1](), ends)[0].real) == -1.0
    assert z.tobytes() == kept


def test_prefix_sums_asks_for_consecutive_blocks():
    """prefix_sums draws one block per _BLOCK terms, in order, up to the
    block that holds the last bound and none after it, for dense and
    sparse bounds alike."""
    n = 3 * _BLOCK + 17
    z = np.random.default_rng(3).standard_normal(n)
    for bounds, drawn in ((np.arange(1, n + 1), 4), ([1, CHUNK + 1, n], 4),
                          ([1, _BLOCK + 1], 2), ([_BLOCK], 1)):
        starts = []
        blocks = (starts.append(i) or z[i : i + _BLOCK] for i in range(0, n, _BLOCK))
        got = prefix_sums(blocks, bounds)
        assert starts == [i * _BLOCK for i in range(drawn)]
        assert got.tobytes() == _padded_prefix(z, np.asarray(bounds)).tobytes()


def test_prefix_sums_offset_shifts_the_bounds():
    """Bounds given offset by k give the sums of the unshifted bounds, bit
    for bit, dense or sparse, and the offset ends are checked as bounds."""
    n = 2 * _BLOCK + 7
    z = np.random.default_rng(5).standard_normal(n) + 1j
    for bounds in (np.arange(1, n + 1), np.array([1, 9, _BLOCK, _BLOCK + 1, n])):
        want = prefix_sums(array_blocks(z), bounds).tobytes()
        for k in (-3, 1, 10**12):
            assert prefix_sums(array_blocks(z), bounds + k, k).tobytes() == want
    with pytest.raises(ValueError):
        prefix_sums(array_blocks(z), [5, 9], 5)


def test_block_source_hands_over_blocks_in_prefix_sums_order():
    """A BlockSource reports its term count, hands prefix_sums its blocks
    in order with the sums of the whole array, and is read once: a second
    pass finds its iterator spent."""
    n = 2 * _BLOCK + 9
    z = np.random.default_rng(4).standard_normal(n)
    source = BlockSource(n, (z[i : i + _BLOCK] for i in range(0, n, _BLOCK)))
    assert len(source) == n
    assert prefix_sums(source, [5, n]).tobytes() == prefix_at(z, [5, n]).tobytes()
    with pytest.raises(ValueError, match="cannot give terms"):
        prefix_sums(source, [5])


def _stream(*sizes):
    return [np.ones(m) for m in sizes]


def test_prefix_sums_refuses_a_block_before_the_last_that_is_not_full():
    """Every block before the last one needed holds exactly _BLOCK terms:
    a shorter or longer one would move the chunk partition."""
    for sizes in ((_BLOCK - 1, _BLOCK), (_BLOCK + 1, _BLOCK), (CHUNK, _BLOCK)):
        with pytest.raises(ValueError, match=rf"cannot give terms \[0, {_BLOCK}\)"):
            prefix_sums(_stream(*sizes), [_BLOCK + 5])


def test_prefix_sums_refuses_a_stream_that_ends_early():
    with pytest.raises(ValueError, match=rf"cannot give terms \[{_BLOCK}, {_BLOCK + 5}\)"):
        prefix_sums(_stream(_BLOCK), [3, _BLOCK + 5])
    with pytest.raises(ValueError, match=r"cannot give terms \[0, 7\)"):
        prefix_sums(iter(()), [7])


def test_prefix_sums_refuses_a_last_block_too_short_or_too_long():
    """The last block needs the terms left, and holds at most _BLOCK."""
    with pytest.raises(ValueError):
        prefix_sums(_stream(_BLOCK, 4), [_BLOCK + 5])
    with pytest.raises(ValueError):
        prefix_sums(_stream(_BLOCK + 1), [3])
    with pytest.raises(ValueError):
        prefix_sums([np.ones((1, 5))], [3])  # a 2-d block


def test_prefix_sums_ignores_the_last_blocks_terms_past_the_last_bound():
    """The last block may hold more terms than are left, as array slices
    of a longer array do; the extra terms are never read."""
    n = _BLOCK + 40
    z = np.random.default_rng(6).standard_normal(n)
    for bounds in ([1, _BLOCK + 3], [7, 1000]):
        spoiled = z.copy()
        spoiled[bounds[-1]:] = np.nan
        want = _padded_prefix(z, np.asarray(bounds)).tobytes()
        assert prefix_sums(array_blocks(spoiled), bounds).tobytes() == want


def test_prefix_sums_feed_checks():
    """Bounds must be nonempty, strictly increasing integers >= 1."""
    for bad in ([], [0, 3], [3, 3], [4, 2]):
        with pytest.raises(ValueError):
            prefix_sums(_stream(5), bad)


@pytest.mark.parametrize("n", [0, 1, 5, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK,
                               123_457, 1_000_000, 1_000_003])
@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
def test_chunk_sums_match_the_padded_reference(n, dtype):
    """Bit for bit the row sums of a zero-padded copy (one zero row when
    empty)."""
    rng = np.random.default_rng(n)
    z = (rng.standard_normal(n) * 10.0 ** rng.integers(-8, 9, n)).astype(dtype)
    if dtype is np.complex128:
        z += 1j * rng.standard_normal(n)
    rows = max(1, -(-n // CHUNK))
    padded = np.zeros(rows * CHUNK, dtype=dtype)
    padded[:n] = z
    want = padded.reshape(rows, CHUNK).sum(axis=1)
    got = chunk_sums(z)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
