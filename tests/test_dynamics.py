"""Systems, observables, orbit evaluation, spectral norms."""

import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ergosum import dynamics
from ergosum._kernels import MULMOD_MAX_DEN
from ergosum.averages import spectral_l2_norm
from ergosum.dynamics import (
    DEFAULT_BIT_WINDOW,
    DIGIT_BITS,
    MAX_ANGLE_DEN,
    MAX_MODE,
    Observable,
    OrbitPoint,
    SpectralMeasure,
    SystemModel,
    orbit_eval,
)
from ergosum._rng import raw64

import oracles


# ---------------------------------------------------------------- rotation

def test_sqrt2_angle_is_deep_convergent():
    sys_ = SystemModel.rotation_sqrt2()
    t = sys_.theta0
    assert isinstance(t, Fraction)
    assert t.denominator <= MAX_ANGLE_DEN
    assert t.denominator > MAX_ANGLE_DEN >> 3  # deepest convergent, not an early one
    # p/q + 1 is a convergent of sqrt(2), so (p + q, q) solves Pell's
    # equation; that identity forces |p/q - (sqrt(2) - 1)| < 1/q**2
    p, q = t.numerator, t.denominator
    assert abs((p + q) ** 2 - 2 * q * q) == 1


def test_golden_angle_is_fibonacci_ratio():
    t = SystemModel.rotation_golden().theta0
    # consecutive Fibonacci: p/q with q*p_next relation p^2 + p*q - q^2 = +-1
    p, q = t.numerator, t.denominator
    assert abs(p * p + p * q - q * q) == 1


def test_exact_rational_orbit_matches_oracle():
    theta = Fraction(3, 7)
    x0 = Fraction(1, 5)
    sys_ = SystemModel.rotation(theta)
    f = Observable.fourier_mode(1)
    u = np.array([0, 1, 2, 5, 100, 10**6], dtype=np.int64)
    got = orbit_eval(sys_, f, OrbitPoint.rotation(x0), u)
    for j, uj in enumerate(u):
        pos = oracles.rotation_orbit(theta, x0, int(uj))
        want = complex(math.cos(2 * math.pi * pos), math.sin(2 * math.pi * pos))
        assert got[j] == pytest.approx(want, abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(
    p=st.integers(1, 999),
    q=st.integers(2, 1000),
    a=st.integers(0, 99),
    u=st.integers(0, 2**40),
    v=st.integers(0, 2**20),
)
def test_rotation_homomorphism(p, q, a, u, v):
    """T^(u+v) = T^u composed with T^v, checked through fourier_mode."""
    if math.gcd(p, q) != 1 or p >= q:
        return
    theta = Fraction(p, q)
    x0 = Fraction(a, 100)
    sys_ = SystemModel.rotation(theta)
    f = Observable.fourier_mode(1)
    pt = OrbitPoint.rotation(x0)
    lhs = orbit_eval(sys_, f, pt, np.array([u + v], dtype=np.int64))[0]
    mid = orbit_eval(sys_, f, OrbitPoint.rotation(oracles.rotation_orbit(theta, x0, v)),
                     np.array([u], dtype=np.int64))[0]
    assert lhs == pytest.approx(mid, abs=1e-10)


def test_float_angle_path_close_to_exact():
    t = SystemModel.rotation_sqrt2().theta0
    sys_f = SystemModel.rotation(float(t))
    sys_e = SystemModel.rotation(t)
    f = Observable.fourier_mode(1)
    pt = OrbitPoint.rotation(0.0)
    u = np.arange(1, 50, dtype=np.int64)
    a = orbit_eval(sys_f, f, pt, u)
    b = orbit_eval(sys_e, f, pt, u)
    # float(t) != t, so drift grows with u; only small u stay close
    assert np.max(np.abs(a - b)) < 1e-10


def test_rotation_rejects_bad_angles():
    with pytest.raises(ValueError):
        SystemModel.rotation(0.0)
    with pytest.raises(ValueError):
        SystemModel.rotation(1.0)
    with pytest.raises(ValueError):
        SystemModel.rotation(Fraction(1, MAX_ANGLE_DEN * 2 + 1))


# ------------------------------------------------------ rotation tables

_EPS = 2.0**-52

angles = st.one_of(
    st.integers(2, MAX_ANGLE_DEN).flatmap(
        lambda q: st.integers(1, q - 1).map(lambda p: Fraction(p, q))),
    st.floats(2.0**-80, 1.0, exclude_max=True),  # below 2**-64 too
)
starts = st.one_of(
    st.fractions(0, 1, max_denominator=2**64).filter(lambda x: x < 1),
    st.floats(0.0, 1.0, exclude_max=True),
)
modes = st.integers(-MAX_MODE, MAX_MODE)
observables = st.one_of(
    modes.map(Observable.fourier_mode),
    st.dictionaries(modes, st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)),
                    min_size=1, max_size=3).map(
        lambda d: Observable.finite_fourier([[m, re, im] for m, (re, im) in d.items()])),
)


# the smallest subnormal, 2 * 2**-1075: a product that underflows is off by
# up to 2**-1075 absolutely, which no relative bound in sum|c_m| covers
_TINY = 2.0**-1074


@settings(max_examples=300, deadline=None)
@given(theta=angles, x0=starts, f=observables,
       u=st.lists(st.integers(0, 2**62), min_size=1, max_size=6))
@example(theta=2**0.5 - 1, x0=0.0, f=Observable.finite_fourier([[1, 0.0, 5e-324]]),
         u=[12345])
def test_rotation_values_are_within_the_table_bound(theta, x0, f, u):
    """Each value lies within orbit_eval's stated (27 t + K) eps sum|c_m|
    of the exact sum_m c_m e(m (x0 + theta u)), t the digit tables of the
    largest index and K the terms, at any angle, start, mode up to 2**53
    and index up to 2**62. The exact position is oracles.rotation_orbit;
    the reference adds at most (6 + K) eps sum|c_m| of its own: 4.5 eps
    per e(.), 1.5 eps per product with c and eps per addition. A
    subnormal c_m underflows in each of its 4 (t + 1) real products and 4
    of the reference's, each off by up to 2**-1075, so every mode adds
    (4 (t + 1) + 4) 2**-1075 absolutely."""
    idx = np.array(u, dtype=np.int64)
    got = orbit_eval(SystemModel.rotation(theta), f, OrbitPoint.rotation(x0), idx)
    terms = [(f.mode, 1)] if f.kind == "fourier_mode" else f.terms
    t = max(1, -(-max(u).bit_length() // DIGIT_BITS))
    c_l1 = sum(abs(c) for _, c in terms)
    bound = ((27 * t + 2 * len(terms) + 6) * _EPS * c_l1
             + (4 * (t + 1) + 4) * len(terms) * _TINY / 2)
    for g, uj in zip(got, u):
        pos = oracles.rotation_orbit(Fraction(theta), Fraction(x0), uj)
        want = sum(c * oracles.circle_exp(m * pos) for m, c in terms)
        assert abs(g - want) <= bound, (uj, t, abs(g - want), bound)


@settings(max_examples=60, deadline=None)
@given(theta=angles, x0=starts, f=observables,
       u=st.lists(st.one_of(st.integers(0, 5000), st.integers(0, 2**62)),
                  min_size=2, max_size=40),
       cuts=st.lists(st.integers(1, 39), max_size=6))
def test_rotation_values_do_not_depend_on_the_split(theta, x0, f, u, cuts):
    """Cutting a rotation's indices anywhere gives the same bytes, though
    each piece builds only the tables its own largest index needs."""
    system, point = SystemModel.rotation(theta), OrbitPoint.rotation(x0)
    idx = np.array(u, dtype=np.int64)
    edges = sorted({0, idx.size, *(c for c in cuts if c < idx.size)})
    pieces = [orbit_eval(system, f, point, idx[i:j]) for i, j in zip(edges, edges[1:])]
    assert np.concatenate(pieces).tobytes() == orbit_eval(system, f, point, idx).tobytes()


def test_rotation_values_do_not_depend_on_the_split_across_passes():
    """Blocks, single indices and the whole: indices below 2**12 (one
    table) and up to 2**40 (four), cut inside and across the passes of
    the table product, as bytes."""
    rng = np.random.default_rng(7)
    u = np.concatenate([np.arange(20_000), rng.integers(0, 2**40, 30_000)]).astype(np.int64)
    rng.shuffle(u[5_000:])
    f = Observable.finite_fourier([[3, 0.5, -0.25], [-7, 1.0, 0.0], [2**40 + 1, 0.0, 1.0]])
    for system, x0 in ((SystemModel.rotation_sqrt2(), [1, 3]),
                       (SystemModel.rotation(0.3819660112501051), 0.125)):
        point = OrbitPoint.rotation(x0)
        whole = orbit_eval(system, f, point, u)
        edges = [0, 1, 4096, 16_391, 33_000, u.size]
        pieces = [orbit_eval(system, f, point, u[i:j]) for i, j in zip(edges, edges[1:])]
        assert np.concatenate(pieces).tobytes() == whole.tobytes()
        picks = rng.integers(0, u.size, 50)
        singles = [orbit_eval(system, f, point, u[k : k + 1]) for k in picks]
        assert np.concatenate(singles).tobytes() == whole[picks].tobytes()


def test_rotation_tables_reduce_only_table_entries(monkeypatch):
    """Moduli past 2**62 (a Fraction start point on a deep convergent, a
    float angle below 2**-64) reduce through Python integers, and only
    the table entries go through them: no exact reduction of a
    fourier_mode or finite_fourier rotation sees more than 2**DIGIT_BITS
    elements, whatever the number of indices."""
    dynamics._digit_table.cache_clear()
    seen = []
    real = dynamics.frac_ratio

    def recording(num, den, u, shift=0):
        seen.append((den, np.size(u)))
        return real(num, den, u, shift=shift)

    monkeypatch.setattr(dynamics, "frac_ratio", recording)
    u = np.arange(1, 200_001, dtype=np.int64) * 977
    for theta, x0 in ((SystemModel.rotation_sqrt2().theta0, [1, 3]),
                      (1e-5, 0.25), (0.3, [1, 3])):
        for f in (Observable.fourier_mode(3), Observable.finite_fourier([[1, 1, 0], [-2, 0, 1]])):
            orbit_eval(SystemModel.rotation(theta), f, OrbitPoint.rotation(x0), u)
    assert max(den for den, _ in seen) > MULMOD_MAX_DEN
    assert max(size for _, size in seen) == 1 << DIGIT_BITS


def test_cached_digit_tables_give_the_bytes_of_fresh_ones():
    """A warm table cache gives the bytes a cold one gives, keys a float
    and a Fraction start and the signed zeros of c apart, and hands out
    tables that refuse writes."""
    system = SystemModel.rotation(SystemModel.rotation_sqrt2().theta0)
    u = np.arange(0, 1 << 30, 977 << 8, dtype=np.int64)
    # 0.25 == Fraction(1, 4), and -0.0 + 0.5i == 0.5i though at x0 = 0 and
    # u = 0 each gives the value c with its sign of zero
    cases = [(f, x0) for f in (Observable.fourier_mode(3),
                               Observable.finite_fourier([[1, -0.0, 0.5]]),
                               Observable.finite_fourier([[1, 0.0, 0.5]]))
             for x0 in (0.25, [1, 4], 0.0)]
    cold = []
    for f, x0 in cases:
        dynamics._digit_table.cache_clear()
        cold.append(orbit_eval(system, f, OrbitPoint.rotation(x0), u).tobytes())
    warm = [orbit_eval(system, f, OrbitPoint.rotation(x0), u).tobytes() for f, x0 in cases]
    assert warm == cold
    assert dynamics._digit_table.cache_info().hits > 0
    table = dynamics._digit_table(2, 7, 3, 0, (False, 1, 4, np.complex128(1j).tobytes()))
    with pytest.raises(ValueError, match="read-only"):
        table[0] = 0


# hashes rotation and doubling orbit values, in-process and under
# restricted numpy dispatch levels
_DISPATCH_PROBE = """
import hashlib
import numpy as np
from ergosum.dynamics import Observable, OrbitPoint, SystemModel, orbit_eval
from ergosum.indices import IndexSpec, gen_indices
u = gen_indices(IndexSpec(kind="cramer_primes", seed=1), 1, 300_001)
two = Observable.finite_fourier([[1, 0.3, 0.7], [-5, 1.1, -0.4]])
h = hashlib.sha256()
for system, f, x0, us in (
        (SystemModel.rotation_sqrt2(), Observable.fourier_mode(7), OrbitPoint.rotation(0.0), u),
        (SystemModel.rotation(0.3819660112501051), two, OrbitPoint.rotation(0.1), u),
        (SystemModel.doubling(), two, OrbitPoint.doubling(3), np.arange(300_000)),
        (SystemModel.doubling(), Observable.fourier_mode(2**50 + 1), OrbitPoint.doubling(5), u)):
    h.update(orbit_eval(system, f, x0, us).tobytes())
digest = h.hexdigest()
"""


@pytest.mark.parametrize("disabled", ["AVX512_SPR AVX512_ICL X86_V4",
                                      "AVX512_SPR AVX512_ICL X86_V4 X86_V3"],
                         ids=["x86-64-v3", "baseline"])
def test_orbit_values_do_not_depend_on_the_dispatch_level(disabled):
    """Rotation and doubling orbit values hash alike with numpy's AVX-512
    (and then AVX2) kernels switched off, in a fresh process. On a host
    that lacks a feature, its restriction changes nothing and the test
    still runs.
    Not checked here: other architectures, other libms and other numpy
    versions."""
    scope = {}
    exec(_DISPATCH_PROBE, scope)
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=disabled)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(Path(dynamics.__file__).parents[1]), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", _DISPATCH_PROBE + "print(digest)\n"],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.split() == [scope["digest"]]


# ---------------------------------------------------------------- doubling

def test_doubling_orbit_is_exact_bit_shift():
    pt = OrbitPoint.doubling(seed=7)
    sys_ = SystemModel.doubling()
    f = Observable.indicator(0.5, 1.0)  # first window digit
    u = np.arange(0, 256, dtype=np.uint64)
    got = orbit_eval(sys_, f, pt, u)
    # digit u is bit 63 - (u mod 64) of word u // 64, most significant first
    digits = (raw64(7, u >> np.uint64(6)) >> (np.uint64(63) - u % np.uint64(64))) & np.uint64(1)
    assert got.tobytes() == digits.astype(np.complex128).tobytes()


def test_doubling_point_reproducible():
    """A doubling point is its seed: points from one seed give the same
    values, over any range of indices or a piece of it."""
    a, b = OrbitPoint.doubling(seed=42), OrbitPoint.doubling(seed=42)
    assert a.seed == 42
    sys_, f = SystemModel.doubling(), Observable.fourier_mode(1)
    u = np.arange(4096, dtype=np.int64)
    whole = orbit_eval(sys_, f, a, u)
    assert whole.tobytes() == orbit_eval(sys_, f, b, u).tobytes()
    assert whole[1000:1128].tobytes() == orbit_eval(sys_, f, b, u[1000:1128]).tobytes()
    with pytest.raises(ValueError, match="integer seed"):
        OrbitPoint.doubling(seed=1.5)


_TOP = 2**64 - 1
_B = DEFAULT_BIT_WINDOW


def _window_reference(f: Observable, seed: int, u) -> np.ndarray:
    """The rotation by 2**-B from 0 at the window integers w_u that
    oracles.doubling_window reads with Python integers: a doubling point's
    T^u x0 is w_u 2**-B."""
    w = np.array([oracles.doubling_window(seed, v, _B) for v in u], dtype=np.int64)
    return orbit_eval(SystemModel.rotation(Fraction(1, 2**_B)), f, OrbitPoint.rotation([0, 1]), w)


@st.composite
def _orbit_indices(draw):
    """Indices in any order, with repeats, dense runs, gaps narrower and
    wider than the window B, starts at digits 0, 11 and 63 of a word, and
    values up to 2**64 - 1."""
    u = []
    starts = st.one_of(st.integers(0, _TOP),
                       st.builds(lambda k, r: 64 * k + r, st.integers(0, _TOP >> 6),
                                 st.sampled_from([0, 11, 63])))
    for a in draw(st.lists(starts, min_size=1, max_size=4)):
        u += range(a, min(a + draw(st.integers(0, 3 * _B)), _TOP + 1))
        u += [min(max(a + d, 0), _TOP)
              for d in draw(st.lists(st.integers(-3 * _B, 3 * _B), max_size=12))]
    u += draw(st.lists(st.sampled_from(u), max_size=8)) if u else [0]
    return draw(st.permutations(u))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**64 - 1), u=_orbit_indices())
def test_doubling_values_match_the_reference_at_any_indices(seed, u):
    """Each value is f at the window 0.b_u ... b_{u+B-1} that the reference
    reads from two words with Python integers, bit for bit, for a Fourier
    and an indicator observable."""
    for f in (Observable.fourier_mode(1), Observable.indicator(0.25, 0.75)):
        got = orbit_eval(SystemModel.doubling(), f, OrbitPoint.doubling(seed),
                         np.array(u, dtype=np.uint64))
        assert got.tobytes() == _window_reference(f, seed, u).tobytes(), f.kind


_LARGE_MODES = [1, 2**20 + 1, 2**40 + 1, 2**50 + 1, -2**53]


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**64 - 1), f=observables,
       u=st.lists(st.integers(0, _TOP), min_size=1, max_size=8))
@example(seed=7, f=Observable.fourier_mode(2**50 + 1), u=[0, 1, 2**40, _TOP])
@example(seed=7, f=Observable.finite_fourier([[m, 1.0, -0.5] for m in _LARGE_MODES]),
         u=[0, 63, 64, 2**62 + 11])
@example(seed=0, f=Observable.finite_fourier([[3, 0.0, 5e-324]]), u=[0])
def test_doubling_values_are_within_the_table_bound(seed, f, u):
    """Each doubling value lies within orbit_eval's (27 t + K) eps sum|c_m|
    of the exact sum_m c_m e((m w mod 2**B) / 2**B), w the window integer,
    with t = 5 tables (w < 2**53), at every mode up to 2**53 and every
    uint64 index. The reference (oracles.doubling_fourier) adds at most
    (6 + K) eps sum|c_m| of its own, and a subnormal c_m 28 2**-1075 per
    mode, as in the rotation test with t = 5. Where doubling values took
    m x in doubles, the error at m = 2**50 + 1 reached 0.39."""
    got = orbit_eval(SystemModel.doubling(), f, OrbitPoint.doubling(seed),
                     np.array(u, dtype=np.uint64))
    terms = [(f.mode, 1)] if f.kind == "fourier_mode" else f.terms
    c_l1 = sum(abs(c) for _, c in terms)
    bound = (27 * 5 + 2 * len(terms) + 6) * _EPS * c_l1 + 14 * len(terms) * _TINY
    for g, v in zip(got, u):
        want = oracles.doubling_fourier(seed, v, terms, _B)
        assert abs(g - want) <= bound, (v, abs(g - want), bound)


def test_orbit_rejects_non_integer_indices():
    sys_ = SystemModel.rotation(0.25)
    f = Observable.fourier_mode(1)
    pt = OrbitPoint.rotation(0.0)
    with pytest.raises(TypeError):
        orbit_eval(sys_, f, pt, np.array([1.0, 2.0]))


def test_orbit_rejects_negative_and_empty():
    sys_ = SystemModel.rotation(0.25)
    f = Observable.fourier_mode(1)
    pt = OrbitPoint.rotation(0.0)
    with pytest.raises(ValueError):
        orbit_eval(sys_, f, pt, np.array([-1], dtype=np.int64))
    with pytest.raises(ValueError):
        orbit_eval(sys_, f, pt, np.array([], dtype=np.int64))
    # every uint64 index has its window: words k and k + 1 <= 2**58
    top = np.array([2**64 - 1], dtype=np.uint64)
    got = orbit_eval(SystemModel.doubling(), f, OrbitPoint.doubling(seed=1), top)
    assert got.tobytes() == _window_reference(f, 1, [2**64 - 1]).tobytes()


def test_mismatched_point_kind():
    f = Observable.fourier_mode(1)
    with pytest.raises(ValueError):
        orbit_eval(SystemModel.doubling(), f, OrbitPoint.rotation(0.0),
                   np.array([1], dtype=np.int64))
    with pytest.raises(ValueError):
        orbit_eval(SystemModel.rotation(0.25), f,
                   OrbitPoint.doubling(seed=1),
                   np.array([1], dtype=np.int64))


# ------------------------------------------------------------- observables

def test_observable_values():
    """Each kind at known positions, along the rotation by 1/60 from 0."""
    def at(f, u):
        return orbit_eval(SystemModel.rotation(Fraction(1, 60)), f, OrbitPoint.rotation([0, 1]),
                          np.array(u, dtype=np.int64))

    got = at(Observable.fourier_mode(3), [0, 15, 20])  # x = 0, 1/4, 1/3
    assert got[0] == 1.0
    assert got[1] == pytest.approx(complex(0, -1), abs=1e-12)  # e^{2 pi i 3/4}
    assert got[2] == pytest.approx(1.0, abs=1e-12)
    # x = 1/4, 3/10 and 1/2 against [1/4, 1/2)
    assert at(Observable.indicator(0.25, 0.5), [15, 18, 30]).tolist() == [1.0, 1.0, 0.0]
    assert at(Observable.finite_fourier([(0, 1.0), (2, 2.0)]), [0])[0] == pytest.approx(3.0)


def test_observable_values_do_not_depend_on_the_array_size():
    """Doubling orbit values of a slice are the slice of orbit values, bit
    for bit, on arrays short and long enough for numpy to reuse a
    temporary (2**14 complex entries), though a piece builds only as many
    tables as its largest window needs. The rotation tests above cut
    rotation orbits the same way."""
    u = np.random.default_rng(3).integers(0, 2**62, 40_000)
    edges = [*range(0, 1000, 100), 1000, 1001, 17_000, u.size]
    system, point = SystemModel.doubling(), OrbitPoint.doubling(3)
    for f in (Observable.fourier_mode(3), Observable.indicator(0.2, 0.7),
              Observable.finite_fourier([[1, 0.3, 0.7], [-2, -1.1, 0.45]])):
        parts = [orbit_eval(system, f, point, u[i:j]) for i, j in zip(edges, edges[1:])]
        whole = orbit_eval(system, f, point, u)
        assert whole.tobytes() == np.concatenate(parts).tobytes(), f.kind


def test_observable_validation():
    with pytest.raises(ValueError):
        Observable(kind="sine")
    with pytest.raises(ValueError):
        Observable.fourier_mode(1.5)
    with pytest.raises(ValueError):
        Observable.indicator(0.5, 0.5)
    with pytest.raises(ValueError):
        Observable.indicator(-0.1, 0.5)
    with pytest.raises(ValueError):
        Observable.finite_fourier([])
    with pytest.raises(ValueError):
        Observable.finite_fourier([(1, 1.0), (1, 2.0)])


@pytest.mark.parametrize("make", [
    Observable.fourier_mode, lambda m: Observable.finite_fourier([(m, 1.0)])],
    ids=["fourier_mode", "finite_fourier"])
def test_observable_modes_stop_at_2_53(make):
    """Configs may ask for modes up to |m| = 2**53 and no further. At
    m = +-2**53 every value at a doubling point (x = w 2**-53) and at a
    rotation by 1/4 from 1/4 is e(integer) = 1, and comes out exactly 1."""
    u = np.array([0, 1, 5, 2**40 + 3], dtype=np.int64)
    for m in (2**53, -2**53):
        for system, point in ((SystemModel.doubling(), OrbitPoint.doubling(9)),
                              (SystemModel.rotation(Fraction(1, 4)), OrbitPoint.rotation([1, 4]))):
            assert orbit_eval(system, make(m), point, u).tolist() == [1.0] * u.size
    for m in (2**53 + 1, -2**53 - 1, 10**400):
        with pytest.raises(ValueError, match=r"\|m\| <= 2\*\*53"):
            make(m)


def test_observable_round_trip():
    # each JSON form builds through the constructor what the helper builds
    for f, d in (
        (Observable.fourier_mode(-2), {"kind": "fourier_mode", "mode": -2}),
        (Observable.indicator(0.1, 0.9), {"kind": "indicator", "interval": [0.1, 0.9]}),
        (Observable.finite_fourier([(1, 1 + 2j), (-3, 0.5)]),
         {"kind": "finite_fourier", "terms": [[1, 1.0, 2.0], [-3, 0.5, 0.0]]}),
    ):
        g = Observable(**d)
        assert g.kind == f.kind
        assert (g.mode, g.interval, g.terms) == (f.mode, f.interval, f.terms)
        u = np.arange(0, 700, 100)
        system, point = SystemModel.doubling(), OrbitPoint.doubling(4)
        assert (orbit_eval(system, g, point, u).tobytes()
                == orbit_eval(system, f, point, u).tobytes())


# ------------------------------------------------------------- spectral

def test_measure_validation():
    with pytest.raises(ValueError):
        SpectralMeasure(atoms=((1.5, 1.0),))
    with pytest.raises(ValueError):
        SpectralMeasure(atoms=((0.5, 0.0),))
    with pytest.raises(ValueError):
        SpectralMeasure(atoms=((0.5, 1.0), (0.5, 2.0)))
    with pytest.raises(ValueError):
        SpectralMeasure(density=np.ones(3))  # not a power of two
    with pytest.raises(ValueError):
        SpectralMeasure(density=np.zeros(4))  # zero mass
    assert SpectralMeasure.uniform().total_mass() == 1.0


def test_spectral_norm_matches_direct_atoms():
    rng = np.random.default_rng(5)
    w = rng.standard_normal(50)
    u = np.arange(1, 51, dtype=np.int64) ** 2
    atoms = tuple((float(t), float(m)) for t, m in
                  zip(rng.uniform(0, 1, 16), rng.uniform(0.1, 2.0, 16)))
    meas = SpectralMeasure(atoms=atoms)
    direct = math.sqrt(sum(m * abs(oracles.exp_sum(w, u, t)) ** 2 for t, m in atoms))
    got = spectral_l2_norm(w, u, 2.0, meas)
    assert got == pytest.approx(direct / 2.0, rel=1e-9)


def test_spectral_norm_uniform_is_parseval():
    """Against Lebesgue measure the norm is the weight l2 norm when the
    indices are distinct (orthogonality), exact once the grid resolves
    every frequency difference."""
    rng = np.random.default_rng(11)
    w = rng.standard_normal(40)
    u = np.sort(rng.choice(3000, size=40, replace=False)).astype(np.int64)
    got = spectral_l2_norm(w, u, 1.0, SpectralMeasure.uniform())
    assert got == pytest.approx(math.sqrt(float(np.sum(w * w))), rel=1e-6)


def test_spectral_norm_rejects_bad_normalizer():
    with pytest.raises(ValueError):
        spectral_l2_norm([1.0], np.array([1], dtype=np.int64), 0.0,
                         SpectralMeasure.uniform())


def test_contraction_surrogate():
    """Triangle inequality: the spectral norm never exceeds
    sum |w_k| * sqrt(total mass)."""
    rng = np.random.default_rng(3)
    meas = SpectralMeasure(
        atoms=((0.123, 0.7), (Fraction(1, 3), 1.1)),
        density=2.0 * np.ones(8),
    )
    cap = math.sqrt(meas.total_mass())
    for _ in range(20):
        n = int(rng.integers(5, 60))
        w = rng.standard_normal(n)
        u = np.cumsum(rng.integers(1, 9, size=n)).astype(np.int64)
        got = spectral_l2_norm(w, u, 1.0, meas)
        assert got <= float(np.sum(np.abs(w))) * cap + 1e-9


def test_system_round_trip():
    # each JSON form builds through the constructor what the helper builds
    sqrt2 = SystemModel.rotation_sqrt2().theta0
    for sys_, d in (
        (SystemModel.rotation(0.375), {"kind": "rotation", "theta0": 0.375}),
        (SystemModel.rotation_sqrt2(),
         {"kind": "rotation", "theta0": [sqrt2.numerator, sqrt2.denominator]}),
        (SystemModel.doubling(), {"kind": "doubling"}),
    ):
        back = SystemModel(**d)
        assert back.kind == sys_.kind
        assert back.theta0 == sys_.theta0
        assert type(back.theta0) is type(sys_.theta0)
