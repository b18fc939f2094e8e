"""Systems, observables, orbit evaluation, spectral norms."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ergosum.dynamics import (
    DEFAULT_BIT_WINDOW,
    MAX_ANGLE_DEN,
    Observable,
    OrbitPoint,
    SpectralMeasure,
    SystemModel,
    orbit_eval,
    spectral_l2_norm,
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
    reads from two words with Python integers, bit for bit."""
    f = Observable.fourier_mode(1)
    got = orbit_eval(SystemModel.doubling(), f, OrbitPoint.doubling(seed),
                     np.array(u, dtype=np.uint64))
    x = [oracles.doubling_window(seed, v, _B) for v in u]
    assert got.tobytes() == f.eval(np.array(x)).tobytes()


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
    assert got.tobytes() == f.eval(np.array([oracles.doubling_window(1, 2**64 - 1)])).tobytes()


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

def test_observable_values_and_norms():
    f = Observable.fourier_mode(3)
    x = np.array([0.0, 0.25, 1.0 / 3.0])
    got = f.eval(x)
    assert got[0] == pytest.approx(1.0)
    assert got[1] == pytest.approx(complex(0, -1), abs=1e-12)  # e^{2 pi i 3/4}
    assert got[2] == pytest.approx(1.0, abs=1e-12)
    assert f.l2_norm() == 1.0

    g = Observable.indicator(0.25, 0.5)
    assert g.eval(np.array([0.25, 0.3, 0.5]))[0] == 1.0
    assert g.eval(np.array([0.5]))[0] == 0.0
    assert g.l2_norm() == pytest.approx(0.5)

    h = Observable.finite_fourier([(0, 1.0), (2, 2.0)])
    assert h.l2_norm() == pytest.approx(math.sqrt(5.0))
    assert h.eval(np.array([0.0]))[0] == pytest.approx(3.0)


def test_observable_values_do_not_depend_on_the_array_size():
    """Values of a slice are the slice of values, bit for bit, on arrays
    short and long enough for numpy to reuse a temporary (2**14 complex
    entries): each finite_fourier product is e * c in one operand order."""
    x = np.random.default_rng(3).random(40_000)
    for f in (Observable.fourier_mode(3), Observable.indicator(0.2, 0.7),
              Observable.finite_fourier([[1, 0.3, 0.7], [-2, -1.1, 0.45]])):
        parts = np.concatenate([f.eval(x[i : i + 100]) for i in range(0, x.size, 100)])
        assert f.eval(x).tobytes() == parts.tobytes(), f.kind


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
        x = np.linspace(0.0, 0.99, 7)
        assert np.allclose(g.eval(x), f.eval(x))


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
    got = spectral_l2_norm(w, u, 1.0, SpectralMeasure.uniform(),
                           theta_resolution=8192)
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
        got = spectral_l2_norm(w, u, 1.0, meas, theta_resolution=4096)
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
