"""Trigonometric sums: grid evaluation, certified sup estimates."""

import math
from fractions import Fraction

import numpy as np
import pytest

from ergosum._kernels import frac_of, pairwise_sum
from ergosum.trigsum import (
    ThetaGrid,
    default_grid,
    eval_grid,
    eval_harmonic,
    eval_sum,
    sup_envelope,
    sup_harmonic,
)
from ergosum.weights import WeightSpec, gen_weights, moebius_sieve

import oracles


def test_eval_sum_matches_oracle():
    w = np.exp(2j * np.pi * np.sqrt(np.arange(1, 200)))
    u = np.arange(1, 200, dtype=np.int64)
    for theta in (0.0, 0.123, 0.999, 1.0 / 3.0):
        want = oracles.exp_sum(w, u, theta)
        assert eval_sum(w, u, theta) == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("n", [16_383, 20_000, 70_000])
def test_eval_sum_multiplies_weight_by_exponential(n):
    """The terms are np.multiply(w, e) in that operand order at every size:
    numpy evaluates w * tmp as tmp * w once tmp has 2**14 entries, and with
    fused multiply-adds the two orders can differ in the last bit."""
    rng = np.random.default_rng(n)
    w = np.exp(2j * np.pi * rng.uniform(size=n))
    u = rng.integers(0, 10**9, size=n)
    e = np.exp(2j * np.pi * frac_of(0.3819660112501051, u))
    assert eval_sum(w, u, 0.3819660112501051) == pairwise_sum(np.multiply(w, e))


def test_eval_sum_fraction_theta_exact_rational_reduction():
    w = np.ones(50, dtype=np.complex128)
    u = np.arange(1, 51, dtype=np.int64) ** 2
    theta = Fraction(3, 7)
    want = oracles.exp_sum(w, u, theta)
    assert eval_sum(w, u, theta) == pytest.approx(want, rel=1e-12)


def test_eval_grid_exact_at_grid_points():
    """FFT scatter evaluation equals direct evaluation on each grid point."""
    rng = np.random.default_rng(0)
    w = rng.standard_normal(64) + 1j * rng.standard_normal(64)
    u = np.sort(rng.choice(500, size=64, replace=False)).astype(np.int64)
    grid = ThetaGrid(1024)
    vals = eval_grid(w, u, grid)
    for i in (0, 1, 511, 1023):
        theta = i / 1024
        assert vals[i] == pytest.approx(eval_sum(w, u, theta), rel=1e-10, abs=1e-10)


_LD_EPS = float(np.finfo(np.longdouble).eps)


def _dft_longdouble(w, u, L):
    """V(j / L) for every j by a direct sum in long double, with twiddles
    e^{2 pi i t / L} tabulated once and indexed by t = (u_k j) mod L."""
    two_pi = 8 * np.arctan(np.longdouble(1))
    t = np.arange(L, dtype=np.longdouble) * (two_pi / L)
    cos_t, sin_t = np.cos(t), np.sin(t)
    wr, wi = w.real.astype(np.longdouble), w.imag.astype(np.longdouble)
    r = (u % L).astype(np.int64)
    out = np.empty(L, dtype=np.clongdouble)
    for j0 in range(0, L, 256):
        idx = np.outer(np.arange(j0, min(j0 + 256, L)), r) % L
        c, s = cos_t[idx], sin_t[idx]
        out[j0:j0 + idx.shape[0]] = ((c * wr - s * wi).sum(axis=1)
                                     + 1j * (s * wr + c * wi).sum(axis=1))
    return out


@pytest.mark.skipif(_LD_EPS > 1e-18, reason="needs an extended-precision long double")
@pytest.mark.parametrize("L", [16, 256, 1000, 1024, 3000, 4096])
def test_fft_rounding_within_allowance(L):
    """eval_grid's error against a long-double DFT stays within the FFT
    rounding allowance 8 eps (log2 L + 1) sum |w| of sup_envelope. The
    factor 8 has no proof for pocketfft's mixed radix, so this test is its
    check. Residues u mod L are distinct: terms sharing a bin add rounding
    the allowance does not cover."""
    rng = np.random.default_rng(L)
    m = min(L // 2, 1024)
    u = rng.choice(L, size=m, replace=False) + L * rng.integers(0, 1000, size=m)
    phases = np.exp(2j * np.pi * rng.random(m))
    gaussian = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    for w in (phases, gaussian, np.ones(m, dtype=np.complex128)):
        got = eval_grid(w, u, ThetaGrid(L)).astype(np.clongdouble)
        err = float(np.abs(got - _dft_longdouble(w, u, L)).max())
        allowance = 8 * np.finfo(np.float64).eps * (math.log2(L) + 1) * np.abs(w).sum()
        assert err <= allowance


def test_dirichlet_kernel_modulus():
    """w = 1, u = k: |V_N(theta)| has the classic sine-ratio closed form."""
    N = 100
    w = np.ones(N, dtype=np.complex128)
    u = np.arange(1, N + 1, dtype=np.int64)
    rng = np.random.default_rng(1)
    for theta in rng.uniform(0.0, 1.0, 50):
        got = abs(eval_sum(w, u, float(theta)))
        assert got == pytest.approx(oracles.dirichlet_modulus(N, float(theta)), rel=1e-9)


def test_sup_envelope_dirichlet_peak():
    """The sup of the Dirichlet sum is exactly N, attained at theta = 0."""
    for N in (10, 100):
        w = np.ones(N, dtype=np.complex128)
        u = np.arange(1, N + 1, dtype=np.int64)
        est = sup_envelope(w, u)
        assert est.lower == pytest.approx(N, rel=1e-12)
        assert est.upper == pytest.approx(N, rel=1e-12)
        assert est.lower <= est.upper
        assert min(est.argmax_theta, 1.0 - est.argmax_theta) < 1e-3
        assert not est.aliased


def test_certificate_orders_and_weight_mass_cap():
    rng = np.random.default_rng(2)
    w = np.exp(2j * np.pi * rng.uniform(size=300))
    u = np.arange(1, 301, dtype=np.int64)
    est = sup_envelope(w, u)
    assert 0.0 <= est.lower <= est.upper <= est.weight_l1 * (1 + 1e-12)


def test_sup_upper_dominates_random_probes():
    """Certified upper bounds |V| at arbitrary probe points."""
    rng = np.random.default_rng(3)
    w = np.exp(2j * np.pi * np.cbrt(np.arange(1, 129)))
    u = np.arange(1, 129, dtype=np.int64)
    est = sup_envelope(w, u)
    probes = rng.uniform(0.0, 1.0, 2000)
    vals = np.abs([eval_sum(w, u, float(t)) for t in probes])
    assert vals.max() <= est.upper * (1 + 1e-9)


def test_aliased_flag():
    w = np.ones(8, dtype=np.complex128)
    u = (np.arange(1, 9, dtype=np.int64)) ** 3  # u_max = 512
    with pytest.warns(RuntimeWarning):
        est = sup_envelope(w, u, grid=ThetaGrid(64))
    assert est.aliased  # pi * 511 / 64 > sqrt 2: no Bernstein bound
    est2 = sup_envelope(w, u)
    assert not est2.aliased


def test_vacuous_certificate_warns():
    w = np.ones(4, dtype=np.complex128)
    u = np.array([10**7, 2 * 10**7, 3 * 10**7, 4 * 10**7], dtype=np.int64)
    with pytest.warns(RuntimeWarning):
        sup_envelope(w, u, grid=ThetaGrid(16))


def test_default_grid_scales():
    g = default_grid(1000, 1000)
    assert g.points >= 16 * 1000
    assert g.points & (g.points - 1) == 0  # power of two


def _dense_max(w, u, points=50_001):
    """Brute-force max of |V| on a dense grid. Phases use u - u_min, which
    leaves |V| unchanged; with u_max - u_min < 300 the dense grid misses the
    sup by less than 2e-4 relative, far below the certificate's slack."""
    thetas = np.arange(points) / points
    phase = np.outer(u - u.min(), thetas) % 1.0
    return float(np.abs(w @ np.exp(2j * np.pi * phase)).max())


def test_certificate_holds_on_random_offset_blocks():
    """upper bounds the dense maximum over all theta and lower is at most
    |V| at the reported argmax, on default grids and on coarse grids just
    fine enough for the Bernstein bound (pi D h < sqrt 2)."""
    rng = np.random.default_rng(11)
    for case in range(40):
        n = int(rng.integers(1, 40))
        offset = int(rng.integers(1, 5000))
        pool = int(rng.integers(n, 300))
        u = np.sort(rng.choice(pool, size=n, replace=False)).astype(np.int64) + offset
        w = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        span = int(u.max() - u.min())
        grid = None
        if case % 2 and span > 0:
            lo = math.ceil(math.pi * span / math.sqrt(2)) + 1
            grid = ThetaGrid(int(rng.integers(lo, 4 * span + 8)))
        est = sup_envelope(w, u, grid=grid)
        assert not est.aliased
        assert 0.0 <= est.lower <= est.upper <= est.weight_l1
        assert _dense_max(w, u) <= est.upper
        assert est.lower <= abs(eval_sum(w, u, est.argmax_theta))


def test_constant_weights_bracket_the_exact_sup():
    N = 100_000
    est = sup_envelope(np.ones(N), np.arange(1, N + 1, dtype=np.int64))
    assert est.lower <= N <= est.upper
    assert est.upper - est.lower <= 1e-9 * N


def test_fallback_to_weight_mass():
    rng = np.random.default_rng(12)
    w = np.exp(2j * np.pi * rng.uniform(size=64))
    u = np.arange(1000, 1064, dtype=np.int64)
    # pi * 63 / 32 > sqrt 2: no Bernstein bound on 32 points
    with pytest.warns(RuntimeWarning):
        est = sup_envelope(w, u, grid=ThetaGrid(32))
    assert est.aliased
    assert est.upper == est.weight_l1
    assert est.lower <= est.upper


def test_default_grid_depends_on_block_length_only():
    """An (M, N] block of u = k gets the grid of (0, N - M]."""
    for M, N in ((0, 1000), (1000, 2000), (3 * 10**6, 3 * 10**6 + 1000),
                 (1 << 15, 1 << 16)):
        u = np.arange(M + 1, N + 1, dtype=np.int64)
        head = np.arange(1, N - M + 1, dtype=np.int64)
        assert default_grid(u.size, int(u[-1] - u[0])) == default_grid(
            head.size, int(head[-1] - head[0]))
        w = np.ones(u.size)
        assert sup_envelope(w, u).grid_points == sup_envelope(w, head).grid_points


def test_eval_harmonic_small_closed_form():
    # w = 1, u = k, theta = 0: 1 + 1/2 + 1/3 = 11/6
    w = np.ones(3, dtype=np.complex128)
    u = np.arange(1, 4, dtype=np.int64)
    got = eval_harmonic(w, u, 0.0, k_first=1)
    assert got == pytest.approx(11.0 / 6.0, rel=1e-15)


def test_sup_harmonic_matches_divided_weights():
    w = np.exp(2j * np.pi * np.log(np.arange(1, 65)))
    u = np.arange(1, 65, dtype=np.int64)
    est = sup_harmonic(w, u, k_first=1)
    est2 = sup_envelope(w / u, u)
    assert est.upper == pytest.approx(est2.upper, rel=1e-12)


def test_moebius_weights_at_zero_give_mertens():
    N = 100
    spec = WeightSpec(kind="moebius")
    w = gen_weights(spec, 1, N + 1)
    u = np.arange(1, N + 1, dtype=np.int64)
    mu = moebius_sieve(N)
    assert eval_sum(w, u, 0.0) == pytest.approx(float(mu[1:].sum()), abs=1e-12)


def test_shape_validation():
    with pytest.raises(ValueError):
        eval_sum(np.ones(3), np.arange(4), 0.1)
    with pytest.raises(TypeError):
        eval_sum(np.ones(3), np.array([0.5, 1.5, 2.5]), 0.1)
