"""Closed-form oscillatory-sum bounds against brute-force summation."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ergosum.analytic_bounds import (
    PhaseFunction,
    frac_dist,
    hlawka_bound,
    nth_derivative_bound,
    power_derivative_range,
    power_phase_exponent,
    steep_power_phase_exponent,
    van_der_corput_bound,
)


def brute_phase_sum(pf: PhaseFunction, a: int, b: int) -> float:
    total = 0j
    for k in range(a, b + 1):
        total += cmath.exp(2j * math.pi * pf.value(k))
    return abs(total)


def test_quadratic_phase_values_and_derivatives():
    pf = PhaseFunction(kind="quadratic", c2=-0.5)  # f(x) = -x^2/2
    assert pf.value(4.0) == pytest.approx(-8.0)
    assert pf.d1(3.0) == pytest.approx(-3.0)
    assert pf.d2(10.0) == pytest.approx(-1.0)


def test_power_and_log_phase_values_and_derivatives():
    """Closed forms of f, f' and f'' for the four non-quadratic families."""
    e3, e = math.exp(3.0), math.e
    cases = [
        # f = x^(1/2) at 4: 2, 1/4, -1/32
        (PhaseFunction(kind="power", delta=0.5), 4.0, (2.0, 0.25, -1.0 / 32.0)),
        # f = 2 x^3 + x^(1/2) at 4: 130, 96 + 1/4, 48 - 1/32
        (PhaseFunction(kind="power_plus_linear", theta=2.0, d=3, delta=0.5), 4.0,
         (130.0, 96.25, 48.0 - 1.0 / 32.0)),
        # f = (log x)^2 at e^3: 9, 6/e^3, 2 (1 - 3)/e^6
        (PhaseFunction(kind="log_power", delta=2.0), e3, (9.0, 6.0 / e3, -4.0 / e3**2)),
        # f = 2 log x + x/4 at e: 2 + e/4, 2/e + 1/4, -2/e^2
        (PhaseFunction(kind="log_linear", h=2.0, theta=0.25), e,
         (2.0 + e / 4.0, 2.0 / e + 0.25, -2.0 / e**2)),
    ]
    for pf, x, (f0, f1, f2) in cases:
        assert pf.value(x) == pytest.approx(f0, rel=1e-13)
        assert pf.d1(x) == pytest.approx(f1, rel=1e-13)
        assert pf.d2(x) == pytest.approx(f2, rel=1e-13)


@pytest.mark.parametrize("pf, a, b", [
    (PhaseFunction(kind="power", delta=0.5), 1.0, 1000.0),
    (PhaseFunction(kind="power", delta=2.5), 2.0, 50.0),
    (PhaseFunction(kind="power_plus_linear", theta=-0.01, d=3, delta=0.5), 1.0, 200.0),
    (PhaseFunction(kind="power_plus_linear", theta=0.3, d=2, delta=1.5), 0.5, 40.0),
    (PhaseFunction(kind="log_power", delta=1.5), math.exp(2.0), math.exp(6.0)),
    (PhaseFunction(kind="log_power", delta=3.0), math.exp(3.0), math.exp(8.0)),
    (PhaseFunction(kind="log_linear", h=3.0, theta=0.2), 1.0, 50.0),
    (PhaseFunction(kind="log_linear", h=-2.0), 2.0, 90.0),
], ids=["power_concave", "power_convex", "power_plus_cubic", "power_plus_quadratic",
        "log_power_1.5", "log_power_3", "log_linear_h3", "log_linear_h-2"])
def test_concavity_floor_is_below_the_sampled_minimum(pf, a, b):
    """neg_d2_min(a, b) is at most -f'' at each of 10^4 points of [a, b]."""
    x = np.linspace(a, b, 10**4)
    assert pf.neg_d2_min(a, b) <= float(np.min(-pf.d2(x)))


def test_log_power_floor_needs_log_a_past_max_delta_2():
    """The floor is certified only once log a >= max(delta, 2)."""
    for delta, log_a in ((3.0, 2.9), (1.0, 1.9), (0.5, 0.0)):
        with pytest.raises(ValueError, match="log a >= max"):
            PhaseFunction(kind="log_power", delta=delta).neg_d2_min(
                math.exp(log_a), math.exp(log_a + 2.0))
    with pytest.raises(ValueError, match="log a >= max"):
        PhaseFunction(kind="log_power", delta=1.0).neg_d2_min(-1.0, 10.0)
    for delta, log_a in ((3.0, 3.0), (1.0, 2.0)):
        assert PhaseFunction(kind="log_power", delta=delta).neg_d2_min(
            math.exp(log_a), math.exp(log_a + 2.0)) > 0.0


@pytest.mark.parametrize("a, b", [(1, 100), (10, 1000), (400, 5000)])
def test_van_der_corput_dominates_square_root_phase_sums(a, b):
    """For f = x^(1/2), -f'' = x^(-3/2)/4 is smallest at b, and the bound
    at that floor dominates the brute-force |sum e(f(k))|."""
    pf = PhaseFunction(kind="power", delta=0.5)
    rho = pf.neg_d2_min(a, b)
    assert rho == pytest.approx(0.25 * b**-1.5, rel=1e-13)
    assert brute_phase_sum(pf, a, b) <= van_der_corput_bound(pf, a, b, rho)


def test_van_der_corput_textbook_checkpoint():
    # f(x) = -x^2/2 on [0, 10], rho = 1: (10 + 2)(4 + 3) = 84
    pf = PhaseFunction(kind="quadratic", c2=-0.5)
    assert van_der_corput_bound(pf, 0.0, 10.0, 1.0) == pytest.approx(84.0)
    assert brute_phase_sum(pf, 0, 10) <= 84.0


def test_van_der_corput_dominates_random_concave_quadratics():
    rng = np.random.default_rng(5)
    for _ in range(60):
        rho = float(rng.uniform(0.05, 1.0))
        b = float(rng.integers(20, 300))
        pf = PhaseFunction(kind="quadratic", c2=-rho / 2.0,
                           c1=float(rng.uniform(-3, 3)))
        bound = van_der_corput_bound(pf, 0.0, b, rho)
        assert brute_phase_sum(pf, 0, int(b)) <= bound * (1 + 1e-12)


def test_nth_derivative_textbook_checkpoint():
    # n = 2 (K = 4), lambda = 1, h = 1, N = 100:
    # 100 (1 + 100^{-1/2} + 100^{-1}) = 111
    assert nth_derivative_bound(2, 1.0, 1.0, 100.0) == pytest.approx(111.0)


def test_nth_derivative_bound_monotone_in_h():
    b1 = nth_derivative_bound(3, 1e-4, 1.0, 1000.0)
    b2 = nth_derivative_bound(3, 1e-4, 2.0, 1000.0)
    assert b2 == pytest.approx(2 * b1)


def test_power_derivative_range_brackets_truth():
    """lam <= f^(n) <= h lam on [a, b] for f = x^delta."""
    delta, n, a, b = 2.5, 3, 10.0, 100.0
    lam, h = power_derivative_range(delta, n, a, b)
    c = delta * (delta - 1) * (delta - 2)
    for x in np.linspace(a, b, 50):
        d3 = c * x ** (delta - 3)
        assert lam * (1 - 1e-12) <= d3 <= h * lam * (1 + 1e-12)


def test_exponents_pinned():
    # 1 - delta/2 for the fractional range
    assert power_phase_exponent(0.5) == pytest.approx(0.75)
    # 1 - ||delta|| 2/(3(K-2)) with K = 8 for delta = 2.5
    assert steep_power_phase_exponent(2.5) == pytest.approx(17.0 / 18.0)


def test_exponents_below_one():
    for d in (0.1, 0.5, 0.9):
        assert 0.5 <= power_phase_exponent(d) < 1.0
    for d in (1.5, 2.5, 3.3, 4.7):
        assert 0.5 <= steep_power_phase_exponent(d) < 1.0


def test_hlawka_bound_values():
    assert hlawka_bound(1.0) == pytest.approx(60.0)
    assert hlawka_bound(0.5) == pytest.approx(75.0)
    assert hlawka_bound(2.0) == pytest.approx(75.0)
    with pytest.raises(ValueError):
        hlawka_bound(0.0)


def test_hlawka_bound_dominates_harmonic_log_sums():
    """Direct check of the closed-form bound at modest N."""
    for h in (0.5, 1.0):
        for theta in (0.0, 0.1, 0.37):
            total = 0j
            for k in range(1, 3001):
                ph = (h * math.log(k) + theta * k) % 1.0
                total += cmath.exp(2j * math.pi * ph) / k
            assert abs(total) <= hlawka_bound(h)


@given(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False))
@settings(max_examples=100, deadline=None)
def test_frac_dist_properties(x):
    d = frac_dist(x)
    assert 0.0 <= d <= 0.5
    assert frac_dist(x + 1.0) == pytest.approx(d, abs=1e-6)


def test_frac_dist_values():
    assert frac_dist(0.25) == pytest.approx(0.25)
    assert frac_dist(2.5) == pytest.approx(0.5)
    assert frac_dist(-0.1) == pytest.approx(0.1)
