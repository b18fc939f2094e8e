"""Closed-form bounds for oscillatory sums sum_k exp(2 i pi f(k)).

Two van der Corput style estimates are provided as plain formulas:

* van_der_corput_bound: the second-derivative test. Requires a certified
  concavity floor -f'' >= rho on [a, b]; the linear part of a phase drops
  out of both -f'' and the f'(b) - f'(a) difference, which is exactly why
  one evaluation bounds the sum uniformly over the linear (theta) shift.
* nth_derivative_bound: the n-th derivative test for phases pinched as
  0 < lam <= |f^(n)| <= h*lam; returned with unit leading constant, i.e.
  as an envelope shape rather than a sharp numeric bound.

Alongside them live the envelope exponents for power phases (the steep
delta > 1 regime and the 0 < delta < 1 regime) and the explicit harmonic
sum bound 30(|h| + 1/|h|) for phases h*log k (Hlawka's inequality).

Concavity floors are only certified for the declared closed-form families,
via endpoint evaluation plus a per-family monotonicity argument; anything
that cannot be argued soundly raises instead of guessing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

FAMILIES = ("quadratic", "power", "power_plus_linear", "log_power", "log_linear")


@dataclass(frozen=True)
class PhaseFunction:
    """A closed-form phase family member with evaluators for f and its
    derivatives.

    quadratic:          f(x) = c2 x^2 + c1 x
    power:              f(x) = x^delta
    power_plus_linear:  f(x) = theta x^d + x^delta
    log_power:          f(x) = (log x)^delta
    log_linear:         f(x) = h log x + theta x
    """

    kind: str
    c2: float = 0.0
    c1: float = 0.0
    delta: float | None = None
    theta: float = 0.0
    d: int = 1
    h: float | None = None

    def __post_init__(self):
        if self.kind not in FAMILIES:
            raise ValueError(f"unknown phase family {self.kind!r}")
        if self.kind in ("power", "power_plus_linear", "log_power"):
            if self.delta is None or self.delta <= 0:
                raise ValueError(f"{self.kind} requires delta > 0")
        if self.kind == "power_plus_linear" and self.d < 1:
            raise ValueError("power_plus_linear requires integer d >= 1")
        if self.kind == "log_linear" and (self.h is None or self.h == 0):
            raise ValueError("log_linear requires h != 0")

    # -- evaluators ---------------------------------------------------------

    def value(self, x):
        x = np.asarray(x, dtype=np.float64)
        if self.kind == "quadratic":
            return self.c2 * x * x + self.c1 * x
        if self.kind == "power":
            return np.power(x, self.delta)
        if self.kind == "power_plus_linear":
            return self.theta * np.power(x, self.d) + np.power(x, self.delta)
        if self.kind == "log_power":
            return np.power(np.log(x), self.delta)
        if self.kind == "log_linear":
            return self.h * np.log(x) + self.theta * x
        raise AssertionError(self.kind)

    def d1(self, x):
        x = np.asarray(x, dtype=np.float64)
        if self.kind == "quadratic":
            return 2.0 * self.c2 * x + self.c1
        if self.kind == "power":
            return self.delta * np.power(x, self.delta - 1.0)
        if self.kind == "power_plus_linear":
            return self.theta * self.d * np.power(x, self.d - 1) + self.delta * np.power(
                x, self.delta - 1.0
            )
        if self.kind == "log_power":
            return self.delta * np.power(np.log(x), self.delta - 1.0) / x
        if self.kind == "log_linear":
            return self.h / x + self.theta
        raise AssertionError(self.kind)

    def d2(self, x):
        x = np.asarray(x, dtype=np.float64)
        if self.kind == "quadratic":
            return np.full_like(x, 2.0 * self.c2)
        if self.kind == "power":
            return self.delta * (self.delta - 1.0) * np.power(x, self.delta - 2.0)
        if self.kind == "power_plus_linear":
            lin = self.theta * self.d * (self.d - 1) * np.power(x, self.d - 2)
            return lin + self.delta * (self.delta - 1.0) * np.power(x, self.delta - 2.0)
        if self.kind == "log_power":
            L = np.log(x)
            return (
                self.delta
                * np.power(L, self.delta - 2.0)
                * ((self.delta - 1.0) - L)
                / (x * x)
            )
        if self.kind == "log_linear":
            return -self.h / (x * x)
        raise AssertionError(self.kind)

    # -- concavity floor ----------------------------------------------------

    def neg_d2_min(self, a: float, b: float) -> float:
        """Sound lower bound for min over [a, b] of -f''.

        Per family: constant (quadratic); endpoint minimum of a monotone
        expression (power, log_linear); sum of endpoint minima of two
        monotone terms (power_plus_linear, conservative); for log_power the
        expression is provably decreasing once log x >= max(delta, 2), and
        anything left of that is refused rather than guessed.
        """
        if not a < b:
            raise ValueError("need a < b")
        if self.kind == "quadratic":
            return -2.0 * self.c2
        if self.kind in ("power", "log_linear"):
            return float(min(-self.d2(a), -self.d2(b)))
        if self.kind == "power_plus_linear":
            lin = lambda x: -self.theta * self.d * (self.d - 1) * x ** (self.d - 2)  # noqa: E731
            pw = lambda x: -self.delta * (self.delta - 1.0) * x ** (self.delta - 2.0)  # noqa: E731
            return float(min(lin(a), lin(b)) + min(pw(a), pw(b)))
        if self.kind == "log_power":
            if a <= 0 or math.log(a) < max(self.delta, 2.0):
                raise ValueError(
                    "log_power concavity floor certified only for log a >= max(delta, 2)"
                )
            return float(-self.d2(b))
        raise AssertionError(self.kind)


def van_der_corput_bound(pf: PhaseFunction, a: float, b: float, rho: float) -> float:
    """Second-derivative test: with -f'' >= rho > 0 on [a, b],

        |sum_{a <= k <= b} exp(2 i pi f(k))| <= (|f'(b) - f'(a)| + 2) (4/sqrt(rho) + 3).

    The concavity floor is verified through the family's neg_d2_min; a
    floor that cannot be certified raises. Linear phase terms shift f' by a
    constant and vanish from the difference, so the value bounds the sum
    uniformly over linear shifts of the phase.
    """
    if not a < b:
        raise ValueError("need a < b")
    if rho <= 0:
        raise ValueError("need rho > 0")
    floor = pf.neg_d2_min(a, b)
    if floor < rho * (1.0 - 1e-12):
        raise ValueError(
            f"concavity precondition fails: min(-f'') = {floor:.6g} < rho = {rho:.6g}"
        )
    swing = abs(float(pf.d1(b)) - float(pf.d1(a)))
    return (swing + 2.0) * (4.0 / math.sqrt(rho) + 3.0)


def nth_derivative_bound(n: int, lam: float, h: float, N: float) -> float:
    """n-th derivative test envelope, with K = 2**n and unit constant:

        h * N * (lam**(1/(K-2)) + N**(-2/K) + (N**n * lam)**(-2/K)).

    Valid shape for n >= 2 when 0 < lam <= |f^(n)| <= h*lam on a length-N
    range; the suppressed absolute constant means only ratios and scaling
    against this envelope are meaningful, not literal domination.
    """
    if not isinstance(n, (int, np.integer)) or n < 2:
        raise ValueError("need integer n >= 2")
    if lam <= 0:
        raise ValueError("need lam > 0")
    if h < 1:
        raise ValueError("need h >= 1")
    if N < 1:
        raise ValueError("need N >= 1")
    K = 2**n
    return float(
        h * N * (lam ** (1.0 / (K - 2)) + N ** (-2.0 / K) + (N**n * lam) ** (-2.0 / K))
    )


def power_derivative_range(delta: float, n: int, a: float, b: float) -> tuple[float, float]:
    """(lam, h) pinching |f^(n)| for f = x**delta on [a, b]:
    lam = min endpoint value, h = max/min. Monotone in x, so endpoints
    suffice. Raises if the derivative vanishes (integer delta < n)."""
    if not 0 < a < b:
        raise ValueError("need 0 < a < b")
    coef = 1.0
    for i in range(n):
        coef *= delta - i
    if coef == 0.0:
        raise ValueError("derivative vanishes for this delta and n")
    va = abs(coef) * a ** (delta - n)
    vb = abs(coef) * b ** (delta - n)
    lam = min(va, vb)
    return lam, max(va, vb) / lam


def frac_dist(x: float) -> float:
    """Distance to the nearest integer: min(frac(x), 1 - frac(x))."""
    f = x - math.floor(x)
    return min(f, 1.0 - f)


def power_phase_exponent(delta: float) -> float:
    """Envelope exponent for weights exp(2 i pi k**delta) with 0 < delta < 1
    along linear indices: sup_theta |V_N| <= C N**(1 - delta/2)."""
    if not 0 < delta < 1:
        raise ValueError("need 0 < delta < 1")
    return 1.0 - delta / 2.0


def steep_power_phase_exponent(delta: float) -> float:
    """Envelope exponent for weights exp(2 i pi k**delta) with non-integer
    delta > 1: with K = 2**ceil(delta),

        exponent = 1 - dist(delta, Z) * 2 / (3 (K - 2)).

    Integer delta gives polynomial phases with no such gain and is
    rejected."""
    if delta <= 1:
        raise ValueError("need delta > 1")
    if delta == math.floor(delta):
        raise ValueError("integer delta is not in this family")
    K = 2 ** math.ceil(delta)
    return 1.0 - frac_dist(delta) * 2.0 / (3.0 * (K - 2))


def hlawka_bound(h: float) -> float:
    """Uniform bound 30 (|h| + 1/|h|) for sup over theta and (M, N) of
    |sum_{M <= k <= N} exp(2 i pi (h log k + theta k)) / k|, h != 0."""
    if h == 0:
        raise ValueError("need h != 0")
    return 30.0 * (abs(h) + 1.0 / abs(h))
