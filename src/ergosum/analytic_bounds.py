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
from dataclasses import dataclass, fields
from typing import Callable

import numpy as np

from ._kernels import is_int, is_real

# x**e and its first two derivatives, as functions of (x, e)
_POWER = (lambda x, e: np.power(x, e),
          lambda x, e: e * np.power(x, e - 1.0),
          lambda x, e: e * (e - 1.0) * np.power(x, e - 2.0))


def _ends(g, a, b) -> float:
    """min(-g(a), -g(b)): the minimum of -g on [a, b] when g is monotone."""
    return float(min(-g(a), -g(b)))


def _log_power_floor(pf, a, b) -> float:
    # -f'' is decreasing once log x >= max(delta, 2)
    if a <= 0 or math.log(a) < max(pf.delta, 2.0):
        raise ValueError("log_power concavity floor certified only for log a >= max(delta, 2)")
    return float(-pf.d2(b))


@dataclass(frozen=True)
class _Family:
    """derivs holds f, f' and f'' as functions of (x, *params), params the
    PhaseFunction fields named in reads; floor(pf, a, b) is a sound lower
    bound for min over [a, b] of -f'', by default its endpoint minimum."""

    reads: tuple[str, ...]
    derivs: tuple[Callable, Callable, Callable]
    floor: Callable = lambda pf, a, b: _ends(pf.d2, a, b)


_TABLE = {
    "quadratic": _Family(("c2", "c1"), (
        lambda x, c2, c1: c2 * x * x + c1 * x,
        lambda x, c2, c1: 2.0 * c2 * x + c1,
        lambda x, c2, c1: np.full_like(x, 2.0 * c2))),
    "power": _Family(("delta",), _POWER),
    # f, f' and f'' from those of the two powers; the floor adds the
    # endpoint minima of the two monotone terms of f''
    "power_plus_linear": _Family(
        ("theta", "d", "delta"),
        tuple(lambda x, t, d, e, g=g: t * g(x, d) + g(x, e) for g in _POWER),
        lambda pf, a, b: _ends(lambda x: pf.theta * _POWER[2](x, pf.d), a, b)
        + _ends(lambda x: _POWER[2](x, pf.delta), a, b)),
    "log_power": _Family(("delta",), (
        lambda x, delta: np.power(np.log(x), delta),
        lambda x, delta: delta * np.power(np.log(x), delta - 1.0) / x,
        lambda x, delta: (delta * np.power(np.log(x), delta - 2.0)
                          * ((delta - 1.0) - np.log(x)) / (x * x))), _log_power_floor),
    "log_linear": _Family(("h", "theta"), (
        lambda x, h, theta: h * np.log(x) + theta * x,
        lambda x, h, theta: h / x + theta,
        lambda x, h, theta: -h / (x * x))),
}

FAMILIES = tuple(_TABLE)

# what a parameter must be, past a finite real number, in every family that reads it
_RULES = {"delta": ("a finite real delta > 0", lambda v: v > 0),
          "h": ("a finite real h != 0", lambda v: v != 0),
          "d": ("an integer d >= 1", lambda v: is_int(v) and v >= 1)}


def _derivative(n: int):
    """The method x -> f^(n)(x) of a PhaseFunction, from its family's row."""
    def evaluate(pf, x):
        row = _TABLE[pf.kind]
        params = [getattr(pf, name) for name in row.reads]
        return row.derivs[n](np.asarray(x, dtype=np.float64), *params)
    return evaluate


@dataclass(frozen=True)
class PhaseFunction:
    """A member of one of the FAMILIES, each of which reads only its own
    parameters and refuses a value other than None or the default in any
    other; value, d1 and d2 evaluate f, f' and f'':

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
        if self.kind not in _TABLE:
            raise ValueError(f"unknown phase family {self.kind!r}")
        reads = _TABLE[self.kind].reads
        for f in fields(self)[1:]:  # a field the family ignores keeps its default
            v = getattr(self, f.name)
            if f.name not in reads and v is not None and not (is_real(v) and v == f.default):
                raise ValueError(f"{self.kind} reads no {f.name}")
        for name in reads:
            rule, holds = _RULES.get(name, (f"a finite real {name}", lambda v: True))
            v = getattr(self, name)
            if not (is_real(v) and -math.inf < v < math.inf and holds(v)):
                raise ValueError(f"{self.kind} requires {rule}")

    value, d1, d2 = _derivative(0), _derivative(1), _derivative(2)

    def neg_d2_min(self, a: float, b: float) -> float:
        """Sound lower bound for min over [a, b] of -f'': the endpoint
        minimum of a monotone -f'' (quadratic, power, log_linear), the sum
        of the endpoint minima of two monotone terms (power_plus_linear,
        conservative), and for log_power -f''(b), certified only once
        log a >= max(delta, 2) and refused left of that rather than guessed.
        """
        if not a < b:
            raise ValueError("need a < b")
        return _TABLE[self.kind].floor(self, float(a), float(b))


def van_der_corput_bound(pf: PhaseFunction, a: float, b: float, rho: float) -> float:
    """Second-derivative test: with -f'' >= rho > 0 on [a, b],

        |sum_{a <= k <= b} exp(2 i pi f(k))| <= (|f'(b) - f'(a)| + 2) (4/sqrt(rho) + 3).

    The concavity floor is verified through the family's neg_d2_min; a
    floor that cannot be certified, NaN included, raises. Linear phase
    terms shift f' by a constant and vanish from the difference, so the
    value bounds the sum uniformly over linear shifts of the phase.
    """
    if not a < b:
        raise ValueError("need a < b")
    if not rho > 0:
        raise ValueError("need rho > 0")
    floor = pf.neg_d2_min(a, b)
    if not floor >= rho * (1.0 - 1e-12):
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
    against this envelope are meaningful, not literal domination. A NaN
    lam, h or N fails its check.
    """
    if not isinstance(n, (int, np.integer)) or n < 2:
        raise ValueError("need integer n >= 2")
    if not lam > 0:
        raise ValueError("need lam > 0")
    if not h >= 1:
        raise ValueError("need h >= 1")
    if not N >= 1:
        raise ValueError("need N >= 1")
    K = 2**n
    return float(
        h * N * (lam ** (1.0 / (K - 2)) + N ** (-2.0 / K) + (N**n * lam) ** (-2.0 / K))
    )


def power_derivative_range(delta: float, n: int, a: float, b: float) -> tuple[float, float]:
    """(lam, h) pinching |f^(n)| for f = x**delta on [a, b]:
    lam = min endpoint value, h = max/min. Monotone in x, so endpoints
    suffice. Raises if the derivative vanishes (integer delta < n), and
    on a NaN or infinite delta."""
    if not 0 < a < b:
        raise ValueError("need 0 < a < b")
    if not math.isfinite(delta):
        raise ValueError("need a finite delta")
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
