"""Independent reference implementations used by the tests.

Everything here is deliberately slow and simple: plain Python loops,
Fraction arithmetic, trial division, textbook quadrature. These are the
yardsticks the fast library paths are measured against, so nothing in
this file may import from the package under test.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def moebius(n: int) -> int:
    if n < 1:
        raise ValueError("moebius needs n >= 1")
    out = 1
    p = 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            out = -out
        p += 1 if p == 2 else 2
    if n > 1:
        out = -out
    return out


def dirichlet_modulus(N: int, theta: float) -> float:
    """|sum_{k=1}^{N} e^{2 pi i k theta}| in closed form."""
    s = math.sin(math.pi * theta)
    if s == 0.0:
        return float(N)
    return abs(math.sin(math.pi * N * theta) / s)


def exp_sum(weights, indices, theta) -> complex:
    """Plain-loop sum w_k e^{2 pi i u_k theta} (float or Fraction theta)."""
    total = 0j
    for w, u in zip(weights, indices):
        if isinstance(theta, Fraction):
            ph = Fraction(int(u)) * theta
            ph -= math.floor(ph)
            ang = 2.0 * math.pi * float(ph)
        else:
            ang = 2.0 * math.pi * (float(u) * theta % 1.0)
        total += complex(w) * cmath.exp(1j * ang)
    return total


def harmonic_exp_sum(weights, indices, theta, k_first: int = 1) -> complex:
    total = 0j
    for j, (w, u) in enumerate(zip(weights, indices)):
        k = k_first + j
        ang = 2.0 * math.pi * (float(u) * theta % 1.0)
        total += complex(w) / k * cmath.exp(1j * ang)
    return total


def rotation_orbit(theta0: Fraction, x0: Fraction, u: int) -> Fraction:
    """Exact x0 + u * theta0 mod 1 as a Fraction."""
    v = x0 + u * theta0
    return v - math.floor(v)


def binary_fraction(digits) -> float:
    """0.d_1 d_2 ... d_n in binary, exactly for n <= 53: the digits read
    as one integer, over 2**n."""
    return math.ldexp(int("".join(str(int(d)) for d in digits), 2), -len(digits))


def adaptive_quad(fn, a: float, b: float, tol: float = 1e-12, depth: int = 50) -> float:
    """Adaptive Simpson quadrature, independent of scipy."""

    def simpson(lo, hi):
        mid = 0.5 * (lo + hi)
        return mid, (hi - lo) / 6.0 * (fn(lo) + 4.0 * fn(mid) + fn(hi))

    def rec(lo, hi, whole, mid, eps, d):
        lm, left = simpson(lo, mid)
        rm, right = simpson(mid, hi)
        if d <= 0 or abs(left + right - whole) <= 15.0 * eps:
            return left + right + (left + right - whole) / 15.0
        return (rec(lo, mid, left, lm, eps / 2.0, d - 1)
                + rec(mid, hi, right, rm, eps / 2.0, d - 1))

    mid, whole = simpson(a, b)
    return rec(a, b, whole, mid, tol, depth)


def prefix_sums(values) -> list[complex]:
    """Running sums by plain accumulation: out[i] = sum(values[: i + 1])."""
    out = []
    total = 0j
    for v in values:
        total += complex(v)
        out.append(total)
    return out


def power_sum_brute(delta: float, k_lo: int, k_hi: int) -> float:
    """|sum_{k=k_lo}^{k_hi} e^{2 pi i k^delta}| by direct evaluation."""
    total = 0j
    for k in range(k_lo, k_hi + 1):
        total += cmath.exp(2j * math.pi * (k**delta % 1.0))
    return abs(total)
