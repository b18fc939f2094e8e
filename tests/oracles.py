"""Independent reference implementations used by the tests.

Everything here is deliberately slow and simple: plain Python loops,
Fraction arithmetic, trial division, textbook quadrature. These are the
yardsticks the fast library paths are measured against, so nothing in
this file may import from the package under test, apart from the
counter-based draws that doubling_window reads through _rng.raw64 (whose
bits test_rng checks against SplitMix64 on Python integers);
test_source checks that no other import of the package creeps in.
"""

from __future__ import annotations

import cmath
import functools
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


@functools.cache
def moebius_table(n: int) -> list[int]:
    """mu(0), ..., mu(n) as a list, mu(0) = 0, by a plain sieve over the
    whole range: each prime flips the sign of its multiples and zeroes the
    multiples of its square."""
    mu = [1] * (n + 1)
    mu[0] = 0
    composite = bytearray(n + 1)
    for p in range(2, n + 1):
        if composite[p]:
            continue
        composite[p * p :: p] = b"\x01" * len(range(p * p, n + 1, p))
        mu[p::p] = [-v for v in mu[p::p]]
        mu[p * p :: p * p] = [0] * len(range(p * p, n + 1, p * p))
    return mu


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


@functools.lru_cache(maxsize=1 << 16)
def _word(seed: int, k: int) -> int:
    from ergosum._rng import raw64

    return int(raw64(seed, [k])[0])


def doubling_window(seed: int, u: int, width: int = 53) -> int:
    """The digits b_u b_{u+1} ... b_{u+width-1} of the doubling point of a
    seed as one integer below 2**width, digit n being bit 63 - (n mod 64)
    of _rng.raw64(seed, n // 64): the words k = u // 64 and k + 1 joined as
    one 128-bit Python integer and read from its digit u mod 64 on. T^u of
    the point is this integer over 2**width, up to the digits past the
    window."""
    k, r = divmod(int(u), 64)
    first, second = _word(seed, k), _word(seed, k + 1)
    return ((first << 64 | second) >> (128 - r - width)) % (1 << width)


def circle_exp(phase: Fraction) -> complex:
    """e(phase) = exp(2 pi i phase) by math.cos and math.sin of the exact
    phase taken into [-1/2, 1/2): the argument 2 pi x is off by at most
    3.1 eps and each part by 1 ulp more, so the value by at most 4.5 eps
    (eps = 2**-52)."""
    x = 2.0 * math.pi * float(phase - math.floor(phase + Fraction(1, 2)))
    return complex(math.cos(x), math.sin(x))


def doubling_fourier(seed: int, u: int, terms, width: int = 53) -> complex:
    """sum_m c_m e(m w / 2**width) over terms (m, c), w the window integer
    doubling_window(seed, u, width): each phase (m w mod 2**width) /
    2**width is reduced with Python integers, so only circle_exp, the
    products with c and the additions round, by at most (6 + K) eps
    sum |c_m| for K terms."""
    w = doubling_window(seed, u, width)
    return sum(c * circle_exp(Fraction(m * w % (1 << width), 1 << width))
               for m, c in terms)


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
