"""Concrete measure-preserving systems and spectral models.

Two system kinds:

    rotation   x -> x + theta0 mod 1 on the circle
    doubling   x -> 2x mod 1, a point given by the seed of its binary digits

The spectral model has no points: a SpectralMeasure, a finite positive
measure on [0, 1) of atoms and a dyadic density, against which
averages.spectral_l2_norm and averages.maximal_norm integrate.

Rotation angles can be floats or exact rationals (Fraction). The bundled
rotation_sqrt2 / rotation_golden constructors return continued-fraction
convergents p/q with q <= 2**62. u * theta0 mod 1 in doubles loses every
significant bit once u is large, so every phase is reduced exactly with
integer arithmetic, through _kernels.frac_ratio: a Fraction angle as
itself, a float as its exact dyadic ratio.

A rotation's fourier_mode and finite_fourier values come from digit
tables, the table-driven exponential of Tang ("Table-driven implementation
of the exponential function in IEEE floating-point arithmetic", ACM TOMS
15, 1989) applied along the orbit. With u written in base 2**DIGIT_BITS,

    e(m (x0 + theta0 u)) = T_0[u_0] T_1[u_1] ...,
    T_i[j] = e(m theta0 j 2**(DIGIT_BITS i)), T_0 also carrying e(m x0),

so each table, built once and kept, costs one exp per entry, not per index.
Each entry's phase is reduced exactly, so the error depends on neither
the mode nor the index (the bound is in orbit_eval's docstring), and the
entries are multiplied as separate real operations, so the bits do not
depend on numpy's CPU dispatch level. Indicator observables take the
positions frac(x0 + u theta0), reduced the same way; a Fraction angle
with a Fraction start point is then one exact ratio.

A doubling-map point is its seed: its binary digits are read 64 to a
counter-based draw (Salmon et al., "Parallel random numbers: as easy as
1, 2, 3", SC'11), digit n being bit 63 - (n mod 64) of
_rng.raw64(seed, n // 64), most significant first. Nothing is stored, and
T^u reads the window of B = DEFAULT_BIT_WINDOW digits from n = u on,
which lies in two words; B is the evaluation precision. Read as an
integer w_u < 2**B, the window gives T^u x0 = w_u 2**-B, which is the
rotation by 2**-B from 0 at index w_u. So a doubling orbit is evaluated
as that rotation at its window integers. Its Fourier values come from
the same digit tables, each phase reduced exactly at any mode, and
w_u < 2**53 needs at most t = 5 tables, so they keep orbit_eval's bound
with t = 5. Its indicator values are exact bits with no floating error.
"""

from __future__ import annotations

import functools
import numbers
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from ._kernels import check_reads, frac_of, frac_ratio, is_int, is_real, mod1, next_pow2
from ._rng import raw64

# the optional fields each kind reads
_SYSTEM_READS = {"rotation": ("theta0",), "doubling": ()}
_OBSERVABLE_READS = {"fourier_mode": ("mode",), "indicator": ("interval",),
                     "finite_fourier": ("terms",)}

MAX_ANGLE_DEN = 1 << 62
# every phase is reduced exactly at any mode, so this cap is the range
# that configs may ask for, not a limit of the evaluation
MAX_MODE = 1 << 53
DEFAULT_BIT_WINDOW = 53
# a rotation's orbit values read the index in base 2**DIGIT_BITS, one
# table of 2**DIGIT_BITS values per digit (see orbit_eval)
DIGIT_BITS = 12
_DIGIT_MASK = (1 << DIGIT_BITS) - 1
# terms per pass of the table product: its operands stay in cache
_PASS = 1 << 14
# digit tables kept between orbit_eval calls, 64 KiB each (4 MiB in all)
_CACHED_TABLES = 64


def _cf_constant_convergent(a: int, max_den: int) -> Fraction:
    # convergents of [0; a, a, a, ...]; stop at the last denominator <= max_den
    p_prev, p = 1, 0
    q_prev, q = 0, 1
    while True:
        p_next = a * p + p_prev
        q_next = a * q + q_prev
        if q_next > max_den:
            return Fraction(p, q)
        p_prev, p, q_prev, q = p, p_next, q, q_next


@dataclass(frozen=True, eq=False)
class SpectralMeasure:
    """Finite positive measure on [0, 1): atoms plus an optional
    piecewise-constant density on a dyadic partition (power-of-two cells).

    Atom positions may be Fractions for exact evaluation.
    """

    atoms: tuple = ()
    density: np.ndarray | None = None

    def __post_init__(self):
        atoms = tuple((t, float(m)) for t, m in self.atoms)
        object.__setattr__(self, "atoms", atoms)
        seen = set()
        for t, m in atoms:
            tf = float(t)
            if not (0.0 <= tf < 1.0):
                raise ValueError("atom positions must lie in [0, 1)")
            if not (m > 0.0 and np.isfinite(m)):
                raise ValueError("atom masses must be positive and finite")
            key = t if isinstance(t, Fraction) else tf
            if key in seen:
                raise ValueError("atom positions must be distinct")
            seen.add(key)
        if self.density is not None:
            d = np.ascontiguousarray(self.density, dtype=np.float64)
            if d.ndim != 1 or d.size < 1 or d.size != next_pow2(d.size):
                raise ValueError("density needs a power-of-two cell count")
            if not np.all(np.isfinite(d)) or np.any(d < 0.0):
                raise ValueError("density values must be finite and >= 0")
            d.flags.writeable = False
            object.__setattr__(self, "density", d)
        if not self.total_mass() > 0.0:
            raise ValueError("measure must have positive total mass")

    def total_mass(self) -> float:
        mass = sum(m for _, m in self.atoms)
        if self.density is not None:
            mass += float(self.density.mean())
        return float(mass)

    @classmethod
    def uniform(cls) -> "SpectralMeasure":
        return cls(density=np.ones(1))


def exact_fraction(pair, name: str) -> Fraction:
    """An exact rational from its JSON form, two integers [num, den]."""
    if len(pair) != 2 or not all(map(is_int, pair)):
        raise ValueError(f"{name} pair must be two integers [num, den]")
    return Fraction(int(pair[0]), int(pair[1]))


def _fourier_term(term) -> tuple[int, complex]:
    """One finite_fourier term, (m, c) or its JSON form [m, re, im]."""
    if not isinstance(term, (list, tuple)) or len(term) not in (2, 3):
        raise ValueError("finite_fourier terms are [m, c] or [m, re, im]")
    m, *c = term
    if not is_int(m) or abs(m) > MAX_MODE:
        raise ValueError("finite_fourier modes must be integers with |m| <= 2**53")
    if not all(isinstance(v, numbers.Number) and not isinstance(v, bool) for v in c):
        raise ValueError("finite_fourier coefficients must be numbers")
    return int(m), complex(*c)


@dataclass(frozen=True, eq=False)
class SystemModel:
    """A dynamical system: kind plus the data that defines it."""

    kind: str
    theta0: float | Fraction | None = None

    def __post_init__(self):
        check_reads(self, _SYSTEM_READS, "system")
        if isinstance(self.theta0, (list, tuple)):
            object.__setattr__(self, "theta0", exact_fraction(self.theta0, "theta0"))
        if self.kind == "rotation":
            t = self.theta0
            if not (is_real(t) and 0 < t < 1):
                raise ValueError("rotation needs theta0 in (0, 1)")
            if isinstance(t, Fraction) and t.denominator > MAX_ANGLE_DEN:
                raise ValueError("rational angle denominator must be <= 2**62")

    @classmethod
    def rotation(cls, theta0) -> "SystemModel":
        return cls(kind="rotation", theta0=theta0)

    @classmethod
    def rotation_sqrt2(cls) -> "SystemModel":
        """Rotation by sqrt(2) - 1 = [0; 2, 2, 2, ...] as the deepest
        convergent with denominator <= MAX_ANGLE_DEN."""
        return cls.rotation(_cf_constant_convergent(2, MAX_ANGLE_DEN))

    @classmethod
    def rotation_golden(cls) -> "SystemModel":
        """Rotation by (sqrt(5) - 1)/2 = [0; 1, 1, 1, ...], a ratio of
        consecutive Fibonacci numbers."""
        return cls.rotation(_cf_constant_convergent(1, MAX_ANGLE_DEN))

    @classmethod
    def doubling(cls) -> "SystemModel":
        return cls(kind="doubling")


@dataclass(frozen=True, eq=False)
class Observable:
    """A function on the circle.

    fourier_mode(m): x -> exp(2 i pi m x)
    indicator(a, b): x -> 1 on [a, b), 0 elsewhere (0 <= a < b <= 1)
    finite_fourier(terms): finite combination sum_j c_j exp(2 i pi m_j x)
    """

    kind: str
    mode: int | None = None
    interval: tuple[float, float] | None = None
    terms: tuple = ()

    def __post_init__(self):
        check_reads(self, _OBSERVABLE_READS, "observable")
        if self.kind == "fourier_mode":
            if not is_int(self.mode) or abs(self.mode) > MAX_MODE:
                raise ValueError("fourier_mode needs an integer mode with |m| <= 2**53")
            object.__setattr__(self, "mode", int(self.mode))
        elif self.kind == "indicator":
            iv = self.interval
            if not (isinstance(iv, (list, tuple)) and len(iv) == 2
                    and all(map(is_real, iv))):
                raise ValueError("indicator needs an interval of two real numbers")
            a, b = map(float, iv)
            if not (0.0 <= a < b <= 1.0):
                raise ValueError("indicator interval must satisfy 0 <= a < b <= 1")
            object.__setattr__(self, "interval", (a, b))
        else:
            terms = tuple(map(_fourier_term, self.terms))
            if not terms:
                raise ValueError("finite_fourier needs at least one term")
            modes = [m for m, _ in terms]
            if len(set(modes)) != len(modes):
                raise ValueError("finite_fourier modes must be distinct")
            if not all(np.isfinite(c.real) and np.isfinite(c.imag) for _, c in terms):
                raise ValueError("finite_fourier coefficients must be finite")
            object.__setattr__(self, "terms", terms)

    @classmethod
    def fourier_mode(cls, m: int) -> "Observable":
        return cls(kind="fourier_mode", mode=m)

    @classmethod
    def indicator(cls, a: float, b: float) -> "Observable":
        return cls(kind="indicator", interval=(a, b))

    @classmethod
    def finite_fourier(cls, terms) -> "Observable":
        return cls(kind="finite_fourier", terms=tuple(terms))


@dataclass(frozen=True, eq=False)
class OrbitPoint:
    """A starting point: a circle position x0 in [0, 1) for rotation (a
    Fraction or its JSON form [num, den] stays exact, another real number
    is read as a float), the seed of its binary digits for doubling."""

    kind: str
    x0: float | Fraction | None = None
    seed: int | None = None

    def __post_init__(self):
        if self.kind == "rotation":
            x0 = exact_fraction(self.x0, "x0") if isinstance(self.x0, (list, tuple)) else self.x0
            if not (is_real(x0) and 0 <= x0 < 1):
                raise ValueError("rotation point needs x0 in [0, 1), a number or [num, den]")
            object.__setattr__(self, "x0", x0 if isinstance(x0, Fraction) else float(x0))
        elif self.kind == "doubling":
            if not is_int(self.seed):
                raise ValueError("doubling point needs an integer seed")
            object.__setattr__(self, "seed", int(self.seed))
        else:
            raise ValueError(f"unknown orbit point kind {self.kind!r}")

    @classmethod
    def rotation(cls, x0) -> "OrbitPoint":
        return cls(kind="rotation", x0=x0)

    @classmethod
    def doubling(cls, seed: int) -> "OrbitPoint":
        return cls(kind="doubling", seed=seed)


def _rotation_positions(theta0, x0, u: np.ndarray) -> np.ndarray:
    """frac(x0 + u * theta0) with the reduction of u * theta0 done exactly.

    For theta0 = p/q and x0 = a/b, both Fractions, the position is the one
    exact ratio (a*q + u*p*b) / (q*b); otherwise x0 enters through one
    final rounded addition (error ~1 ulp, independent of u).
    """
    if isinstance(theta0, Fraction) and isinstance(x0, Fraction):
        (p, q), (a, b) = theta0.as_integer_ratio(), x0.as_integer_ratio()
        return mod1(frac_ratio(p * b, q * b, u, shift=a * q))
    return mod1(frac_of(theta0, u) + float(x0))


def _doubling_windows(seed: int, u: np.ndarray) -> np.ndarray:
    """The window b_u b_{u+1} ... b_{u+B-1} as an int64 integer < 2**B for
    each index u, with B = DEFAULT_BIT_WINDOW and digit n bit
    63 - (n mod 64) of word W_{n // 64} = _rng.raw64(seed, n // 64).

    With u = 64 k + r the window is the top B bits of
    (W_k << r) | (W_{k+1} >> (64 - r)); numpy shifts a uint64 by 64 to 0,
    which covers r = 0, and k + 1 <= 2**58 for every uint64 u.
    """
    u = u.astype(np.uint64)
    k, r = u >> np.uint64(6), u & np.uint64(63)
    w = raw64(seed, k) << r
    w |= raw64(seed, k + np.uint64(1)) >> (np.uint64(64) - r)
    w >>= np.uint64(64 - DEFAULT_BIT_WINDOW)
    return w.view(np.int64)


def _times(acc: np.ndarray, g: np.ndarray, a: np.ndarray, b: np.ndarray) -> None:
    """acc *= g for complex arrays as separate real ufuncs, re*gr - im*gi
    and re*gi + im*gr, with a and b real scratch of their length: numpy
    never fuses two ufunc calls, so no dispatch level's fused multiply-add
    moves a bit (a complex multiply's inner loop may use one)."""
    re, im = acc.real, acc.imag
    np.multiply(re, g.imag, out=a)
    np.multiply(im, g.real, out=b)
    re *= g.real
    im *= g.imag
    re -= im
    np.add(a, b, out=im)


def _e(phases: np.ndarray) -> np.ndarray:
    """exp(2 i pi x) of phases x in [0, 2], taken mod 1 first."""
    return np.exp(2j * np.pi * mod1(phases))


@functools.lru_cache(maxsize=_CACHED_TABLES)
def _digit_table(p: int, q: int, m: int, i: int, start) -> np.ndarray:
    """T_i[j] = e(m theta0 j 2**(DIGIT_BITS i)) for theta0 = p/q and
    j < 2**DIGIT_BITS, read-only, each phase reduced exactly by frac_ratio:
    (m p 2**(DIGIT_BITS i)) mod q over q. T_0 also carries c e(m x0), keyed
    by start = (x0 is a Fraction, a, b, complex128 c's bytes) for x0 = a/b,
    since c's signed zeros reach its bits and a Fraction x0 joins it as the
    one ratio (m a q + j m p b) / (q b), a float one as frac(m x0), exact
    and then rounded, in one addition."""
    j = np.arange(1 << DIGIT_BITS, dtype=np.int64)
    if i:
        table = _e(frac_ratio(m * p << (DIGIT_BITS * i), q, j))
    else:
        exact, a, b, c = start
        table = _e(frac_ratio(m * p * b, q * b, j, shift=m * a * q) if exact
                   else frac_ratio(m * p, q, j) + float(Fraction(m * a % b, b)))
        c = np.frombuffer(c, dtype=np.complex128)[0]
        if c != 1:
            _times(table, np.full(j.size, c), np.empty(j.size), np.empty(j.size))
    table.flags.writeable = False
    return table


def _rotation_values(theta0, x0, f: Observable, u: np.ndarray) -> np.ndarray:
    """sum_m c_m e(m (x0 + theta0 u)) over the terms of a fourier_mode
    (m, 1) or finite_fourier observable, for nonnegative integer u: per
    mode, the product T_0[u_0] T_1[u_1] ... T_{t-1}[u_{t-1}] of its
    tables (_digit_table) over the base-2**DIGIT_BITS digits u_i of u,
    in that order and by _times, then the modes added in term order (a
    term with c = 0 adds nothing and is skipped).

    t is the digit count of the largest u in the call, at least 1. A
    table past an index's top digit gives T[0] = 1 + 0i, which changes no
    bit of a product, so each value depends on its own index alone. The
    product runs _PASS terms at a time, so its operands stay in cache."""
    terms = [(f.mode, 1)] if f.kind == "fourier_mode" else [(m, c) for m, c in f.terms if c]
    if not terms:
        return np.zeros(u.size, dtype=np.complex128)
    count = max(1, -(-int(u.max()).bit_length() // DIGIT_BITS))
    p, q = theta0.as_integer_ratio()
    x = (isinstance(x0, Fraction), *x0.as_integer_ratio())
    tables = [[_digit_table(p, q, m, i, None if i else (*x, np.complex128(c).tobytes()))
               for i in range(count)] for m, c in terms]
    out = np.empty(u.size, dtype=np.complex128)
    width = min(u.size, _PASS)
    digits = np.empty(width, dtype=np.int64)
    entry, term = np.empty((2, width), dtype=np.complex128)
    a, b = np.empty((2, width))
    for s in range(0, u.size, _PASS):
        us, outs = u[s : s + _PASS], out[s : s + _PASS]
        k = us.size
        d = digits[:k]
        for n, mode_tables in enumerate(tables):
            acc = term[:k] if n else outs
            np.bitwise_and(us, _DIGIT_MASK, out=d)
            # every digit is in range; "clip" spares the buffered copy of
            # out that take makes under its default "raise"
            np.take(mode_tables[0], d, out=acc, mode="clip")
            for i in range(1, count):
                np.right_shift(us, DIGIT_BITS * i, out=d)
                if i < count - 1:
                    d &= _DIGIT_MASK
                np.take(mode_tables[i], d, out=entry[:k], mode="clip")
                _times(acc, entry[:k], a[:k], b[:k])
            if n:
                outs += acc
    return out


def orbit_eval(system: SystemModel, f: Observable, x0: OrbitPoint, indices) -> np.ndarray:
    """Values f(T^{u_j} x0) as a complex array, one per index.

    Each value depends on its own index alone, so the harness stages call
    this on one block of indices at a time, and any split of the indices
    gives the same bits.

    A rotation with a fourier_mode or finite_fourier observable multiplies
    digit tables (_rotation_values): one complex exp per table entry,
    2**DIGIT_BITS entries per table and one table per base-2**DIGIT_BITS
    digit of the largest index, not one exp per index. Every phase
    m theta0 j 2**(DIGIT_BITS i) (+ m x0) is reduced exactly, whatever the
    mode and the index, so the error does not grow with |m| or u: with t
    tables, K terms and eps = 2**-52, each value lies within
    (27 t + K) eps sum_m |c_m| of the exact f(T^u x0) (c = 1 for a
    fourier_mode), given a libm whose cos and sin are within 1 ulp. A
    table entry's phase is off by at most 3 eps (1.5 eps for a Fraction
    x0), so its angle 2 pi x by at most 23.1 eps with the rounding of pi
    and of the product, and the exp adds 1.5 eps; each of the t - 1
    products and the fold of c adds 1.5 eps, and each of the K - 1
    additions at most eps. Only +, - and * of doubles build a
    value from its table entries, so the bits do not depend on numpy's CPU
    dispatch level.

    A doubling point's T^u x0 is its window integer w_u times 2**-B, B =
    DEFAULT_BIT_WINDOW (_doubling_windows, two draws per index): the
    rotation by 2**-B from 0 at index w_u < 2**B. So its values are that
    rotation's at the window integers, and w_u < 2**53 has at most five
    base-2**DIGIT_BITS digits: each value lies within the same bound with
    t = 5, whatever the mode up to MAX_MODE.

    Indicator observables take the positions frac(x0 + u theta0), reduced
    the same way, and compare them with the interval [a, b); at a doubling
    point each position is its window, exactly.
    """
    u = np.ascontiguousarray(indices)
    if u.dtype.kind not in "iu":
        raise TypeError("orbit indices must be integers")
    if u.ndim != 1 or u.size == 0:
        raise ValueError("orbit indices must form a nonempty 1-d array")
    if int(u.min()) < 0:
        raise ValueError("orbit indices must be nonnegative")
    if system.kind != x0.kind:
        raise ValueError(f"{system.kind} system needs a {system.kind} orbit point")
    if system.kind == "rotation":
        theta0, start = system.theta0, x0.x0
    else:
        theta0, start = Fraction(1, 1 << DEFAULT_BIT_WINDOW), Fraction(0)
        u = _doubling_windows(x0.seed, u)
    if f.kind != "indicator":
        return _rotation_values(theta0, start, f, u)
    a, b = f.interval
    x = _rotation_positions(theta0, start, u)
    return ((x >= a) & (x < b)).astype(np.complex128)
