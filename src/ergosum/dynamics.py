"""Concrete measure-preserving systems and spectral models.

Two system kinds:

    rotation   x -> x + theta0 mod 1 on the circle
    doubling   x -> 2x mod 1, a point given by the seed of its binary digits

The spectral model has no points: a SpectralMeasure, a finite positive
measure on [0, 1) of atoms and a dyadic density, against which
averages.spectral_l2_norm and averages.maximal_norm integrate.

Rotation angles can be floats or exact rationals (Fraction). The bundled
rotation_sqrt2 / rotation_golden constructors return continued-fraction
convergents p/q with q <= 2**62, and orbit positions are then reduced
exactly with integer arithmetic, because u * theta0 mod 1 in doubles loses
every significant bit once u is large. Every angle goes through
_kernels.frac_ratio: a Fraction as itself, a float as its exact dyadic
ratio, and a Fraction angle with a Fraction start point as one ratio.

A doubling-map point is its seed: its binary digits are read 64 to a
counter-based draw (Salmon et al., "Parallel random numbers: as easy as
1, 2, 3", SC'11), digit n being bit 63 - (n mod 64) of
_rng.raw64(seed, n // 64), most significant first. Nothing is stored, and
T^u reads the window of B digits from n = u on, which lies in two words.
Orbit values of indicator observables are then exact bits with no
floating error. The window width B (default 53) is the evaluation
precision.
"""

from __future__ import annotations

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
MAX_MODE = 1 << 53  # Observable.eval takes m * x in doubles, exact to 2**53
DEFAULT_BIT_WINDOW = 53


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
    """A function on the circle with a closed-form L2 norm.

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

    def eval(self, x: np.ndarray) -> np.ndarray:
        """Observable values at circle positions x (taken mod 1)."""
        x = np.ascontiguousarray(x, dtype=np.float64)
        if self.kind == "fourier_mode":
            return np.exp(2j * np.pi * mod1(self.mode * x))
        if self.kind == "indicator":
            a, b = self.interval
            return ((x >= a) & (x < b)).astype(np.complex128)
        out = np.zeros(x.shape, dtype=np.complex128)
        for m, c in self.terms:
            # e * c in this operand order at every size: numpy computes
            # c * e as e * c only on arrays large enough to reuse e, and
            # complex products with fused multiply-adds are not symmetric
            e = np.exp(2j * np.pi * mod1(m * x))
            e *= c
            out += e
        return out

    def l2_norm(self) -> float:
        """L2 norm against the invariant (Lebesgue) measure, closed form."""
        if self.kind == "fourier_mode":
            return 1.0
        if self.kind == "indicator":
            a, b = self.interval
            return float(np.sqrt(b - a))
        return float(np.sqrt(sum(abs(c) ** 2 for _, c in self.terms)))


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


def _doubling_positions(seed: int, u: np.ndarray) -> np.ndarray:
    """0.b_u b_{u+1} ... b_{u+B-1} for each index u, with B =
    DEFAULT_BIT_WINDOW and digit n bit 63 - (n mod 64) of word W_{n // 64}
    = _rng.raw64(seed, n // 64).

    With u = 64 k + r the window is the top B bits of
    (W_k << r) | (W_{k+1} >> (64 - r)), exact in a double; numpy shifts a
    uint64 by 64 to 0, which covers r = 0, and k + 1 <= 2**58 for every
    uint64 u.
    """
    u = u.astype(np.uint64)
    k, r = u >> np.uint64(6), u & np.uint64(63)
    w = raw64(seed, k) << r
    w |= raw64(seed, k + np.uint64(1)) >> (np.uint64(64) - r)
    w >>= np.uint64(64 - DEFAULT_BIT_WINDOW)
    return np.ldexp(w.astype(np.float64), -DEFAULT_BIT_WINDOW)


def orbit_eval(system: SystemModel, f: Observable, x0: OrbitPoint, indices) -> np.ndarray:
    """Values f(T^{u_j} x0) as a complex array, one per index.

    Each value depends on its own index alone, so the harness stages call
    this on one block of indices at a time, and any split of the indices
    gives the same bits. DEFAULT_BIT_WINDOW is the evaluation precision B
    for doubling systems, and each doubling value reads two draws, the
    64-digit words that hold its window.
    """
    u = np.ascontiguousarray(indices)
    if u.dtype.kind not in "iu":
        raise TypeError("orbit indices must be integers")
    if u.ndim != 1 or u.size == 0:
        raise ValueError("orbit indices must form a nonempty 1-d array")
    if int(u.min()) < 0:
        raise ValueError("orbit indices must be nonnegative")
    if system.kind == "rotation":
        if x0.kind != "rotation":
            raise ValueError("rotation system needs a rotation orbit point")
        pos = _rotation_positions(system.theta0, x0.x0, u)
        return f.eval(pos)
    if x0.kind != "doubling":
        raise ValueError("doubling system needs a doubling orbit point")
    return f.eval(_doubling_positions(x0.seed, u))
