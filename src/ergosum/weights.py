"""Weight sequence generators w_k for weighted averages and their sums.

A WeightSpec names one of the supported families; gen_weights materializes
any slice of the sequence. Generation is a pure function of
(spec, range): random phases draw through a counter-based generator keyed
by (seed, k), and the centered random prime model reads the realization
that the cramer_primes indices of the same seed read, drawn by thinning
per (seed, block) in _rng. Disjoint chunks of one sequence agree with a
single long call bit for bit.

Phase families reduce their phase mod 1 *before* the complex exponential.
Polynomial phases are reduced exactly through the dyadic form of each
coefficient (integer-coefficient polynomials give w_k = 1 exactly); power
phases k**delta are evaluated in double precision, so their phase carries
the unavoidable k**delta * ulp rounding, which the sum-level tolerances
account for.
"""

from __future__ import annotations

from dataclasses import dataclass
import math

import numpy as np

from ._kernels import frac_poly, is_int, is_real, mod1
from ._rng import cramer_indicator, uniform01
from .indices import primes_upto

KINDS = (
    "constant",
    "polynomial_phase",
    "power_phase",
    "logpower_phase",
    "log_phase",
    "moebius",
    "iid_uniform_phase",
    "centered_cramer",
)

# smallest k the family is defined for; log 0 is undefined, and the
# centered random model needs 1/log k to be a probability
_MIN_OFFSET = {
    "logpower_phase": 1,
    "log_phase": 1,
    "centered_cramer": 3,
}

_SEEDED = ("iid_uniform_phase", "centered_cramer")


@dataclass(frozen=True)
class WeightSpec:
    """One weight family plus its parameters.

    offset is the first index k for which the sequence is defined; it
    defaults to the family minimum (0, or 2 for log-based phases, or 3 for
    the centered random model).
    """

    kind: str
    coeffs: tuple[float, ...] | None = None
    delta: float | None = None
    h: float | None = None
    seed: int | None = None
    offset: int | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown weight kind {self.kind!r}")
        if self.kind == "polynomial_phase":
            if not isinstance(self.coeffs, (list, tuple)) or not self.coeffs:
                raise ValueError("polynomial_phase requires coeffs")
            if not all(map(_finite_real, self.coeffs)):
                raise ValueError("polynomial_phase coeffs must be finite real numbers")
            object.__setattr__(self, "coeffs", tuple(float(c) for c in self.coeffs))
        if self.kind in ("power_phase", "logpower_phase"):
            if not (_finite_real(self.delta) and self.delta > 0):
                raise ValueError(f"{self.kind} requires a finite real delta > 0")
        if self.kind == "log_phase":
            if not (_finite_real(self.h) and self.h != 0):
                raise ValueError("log_phase requires a finite real h != 0")
        if self.kind in _SEEDED:
            if not is_int(self.seed):
                raise ValueError(f"{self.kind} requires an integer seed")
            object.__setattr__(self, "seed", int(self.seed))
        minimum = _MIN_OFFSET.get(self.kind, 0)
        if self.offset is None:
            object.__setattr__(self, "offset", minimum)
        elif not (is_int(self.offset) and self.offset >= minimum):
            raise ValueError(f"{self.kind} offset must be an integer >= {minimum}")


def _finite_real(v) -> bool:
    return is_real(v) and math.isfinite(v)


def check_phase(spec: WeightSpec, n: int) -> None:
    """Raise ValueError when some w_k, k < n, has a phase past the double
    range. Phases grow with k, so the last weight decides."""
    if n >= 3 and spec.kind in ("power_phase", "logpower_phase", "log_phase"):
        with np.errstate(all="ignore"):
            if not np.isfinite(gen_weights(spec, n - 1, n)).all():
                raise ValueError(f"{spec.kind} phase overflows a double below k = {n}")


def gen_weights(spec: WeightSpec, m: int, n: int) -> np.ndarray:
    """Weights w_k for k in [m, n) as complex128; element j is w_{m+j}.

    Requires 0 <= m < n and m >= spec.offset (the family's first defined
    index). Identical arguments give bit-identical output.
    """
    if not (0 <= m < n):
        raise ValueError("need 0 <= m < n")
    if m < spec.offset:
        raise ValueError(
            f"{spec.kind} weights start at k = {spec.offset}; got range from {m}"
        )
    k = np.arange(m, n, dtype=np.int64)
    kind = spec.kind
    if kind == "constant":
        return np.ones(n - m, dtype=np.complex128)
    if kind == "polynomial_phase":
        return np.exp(2j * np.pi * frac_poly(spec.coeffs, k))
    if kind == "power_phase":
        phase = mod1(np.power(k.astype(np.float64), spec.delta))
        return np.exp(2j * np.pi * phase)
    if kind == "logpower_phase":
        phase = mod1(np.power(np.log(k.astype(np.float64)), spec.delta))
        return np.exp(2j * np.pi * phase)
    if kind == "log_phase":
        phase = mod1(spec.h * np.log(k.astype(np.float64)))
        return np.exp(2j * np.pi * phase)
    if kind == "moebius":
        return moebius_sieve(n - 1)[m:n].astype(np.complex128)
    if kind == "iid_uniform_phase":
        return np.exp(2j * np.pi * uniform01(spec.seed, k))
    if kind == "centered_cramer":
        x = cramer_indicator(spec.seed, k).astype(np.float64)
        p = 1.0 / np.log(k.astype(np.float64))
        return (x - np.minimum(1.0, p)).astype(np.complex128)
    raise AssertionError(kind)


def moebius_sieve(n: int) -> np.ndarray:
    """Moebius function on 0..n as int8; index k holds mu(k), mu(0) = 0.

    Multiplicative sieve: every prime flips the sign of its multiples, and
    multiples of p**2 are squarefree-killed to 0.
    """
    if n < 1:
        raise ValueError("moebius_sieve needs n >= 1")
    mu = np.ones(n + 1, dtype=np.int8)
    mu[0] = 0
    for p in primes_upto(n).tolist():
        mu[p::p] *= -1
        if p * p <= n:
            mu[p * p :: p * p] = 0
    return mu
