"""Weight sequence generators w_k for weighted averages and their sums.

A WeightSpec names one of the supported families; weight_blocks hands
any slice of the sequence over one _BLOCK at a time, and gen_weights
joins those blocks into one array. moebius is sieved block by block, the
package's one Moebius sieve. Generation is a pure function of
(spec, range): random phases draw through a counter-based generator keyed
by (seed, k), and the centered random prime model reads the realization
that the cramer_primes indices of the same seed read, drawn by thinning
per (seed, block) in _rng. Disjoint chunks of one sequence agree with a
single long call bit for bit.

Phase families reduce their phase mod 1 *before* the complex exponential.
Polynomial phases are reduced exactly through the dyadic form of each
coefficient (integer-coefficient polynomials give w_k = 1 exactly). The
other phased kinds take f of an analytic_bounds.PhaseFunction family in
doubles, with a |phase| * ulp rounding no certificate bounds yet (ROADMAP
item 13); a range whose |phase| reaches 2**36, past which it keeps 16
fractional bits, is refused.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import partial
import math

import numpy as np

from ._kernels import _BLOCK, check_reads, frac_poly, is_int, is_real, mod1
from ._rng import cramer_indicator, uniform01
from .analytic_bounds import PhaseFunction
from .indices import primes_upto

# the optional fields each kind reads
_READS = {
    "constant": (),
    "polynomial_phase": ("coeffs",),
    "power_phase": ("delta",),
    "logpower_phase": ("delta",),
    "log_phase": ("h",),
    "moebius": (),
    "iid_uniform_phase": ("seed",),
    "centered_cramer": ("seed",),
}

# smallest k the family is defined for; log 0 is undefined, and the
# centered random model needs 1/log k to be a probability
_MIN_OFFSET = {
    "logpower_phase": 1,
    "log_phase": 1,
    "centered_cramer": 3,
}

_SEEDED = tuple(k for k, reads in _READS.items() if "seed" in reads)

# the PhaseFunction family whose f is each kind's phase, computed in
# doubles, then reduced mod 1; log_phase is log_linear with theta = 0
_PHASED = {"power_phase": "power", "logpower_phase": "log_power", "log_phase": "log_linear"}
# doubles from 2**36 on are 2**-16 apart or more: a weight keeps 4 digits
_PHASE_LIMIT = 2.0**36


@dataclass(frozen=True)
class WeightSpec:
    """One weight family plus its parameters.

    offset, a property, is the first index k the family defines w_k for:
    0, or 1 for log-based phases, or 3 for the centered random model.
    """

    kind: str
    coeffs: tuple[float, ...] | None = None
    delta: float | None = None
    h: float | None = None
    seed: int | None = None

    def __post_init__(self):
        check_reads(self, _READS, "weight")
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

    @property
    def offset(self) -> int:
        return _MIN_OFFSET.get(self.kind, 0)


def _finite_real(v) -> bool:
    return is_real(v) and math.isfinite(v)


def gen_weights(spec: WeightSpec, m: int, n: int) -> np.ndarray:
    """Weights w_k for k in [m, n) as complex128; element j is w_{m+j}.

    Takes the ranges weight_blocks takes and refuses the others with its
    ValueError. Identical arguments give bit-identical output: the blocks
    of weight_blocks joined.
    """
    return np.concatenate(list(weight_blocks(spec, m, n)))


def weight_blocks(spec: WeightSpec, m: int, n: int):
    """Weights w_k for k in [m, n) as consecutive _BLOCK-term complex128
    arrays, the last one shorter, so one block is held at a time at any n.

    The arguments are checked when this is called, not when the first
    block is drawn, so a call that draws nothing validates a range. It
    raises ValueError unless 0 <= m < n, m >= spec.offset (the family's
    first defined index) and |phase| < 2**36 for every w_k, k < n.

    moebius sieves each block on its own with the primes up to
    sqrt(n - 1); every other kind is one elementwise call per block.
    """
    _check_range(spec, m, n)
    if spec.kind == "moebius":
        return _moebius_blocks(m, n)
    return (_elementwise(spec, i, min(i + _BLOCK, n)) for i in range(m, n, _BLOCK))


def _check_range(spec: WeightSpec, m: int, n: int) -> None:
    if not (0 <= m < n):
        raise ValueError("need 0 <= m < n")
    if m < spec.offset:
        raise ValueError(
            f"{spec.kind} weights start at k = {spec.offset}; got range from {m}"
        )
    # |phase| grows with k: the last k decides, and bisection finds the first
    if spec.kind in _PHASED and _past_precision(spec, n - 1):
        k = bisect_left(range(n), True, spec.offset, key=partial(_past_precision, spec))
        raise ValueError(f"{spec.kind} phase reaches 2**36, past double precision, from k = {k}")


def _past_precision(spec: WeightSpec, k: int) -> bool:
    """|phase(k)| >= _PHASE_LIMIT, which an overflowed phase, inf, passes."""
    with np.errstate(all="ignore"):
        return not abs(float(_phase(spec, k))) < _PHASE_LIMIT


def _phase(spec: WeightSpec, k) -> np.ndarray:
    """The phase of a _PHASED kind at the index or indices k, before its mod-1
    reduction: f of its PhaseFunction family, in doubles."""
    return PhaseFunction(_PHASED[spec.kind], delta=spec.delta, h=spec.h).value(k)


def _elementwise(spec: WeightSpec, m: int, n: int) -> np.ndarray:
    k = np.arange(m, n, dtype=np.int64)
    kind = spec.kind
    if kind == "constant":
        return np.ones(n - m, dtype=np.complex128)
    if kind == "polynomial_phase":
        return np.exp(2j * np.pi * frac_poly(spec.coeffs, k))
    if kind in _PHASED:
        return np.exp(2j * np.pi * mod1(_phase(spec, k)))
    if kind == "iid_uniform_phase":
        return np.exp(2j * np.pi * uniform01(spec.seed, k))
    if kind == "centered_cramer":
        x = cramer_indicator(spec.seed, m, n).astype(np.float64)
        p = 1.0 / np.log(k.astype(np.float64))
        return (x - np.minimum(1.0, p)).astype(np.complex128)
    raise AssertionError(kind)


def _moebius_blocks(m: int, n: int):
    """mu(k) for k in [m, n) as complex128 _BLOCK-term arrays, each block
    sieved on its own by the primes p <= sqrt(n - 1): p flips the sign of
    its multiples and zeroes those of p**2, and the product of the p that
    divide k is kept. A k left with a product below k has exactly one prime
    factor above sqrt(n - 1) (two would pass n), which flips it once more."""
    base = primes_upto(math.isqrt(n - 1)).tolist()
    for lo in range(m, n, _BLOCK):
        hi = min(lo + _BLOCK, n)
        mu = np.ones(hi - lo, dtype=np.int8)
        prod = np.ones(hi - lo, dtype=np.int64)
        for p in base:
            mu[-lo % p :: p] *= -1
            prod[-lo % p :: p] *= p  # wraps at k = 0 only, whose mu is set below
            if p * p < hi:
                mu[-lo % (p * p) :: p * p] = 0
        np.negative(mu, out=mu, where=prod != np.arange(lo, hi, dtype=np.int64))
        if lo == 0:
            mu[0] = 0
        yield mu.astype(np.complex128)

