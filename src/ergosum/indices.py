"""Index (orbit time) sequences u_k: deterministic and random models.

An IndexSpec names a family; gen_indices materializes any slice. As with
weights, generation is a pure function of (spec, range): the random prime
model is drawn by thinning, one block of integers at a time, each block a
pure function of (seed, block) through a counter-based generator (see
_rng), so chunked and whole-range calls agree exactly.

Prime ranges come from a segmented sieve sized by a bound-doubling loop; no
prime tables are shipped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._kernels import is_int
from ._rng import block_starts, cramer_blocks

KINDS = ("identity", "monomial", "polynomial", "primes", "cramer_primes", "explicit")

_SEG = 1 << 20


@dataclass(frozen=True)
class IndexSpec:
    """One index family plus its parameters.

    offset is the first valid k: 1 for the prime-like kinds (u_1 = first
    element), 0 otherwise.
    """

    kind: str
    d: int | None = None
    coeffs: tuple[int, ...] | None = None
    seed: int | None = None
    values: tuple[int, ...] | None = None
    offset: int | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown index kind {self.kind!r}")
        if self.kind == "monomial":
            if not is_int(self.d) or self.d < 1:
                raise ValueError("monomial requires integer degree d >= 1")
            object.__setattr__(self, "d", int(self.d))
        if self.kind == "polynomial":
            if not self.coeffs:
                raise ValueError("polynomial requires integer coeffs")
            if not all(map(is_int, self.coeffs)):
                raise ValueError("polynomial coefficients must be integers")
            object.__setattr__(self, "coeffs", tuple(int(c) for c in self.coeffs))
        if self.kind == "cramer_primes":
            if not is_int(self.seed):
                raise ValueError("cramer_primes requires an integer seed")
            object.__setattr__(self, "seed", int(self.seed))
        if self.kind == "explicit":
            if self.values is None or len(self.values) == 0:
                raise ValueError("explicit requires a nonempty value list")
            if not all(map(is_int, self.values)):
                raise ValueError("explicit values must be integers")
            vals = tuple(int(v) for v in self.values)
            if vals[0] < 0 or any(b < a for a, b in zip(vals, vals[1:])):
                raise ValueError("explicit values must be nondecreasing and >= 0")
            object.__setattr__(self, "values", vals)
        minimum = 1 if self.kind in ("primes", "cramer_primes") else 0
        if self.offset is None:
            object.__setattr__(self, "offset", minimum)
        elif not (is_int(self.offset) and self.offset >= minimum):
            raise ValueError(f"{self.kind} offset must be an integer >= {minimum}")


def gen_indices(spec: IndexSpec, m: int, n: int) -> np.ndarray:
    """Indices u_k for k in [m, n) as int64; element j is u_{m+j}.

    Requires 0 <= m < n, m >= spec.offset and check_top(spec, m, n) to
    pass, which it checks before evaluating anything.
    """
    if not (0 <= m < n):
        raise ValueError("need 0 <= m < n")
    if m < spec.offset:
        raise ValueError(f"{spec.kind} indices start at k = {spec.offset}")
    check_top(spec, m, n)
    kind = spec.kind
    if kind == "identity":
        return np.arange(m, n, dtype=np.int64)
    if kind == "monomial":
        k = np.arange(m, n, dtype=np.int64)
        return k ** min(spec.d, 62)  # the same values: past 62 check_top leaves k <= 1
    if kind == "polynomial":
        return _horner(spec.coeffs, m, n)
    if kind == "primes":
        return first_primes(n - 1)[m - 1 : n - 1]
    if kind == "cramer_primes":
        return _cramer_nth_range(spec.seed, m, n)
    if kind == "explicit":
        return np.array(spec.values[m:n], dtype=np.int64)
    raise AssertionError(kind)


def _horner(coeffs, m: int, n: int) -> np.ndarray:
    """p(k) = sum_j coeffs[j] k**j for k in [m, n) in int64: exact once
    check_top has bounded every partial."""
    k = np.arange(m, n, dtype=np.int64)
    u = np.zeros(n - m, dtype=np.int64)
    for c in reversed(coeffs):
        u = u * k + c
    return u


def check_top(spec: IndexSpec, m: int, n: int) -> None:
    """Raise ValueError when u_k for some k in [m, n) cannot be generated:
    an explicit list that ends before n, monomial or polynomial values past
    the int64 range, or a polynomial that is negative or decreasing on
    [m, n).

    The polynomial shape check is exact and bounded: q(k) = p(k+1) - p(k)
    has degree d - 1 and leading coefficient d c_d, so for k >= K, an
    integer above its Cauchy root bound, q(k) has the sign of c_d, and p is
    evaluated only for k <= K.
    """
    if spec.kind == "explicit" and len(spec.values) < n:
        raise ValueError("explicit index list shorter than requested range")
    # a degree past 62 overflows from k = 2 on; testing it first keeps a
    # huge degree from building a huge Python integer
    if spec.kind == "monomial" and n >= 3 and (spec.d > 62 or (n - 1) ** spec.d >= 2**63):
        raise ValueError("monomial index values exceed int64 range")
    if spec.kind != "polynomial":
        return
    c = spec.coeffs
    # guard every Horner partial by the L1 bound at the largest k
    if sum(abs(cj) * (n - 1)**j for j, cj in enumerate(c)) >= 2**63:
        raise ValueError("polynomial index values exceed int64 range")
    d = max((j for j, cj in enumerate(c) if cj), default=0)
    q = [sum(c[j] * math.comb(j, i) for j in range(i + 1, d + 1)) for i in range(d)]
    K = 2 + max(map(abs, q[:-1]), default=0) // abs(q[-1]) if d else m
    u = _horner(c, m, max(m + 1, min(n, K + 1)))
    if u[0] < 0 or np.any(np.diff(u) < 0) or (c[d] < 0 and max(m, K) <= n - 2):
        raise ValueError("polynomial must be nonnegative and nondecreasing on the range")


def top_index(spec: IndexSpec, n: int) -> int | None:
    """An upper bound on u_k for k < n, once check_top(spec, m, n) has
    passed: u_{n-1} itself for the deterministic families (each is
    nondecreasing on the range), Rosser's bound for the primes, and None
    for the random prime model, which has no deterministic one."""
    if spec.kind == "cramer_primes":
        return None
    if spec.kind == "primes":
        return _prime_bound(n - 1)
    return int(gen_indices(spec, n - 1, n)[0])


def pi_count(spec: IndexSpec, N: int) -> int:
    """Number of selected integers up to N: in [2, N] for primes, [3, N]
    for the clamped random model. Requires N >= 2."""
    if N < 2:
        raise ValueError("pi_count needs N >= 2")
    if spec.kind == "primes":
        return int(primes_upto(N).size)
    if spec.kind == "cramer_primes":
        return _cramer_count_upto(spec.seed, N)
    raise ValueError("pi_count applies to primes or cramer_primes")


# ---------------------------------------------------------------------------
# primes


def _simple_sieve(limit: int) -> np.ndarray:
    sieve = np.ones(limit + 1, dtype=bool)
    sieve[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if sieve[p]:
            sieve[p * p :: p] = False
    return np.flatnonzero(sieve).astype(np.int64)


def primes_upto(limit: int) -> np.ndarray:
    """All primes <= limit, via a segmented sieve."""
    if limit < 2:
        return np.zeros(0, dtype=np.int64)
    base = _simple_sieve(math.isqrt(limit) + 1)
    chunks = []
    lo = 2
    while lo <= limit:
        hi = min(lo + _SEG, limit + 1)
        mask = np.ones(hi - lo, dtype=bool)
        for p in base:
            p = int(p)
            if p * p >= hi:
                break
            start = max(p * p, ((lo + p - 1) // p) * p)
            mask[start - lo :: p] = False
        chunks.append(np.flatnonzero(mask).astype(np.int64) + lo)
        lo = hi
    return np.concatenate(chunks)


def _prime_bound(count: int) -> int:
    """A bound above the count-th prime: p_n < n (log n + log log n) for
    n >= 6 (Rosser), and p_5 = 11."""
    if count < 6:
        return 13
    return int(count * (math.log(count) + math.log(math.log(count)))) + 3


def first_primes(count: int) -> np.ndarray:
    """The first `count` primes, sieve bound grown by doubling until enough."""
    if count <= 0:
        return np.zeros(0, dtype=np.int64)
    bound = _prime_bound(count)
    while True:
        ps = primes_upto(bound)
        if ps.size >= count:
            return ps[:count]
        bound *= 2


# ---------------------------------------------------------------------------
# random prime model (clamped probability min(1, 1/log k), first index 3);
# the blocks of each 2^20 segment are drawn in one pass


def _cramer_nth_range(seed: int, m: int, n: int) -> np.ndarray:
    """Elements u_m..u_{n-1} (1-based) of the realized random index set."""
    parts = []
    total = 0
    lo = 0
    while total < n - 1:
        if lo > 4096 * _SEG:
            raise RuntimeError("random index model failed to fill the range")
        seg = cramer_blocks(seed, block_starts(lo, lo + _SEG))
        parts.extend(seg)
        total += sum(map(len, seg))
        lo += _SEG
    return np.concatenate(parts)[m - 1 : n - 1]


def _cramer_count_upto(seed: int, N: int) -> int:
    return sum(int(np.searchsorted(block, N, side="right"))
               for lo in range(0, N + 1, _SEG)
               for block in cramer_blocks(seed, block_starts(lo, min(lo + _SEG, N + 1))))
