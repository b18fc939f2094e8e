"""Index (orbit time) sequences u_k: deterministic and random models.

An IndexSpec names a family; index_blocks hands any slice over one
_BLOCK at a time, and gen_indices joins those blocks into one array. As
with weights, generation is a pure function of (spec, range): the random
prime model is drawn by thinning, one block of integers at a time, each
block a pure function of (seed, block) through a counter-based generator
(see _rng), so chunked and whole-range calls agree exactly.

The prime-like kinds are indexed by count, so both walk their selected
integers in increasing order and carry the count: primes through a
segmented sieve up to Rosser's bound on the last prime a range needs (no
prime tables are shipped), cramer_primes through the random-model blocks.
pi_count counts the same walk up to N. A walk holds one sieve segment or
a few random-model blocks at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._kernels import _BLOCK, check_reads, is_int
from ._rng import block_starts, cramer_blocks

# the optional fields each kind reads
_READS = {"identity": (), "monomial": ("d",), "polynomial": ("coeffs",), "primes": (),
          "cramer_primes": ("seed",), "explicit": ("values",)}
_SEEDED = tuple(k for k, reads in _READS.items() if "seed" in reads)
# the kinds that walk their selected integers in order (see index_blocks)
_WALKED = ("primes", "cramer_primes")

# integers per prime sieve segment
_SEG = 1 << 20
# integers per cramer_blocks call of a walk: four 2^16-wide blocks, whose
# thinning temporaries stay near 2 MB
_DRAW = 1 << 18
# a cramer_primes walk draws the integers below this before it gives up
_CRAMER_REACH = 4097 * _SEG
# the last k a cramer_primes range may ask for. Below X = _CRAMER_REACH a walk
# selects li(X) - li(3) = 2.0333e8 on average (sd 1.39e4), t = 3.3e6 more than
# this, and by Chernoff's bound fewer with probability exp(-t^2/(2 mean)) < e^-27000
_CRAMER_TERMS = 200_000_000


@dataclass(frozen=True)
class IndexSpec:
    """One index family plus its parameters.

    offset, a property, is the first k the family defines u_k for: 1 for
    the prime-like kinds (u_1 is the first element), 0 otherwise.
    """

    kind: str
    d: int | None = None
    coeffs: tuple[int, ...] | None = None
    seed: int | None = None
    values: tuple[int, ...] | None = None

    def __post_init__(self):
        check_reads(self, _READS, "index")
        # a degree past 62 overflows int64 from k = 2 on
        if self.kind == "monomial":
            if not is_int(self.d) or self.d < 1:
                raise ValueError("monomial requires integer degree d >= 1")
            if self.d > 62:
                raise ValueError("monomial index values exceed int64 range: need d <= 62")
            object.__setattr__(self, "d", int(self.d))
        if self.kind == "polynomial":
            if not self.coeffs:
                raise ValueError("polynomial requires integer coeffs")
            if len(self.coeffs) > 63:
                raise ValueError("polynomial takes at most 63 coefficients: need degree <= 62")
            if not all(map(is_int, self.coeffs)):
                raise ValueError("polynomial coefficients must be integers")
            object.__setattr__(self, "coeffs", tuple(int(c) for c in self.coeffs))
        if self.kind in _SEEDED:
            if not is_int(self.seed):
                raise ValueError(f"{self.kind} requires an integer seed")
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

    @property
    def offset(self) -> int:
        return 1 if self.kind in ("primes", "cramer_primes") else 0


def gen_indices(spec: IndexSpec, m: int, n: int) -> np.ndarray:
    """Indices u_k for k in [m, n) as int64; element j is u_{m+j}.

    Takes the ranges index_blocks takes and refuses the others with its
    ValueError. The result is the blocks of index_blocks joined.
    """
    return np.concatenate(list(index_blocks(spec, m, n)))


def index_blocks(spec: IndexSpec, m: int, n: int):
    """Indices u_k for k in [m, n) as consecutive _BLOCK-term int64 arrays,
    the last one shorter. The arguments are checked when this is called,
    not when the first block is drawn, so a call that draws nothing
    validates a range. It raises ValueError unless 0 <= m < n, m >=
    spec.offset and check_top(spec, m, n) passes.

    primes and cramer_primes walk their selected integers in increasing
    order, a sieve segment or a few random-model blocks at a time, and
    carry the count: the first m - 1 are skipped, the rest are handed on.
    So at most one segment and one block are held at a time, at any n.
    The other kinds are one elementwise call per block.
    """
    _check_range(spec, m, n)
    if spec.kind in _WALKED:
        stop = _prime_bound(n - 1) + 1 if spec.kind == "primes" else _CRAMER_REACH
        return _blocks_of(_selected(spec, stop), m - 1, n - m)
    return (_elementwise(spec, i, min(i + _BLOCK, n)) for i in range(m, n, _BLOCK))


def _check_range(spec: IndexSpec, m: int, n: int) -> None:
    if not (0 <= m < n):
        raise ValueError("need 0 <= m < n")
    if m < spec.offset:
        raise ValueError(f"{spec.kind} indices start at k = {spec.offset}; got range from {m}")
    check_top(spec, m, n)


def _elementwise(spec: IndexSpec, m: int, n: int) -> np.ndarray:
    kind = spec.kind
    if kind == "identity":
        return np.arange(m, n, dtype=np.int64)
    if kind == "monomial":
        return np.arange(m, n, dtype=np.int64) ** spec.d
    if kind == "polynomial":
        return _horner(spec.coeffs, m, n)
    if kind == "explicit":
        return np.array(spec.values[m:n], dtype=np.int64)
    raise AssertionError(kind)


def _selected(spec: IndexSpec, stop: int):
    """The selected integers of a prime-like kind in increasing order, one
    sieve segment or random-model block at a time, through every segment
    or block that starts below stop (the last may pass it). The blocks are
    independent, so drawing _DRAW integers' worth per call changes no bit."""
    if spec.kind == "primes":
        return _prime_segments(stop - 1)
    return (part for lo in range(0, stop, _DRAW)
            for part in cramer_blocks(spec.seed, block_starts(lo, min(lo + _DRAW, stop))))


def _blocks_of(parts, skip: int, count: int):
    """Elements skip .. skip + count - 1 of the concatenation of the arrays
    `parts`, as consecutive _BLOCK-element arrays, the last one shorter.
    Only the parts a block needs are held."""
    pending, have = [], 0
    for part in parts:
        if skip >= part.size:
            skip -= part.size
            continue
        pending.append(part[skip:])
        have += part.size - skip
        skip = 0
        while count and have >= min(_BLOCK, count):
            size = min(_BLOCK, count)
            joined = np.concatenate(pending)
            yield joined[:size]
            pending, have, count = [joined[size:]], have - size, count - size
        if not count:
            return
    raise RuntimeError("index walk failed to fill the range")


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
    an explicit list that ends before n, a cramer_primes index past
    _CRAMER_TERMS, monomial or polynomial values past the int64 range, or a
    polynomial that is negative or decreasing on [m, n).

    The polynomial shape check is exact and bounded: q(k) = p(k+1) - p(k)
    has degree d - 1 and leading coefficient d c_d, so for k >= K, an
    integer above its Cauchy root bound, q(k) has the sign of c_d, and p is
    evaluated only for k <= K.
    """
    if spec.kind == "explicit" and len(spec.values) < n:
        raise ValueError("explicit index list shorter than requested range")
    if spec.kind == "cramer_primes" and n - 1 > _CRAMER_TERMS:
        raise ValueError(f"cramer_primes indices stop at k = {_CRAMER_TERMS}")
    if spec.kind == "monomial" and n >= 3 and (n - 1) ** spec.d >= 2**63:
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
    shape = "polynomial must be nonnegative and nondecreasing on the range"
    if c[d] < 0 and max(m, K) <= n - 2:
        raise ValueError(shape)
    # p on [m, top), one _BLOCK at a time, each block's first value checked
    # against the last value of the block before (0 for the first)
    top, last = max(m + 1, min(n, K + 1)), 0
    for i in range(m, top, _BLOCK):
        u = _horner(c, i, min(i + _BLOCK, top))
        if u[0] < last or np.any(np.diff(u) < 0):
            raise ValueError(shape)
        last = u[-1]


def pi_count(spec: IndexSpec, N: int) -> int:
    """Number of selected integers up to N: in [2, N] for primes, [3, N]
    for the clamped random model. Requires N >= 2."""
    if N < 2:
        raise ValueError("pi_count needs N >= 2")
    if spec.kind not in _WALKED:
        raise ValueError("pi_count applies to primes or cramer_primes")
    return sum(int(np.searchsorted(part, N, side="right")) for part in _selected(spec, N + 1))


# ---------------------------------------------------------------------------
# primes


def primes_upto(limit: int) -> np.ndarray:
    """All primes <= limit: the segments of _prime_segments joined."""
    return np.concatenate([np.zeros(0, dtype=np.int64), *_prime_segments(limit)])


def _prime_segments(limit: int):
    """The primes <= limit in increasing order, one segmented-sieve segment
    of _SEG integers at a time; the base primes up to sqrt(limit) come
    from the same sieve."""
    if limit < 2:
        return
    base = primes_upto(math.isqrt(limit))
    for lo in range(2, limit + 1, _SEG):
        hi = min(lo + _SEG, limit + 1)
        mask = np.ones(hi - lo, dtype=bool)
        for p in base:
            p = int(p)
            if p * p >= hi:
                break
            start = max(p * p, ((lo + p - 1) // p) * p)
            mask[start - lo :: p] = False
        yield np.flatnonzero(mask).astype(np.int64) + lo


def _prime_bound(count: int) -> int:
    """A bound above the count-th prime: p_n < n (log n + log log n) for
    n >= 6 (Rosser), and p_5 = 11."""
    if count < 6:
        return 13
    return int(count * (math.log(count) + math.log(math.log(count)))) + 3
