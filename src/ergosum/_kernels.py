"""Deterministic numeric kernels shared across the package.

Three concerns live here:

* the integer and real predicates that spec fields are checked with, so
  that a bool, a string or a fraction is rejected instead of coerced, and
  check_reads, which refuses a spec field its kind does not read,

* fixed-shape chunked pairwise reductions, so every sum in the package is
  reproducible bit for bit regardless of how the work is batched; among
  them prefix_sums, the one prefix-sum path: one loop over a stream of
  blocks of terms, in-chunk running sums plus the running total of the
  chunks before. Every block but the last holds _BLOCK terms, whole
  chunks, so block edges are chunk edges and the chunk partition, hence
  every bit, is the same whether the stream is array_blocks of one array
  or the orbit stages' cache-sized blocks, drawn one at a time (a
  BlockSource gives such a stream a length), and

* exact mod-1 argument reduction of (shift + u*num)/den for integer u in
  one kernel, frac_ratio: a double theta enters as its exact ratio
  M/2**J, a Fraction as itself, and the residue stays exact however large
  u and den get, which keeps trigonometric sums accurate when theta*u is
  far above 2**53. Its mulmod reduces the high 32 bits of u only when
  some u has them, so indices below 2**32 take one half, not two; mod1
  is the one mod-1 of a double every module uses.
"""

from __future__ import annotations

import numbers
from dataclasses import MISSING, fields
from fractions import Fraction

import numpy as np

# chunk width for pairwise reductions; partial sums over one chunk are
# combined by a fixed binary tree, so serial and batched runs agree exactly
CHUNK = 4096
# terms per block of a prefix_sums run, a whole number of chunks: one
# block of complex terms and its temporaries fit in a core's cache
_BLOCK = 16 * CHUNK

_U64 = np.uint64


def is_int(v) -> bool:
    return isinstance(v, numbers.Integral) and not isinstance(v, bool)


def is_real(v) -> bool:
    return isinstance(v, numbers.Real) and not isinstance(v, bool)


def check_reads(spec, reads: dict, what: str) -> None:
    """Raise ValueError unless spec.kind is a key of `reads`, the table of
    the optional fields each kind reads, and every other optional field of
    the dataclass spec is unset: None, or empty where it defaults to ()."""
    if spec.kind not in reads:
        raise ValueError(f"unknown {what} kind {spec.kind!r}")
    for f in fields(spec):
        v = getattr(spec, f.name)
        if f.default is MISSING or f.name in reads[spec.kind] or v is None:
            continue
        if not (f.default == () and isinstance(v, (list, tuple)) and not v):
            raise ValueError(f"{spec.kind} reads no {f.name}")


def next_pow2(n: int) -> int:
    """Smallest power of two >= max(n, 1)."""
    if n <= 1:
        return 1
    return 1 << (int(n - 1).bit_length())


def chunk_sums(a: np.ndarray) -> np.ndarray:
    """Per-chunk sums of a 1-d array, at least one. The full chunks are
    summed in place; a partial last chunk (or an empty array) is copied
    into one zero-padded row first, so every chunk sums in the same shape."""
    a = np.ascontiguousarray(a)
    full, rest = divmod(a.shape[0], CHUNK)
    sums = a[: full * CHUNK].reshape(full, CHUNK).sum(axis=1)
    if rest == 0 and full > 0:
        return sums
    tail = np.zeros((1, CHUNK), dtype=a.dtype)
    tail[0, :rest] = a[full * CHUNK :]
    return np.concatenate([sums, tail.sum(axis=1)])


def tree_reduce(partials: np.ndarray) -> complex | float:
    """Fold partial sums by a fixed binary tree (zero-padded at odd levels)."""
    p = partials
    while p.shape[0] > 1:
        if p.shape[0] % 2:
            p = np.concatenate([p, np.zeros(1, dtype=p.dtype)])
        p = p[0::2] + p[1::2]
    return p[0]


def pairwise_sum(a: np.ndarray):
    """Deterministic chunked pairwise sum of a 1-d array."""
    return tree_reduce(chunk_sums(a))


def prefix_sums(blocks, bounds, offset: int = 0) -> np.ndarray:
    """Prefix sums of a term sequence at exclusive end positions ``bounds -
    offset`` (strictly increasing integers >= 1), taking the terms from
    ``blocks``, an iterable of consecutive 1-d arrays: each block before
    the last one needed holds exactly _BLOCK terms, and the last one at
    least the terms left and at most _BLOCK, of which those past the last
    bound are ignored (so array_blocks of a longer array will do). One
    block's terms and their temporaries stay in cache, and no block past
    the last bound is drawn. A missing or misshapen block raises
    ValueError. The offset lets a caller pass a stored grid of N as it
    is, with no shifted copy.

    Element i of the result is sum(terms[:bounds[i] - offset]), assembled from a
    fixed chunk partition: cumulative inside each chunk of CHUNK terms,
    sequential across the totals of the chunks before it. Blocks hold
    whole chunks (bar the last), so block edges are chunk edges and the
    carried running total is that of the chunks summed so far: a bound's
    value is bit-identical whichever other bounds are asked for.

    When every end 1..n is asked for, the in-chunk sums go straight into
    the result; otherwise each block's go into one scratch buffer, from
    which the bounds inside the block are read.
    """
    bounds = np.asarray(bounds, dtype=np.int64)
    if bounds.ndim != 1 or bounds.size == 0 or bounds[0] - offset < 1 or np.any(
            bounds[1:] <= bounds[:-1]):
        raise ValueError("bounds - offset must be strictly increasing integers >= 1")
    n = int(bounds[-1]) - offset
    dense = bounds.size == n  # every end 1..n
    blocks = iter(blocks)
    values = scratch = carry = None
    done = 0
    for i in range(0, n, _BLOCK):
        m = min(_BLOCK, n - i)
        block = next(blocks, None)
        if block is None or np.ndim(block) != 1 or not m <= len(block) <= _BLOCK:
            raise ValueError(f"block source cannot give terms [{i}, {i + m})")
        terms = np.ascontiguousarray(block[:m])
        if values is None:  # the first block is the longest
            values = np.empty(bounds.size, dtype=terms.dtype)
            scratch = None if dense else np.empty(m, dtype=terms.dtype)
        out = values[i : i + m] if dense else scratch[:m]
        f = m - m % CHUNK
        rows = out[:f].reshape(-1, CHUNK)
        np.cumsum(terms[:f].reshape(-1, CHUNK), axis=1, out=rows)
        np.cumsum(terms[f:], out=out[f:])
        if carry is None:  # chunk 0 is never added to, so a leading -0.0 keeps its sign
            totals = np.cumsum(rows[:, -1])
            rows[1:, :-1] += totals[:-1, None]
        else:
            totals = np.cumsum(np.concatenate([carry, rows[:, -1]]))
            rows[:, :-1] += totals[:-1, None]
            totals = totals[1:]
        rows[:, -1] = totals
        if f:
            carry = totals[-1:].copy()
        if carry is not None:
            out[f:] += carry
        if not dense:
            stop = int(np.searchsorted(bounds, offset + i + m, side="right"))
            values[done:stop] = out[bounds[done:stop] - (offset + 1 + i)]
            done = stop
    return values


def array_blocks(a: np.ndarray):
    """A 1-d array as the block stream prefix_sums takes: its consecutive
    _BLOCK-term slices, the last one shorter."""
    return (a[i : i + _BLOCK] for i in range(0, a.shape[0], _BLOCK))


class BlockSource:
    """A sequence of `size` terms as an iterable of consecutive _BLOCK-term
    arrays (the last one shorter), read once. len() is the term count, so
    a run is sized before any term is drawn."""

    def __init__(self, size: int, blocks):
        self.size = int(size)
        self._blocks = blocks

    def __len__(self) -> int:
        return self.size

    def __iter__(self):
        return iter(self._blocks)


# ---------------------------------------------------------------------------
# exact argument reduction


# largest modulus for mulmod: remainders off by one den then stay in
# [-den, 2*den), which int64 holds
MULMOD_MAX_DEN = 1 << 62
_LOW32 = np.uint64(0xFFFFFFFF)


def _estimated_remainder(x: np.ndarray, c: int, den: int) -> np.ndarray:
    """x*c - q*den as int64 for an int64 array 0 <= x < 2**32 and Python
    ints 0 <= c < den <= 2**62, with q = floor(x * (c/den)) in doubles.

    x is exact in a double and x*c/den < 2**32, so the two roundings of
    relative size 2**-53 leave an error below 2**-20 before the floor: q
    is off by at most one, the true remainder lies in [-den, 2*den), and
    the wraparound int64 arithmetic therefore gives it exactly.
    """
    q = np.floor(x.astype(np.float64) * (c / den)).astype(np.int64)
    return x * c - q * den


def _fold(r: np.ndarray, den: int) -> np.ndarray:
    """Bring r in [-den, 2*den) into [0, den) in place; the arithmetic
    shift spreads the sign bit into the mask that selects each fixup."""
    r += (r >> 63) & den
    r -= ((den - 1 - r) >> 63) & den
    return r


def mulmod(u: np.ndarray, c: int, den: int) -> np.ndarray:
    """(u * c) % den as int64, exact, for a nonnegative integer array u
    and Python ints 0 <= c < den <= MULMOD_MAX_DEN.

    u = h * 2**32 + l is reduced as l*c + h*(c * 2**32 % den), each half
    by a float-estimated quotient with +-den fixups (the MulMod of NTL).
    When every u is below 2**32, h is 0, its term is 0 and the last fold
    does nothing, so only the low half is reduced.
    """
    x = np.asarray(u).reshape(-1).astype(np.uint64)
    if int(x.max(initial=0)) < 1 << 32:
        r = _fold(_estimated_remainder(x.view(np.int64), c, den), den)
        return r.reshape(np.shape(u))
    lo = (x & _LOW32).view(np.int64)
    hi = (x >> _U64(32)).view(np.int64)
    r = _fold(_estimated_remainder(lo, c, den), den)
    r += _fold(_estimated_remainder(hi, (c << 32) % den, den), den)
    return _fold(r, den).reshape(np.shape(u))


def _nonnegative_ints(u: np.ndarray) -> bool:
    return u.dtype.kind == "u" or (
        u.dtype.kind == "i" and (u.size == 0 or int(u.min()) >= 0))


def frac_ratio(num: int, den: int, u: np.ndarray, shift: int = 0) -> np.ndarray:
    """frac((shift + u * num) / den) for integer u: the one exact reduction.

    The residue rem = (shift + u * num) % den is exact and is rounded as
    float(rem) / float(den), so a residue within half an ulp of den gives
    1.0, the same phase as 0.0. It comes from wraparound uint64 products
    when den is a power of two <= 2**64 (a double whose lowest set bit is
    2**-64 or above), from mulmod when den <= 2**62 and u >= 0 (every
    SystemModel angle), and from Python integers otherwise.
    """
    if den <= 0:
        raise ValueError("denominator must be positive")
    u = np.asarray(u)
    p, s = num % den, shift % den
    scale = 1
    if u.dtype.kind in "iu" and den <= 1 << 64 and den & (den - 1) == 0:
        with np.errstate(over="ignore"):
            rems = (u.astype(_U64) * _U64(p) + _U64(s)) & _U64(den - 1)
    elif den <= MULMOD_MAX_DEN and _nonnegative_ints(u):
        rems = mulmod(u, p, den)
        if s:
            rems = _fold(rems + s, den)
    else:
        # a common power of two keeps den / scale a finite double and
        # changes neither rounding
        scale = 1 << max(den.bit_length() - 1000, 0)
        rems = ((u.astype(object) * p + s) % den) / scale
    return np.asarray(rems, dtype=np.float64) / (den / scale)


def frac_of(theta, u: np.ndarray) -> np.ndarray:
    """frac(theta * u) in [0, 1) for a float or Fraction theta: frac_ratio
    on the exact ratio of theta, with a 1.0 read as 0.0."""
    if not isinstance(theta, Fraction):
        theta = float(theta)
    f = frac_ratio(*theta.as_integer_ratio(), u)
    return np.where(f < 1.0, f, 0.0)


def frac_poly(coeffs, k: np.ndarray) -> np.ndarray:
    """frac(sum_j coeffs[j] * k**j) for integer k, exact per monomial.

    Each monomial is reduced mod 1 by frac_ratio on the exact ratio of its
    coefficient before anything is added, so integer-coefficient
    polynomials give exact zeros and large k never degrade the phase.
    """
    k = np.asarray(k)
    total = np.zeros(k.shape, dtype=np.float64)
    for j, c in enumerate(coeffs):
        num, den = float(c).as_integer_ratio()
        if den == 1:
            continue  # c * k**j is an exact integer
        if den <= 1 << 64:
            with np.errstate(over="ignore"):  # wraparound keeps k**j mod den
                kj = k.astype(_U64) ** _U64(j)
        else:
            kj = k.astype(object) ** j
        total += frac_ratio(num, den, kj)
    return mod1(total)


def mod1(y: np.ndarray) -> np.ndarray:
    """y mod 1 in [0, 1] for a finite float array, bit for bit np.mod(y,
    1.0) and faster: floor is cheaper than the fmod inside np.mod.
    y - floor(y) is exact for y >= 0 and rounds once, as np.mod's own
    fixup y - trunc(y) + 1 does, for y < 0."""
    return y - np.floor(y)
