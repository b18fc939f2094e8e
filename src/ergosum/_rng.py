"""Counter-based pseudorandom draws keyed by (seed, counter).

Every draw is a pure function of the pair (seed, counter): generating a
range element by element, in chunks, or all at once yields bit-identical
values, which is what makes random weight and index sequences
range-independent. The mixer is the SplitMix64 finalizer applied twice with
a seed-derived key injected between rounds.

The random prime model (independent Bernoulli(min(1, 1/log k)) indicators
for k >= 3) is drawn by thinning, one block of integers at a time. Below
2^16 the blocks are dyadic, [max(3, 2^j), 2^(j+1)); above, they are 2^16
wide. A block [lo, hi) takes geometric gaps at rate p_max = 1/log lo and
keeps the candidate k with probability p_k / p_max (Lewis & Shedler 1979;
Devroye, Non-Uniform Random Variate Generation, 1986, ch. VI), so about
p_max (hi - lo) draws replace hi - lo. Candidate i of the block reads
counters 2 lo + 2i (its gap) and 2 lo + 2i + 1 (its acceptance), under a
key of its own apart from the uniform01(seed, k) stream, and the blocks of
one width are drawn together, one row of candidates each. Counter ranges of
different blocks are disjoint and stay below 2^64 for every k < 2^63, so
each block is a pure function of (seed, block): weights and indices of one
seed read one realization, however often and in whatever pieces they draw
it, and nothing is kept between calls.
"""

from __future__ import annotations

import numpy as np

_U64 = np.uint64
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_INV53 = 1.0 / (1 << 53)
# xored into a mixed seed key to give the random prime model its own key
_CRAMER_STREAM = 0xD1B54A32D192ED03
# width of the random-model blocks from 2^16 on; below it they are dyadic
_WIDE = 1 << 16
# starts of the blocks below 2^16: [3, 4), then [2^j, 2^(j+1))
_DYADIC = np.array([3, *(1 << j for j in range(2, 16))], dtype=np.int64)


def _mix(z: np.ndarray) -> np.ndarray:
    """The SplitMix64 finalizer in place on a uint64 array z that the caller
    owns, with one scratch buffer for the shifts; returns z."""
    t = np.empty_like(z)
    for shift, mult in ((30, _MIX1), (27, _MIX2)):
        z ^= np.right_shift(z, _U64(shift), out=t)
        z *= _U64(mult)
    z ^= np.right_shift(z, _U64(31), out=t)
    return z


def _key(seed: int) -> np.uint64:
    s = np.array([(int(seed) + _GOLDEN) & 0xFFFFFFFFFFFFFFFF], dtype=_U64)
    with np.errstate(over="ignore"):
        return _mix(s)[0]


def _mixed(key: np.uint64, counters: np.ndarray) -> np.ndarray:
    """64 mixed bits per uint64 counter under one key, in a new array that
    the rounds then work on in place: the counters are read, never written."""
    with np.errstate(over="ignore"):
        z = counters + _U64(_GOLDEN)
        z ^= key
        _mix(z)
        z += key
        return _mix(z)


def raw64(seed: int, counters) -> np.ndarray:
    """64 mixed bits per counter, a pure function of (seed, counter)."""
    c = np.asarray(counters)
    if c.dtype.kind == "i" and c.size and int(c.min()) < 0:
        raise ValueError("counters must be nonnegative")
    return _mixed(_key(seed), c.astype(_U64))


def _to01(z: np.ndarray) -> np.ndarray:
    u = (z >> _U64(11)).astype(np.float64)
    u *= _INV53
    return u


def uniform01(seed: int, counters) -> np.ndarray:
    """Uniforms in [0, 1) with 53 significant bits, keyed by (seed, counter)."""
    return _to01(raw64(seed, counters))


# ---------------------------------------------------------------------------
# random prime model


def block_starts(a: int, b: int) -> np.ndarray:
    """Starts of the random-model blocks that meet [max(3, a), b)."""
    k = max(3, a)
    dyadic = _DYADIC[(_DYADIC < b) & (_DYADIC + _widths(_DYADIC) > k)]
    wide = np.arange(max(k & -_WIDE, _WIDE), b, _WIDE, dtype=np.int64)
    return np.concatenate([dyadic, wide])


def _widths(los: np.ndarray) -> np.ndarray:
    return np.where(los < _WIDE, np.where(los == 3, 1, los), _WIDE)


def _thinned(key: np.uint64, los: np.ndarray, want: np.ndarray) -> list:
    """Selected integers of each block (los ascending) from its first `want`
    candidates, or None for a block whose candidates stop short of its end.
    The blocks of one width are drawn together, one row per block and as
    many candidates per row as the most any of them wants."""
    out = [None] * los.size
    widths = _widths(los)
    for width in sorted(set(widths.tolist())):  # np.unique would import numpy.ma
        rows = np.flatnonzero(widths == width)
        lo, n = los[rows], int(want[rows].max())
        log_lo = np.log(lo.astype(np.float64))[:, None]
        # candidate i of a block reads counter 2 lo + 2i
        counter = 2 * lo.astype(_U64)[:, None] + 2 * np.arange(n, dtype=_U64)
        # geometric gaps >= 1 at rate p_max = 1/log lo: P(gap > g) = (1 - p_max)^g
        gap = np.log1p(-_to01(_mixed(key, counter)))
        gap /= np.log1p(-1.0 / log_lo)
        # candidate i sits at lo - 1 plus its i + 1 gaps, each floor(gap) + 1
        offset = np.cumsum(gap.astype(np.int64), axis=1) + np.arange(n)
        inside = offset < width
        k = (offset + lo[:, None])[inside]
        v = _to01(_mixed(key, counter[inside] + _U64(1)))
        # keep k with probability p_k / p_max = log lo / log k
        v *= np.log(k.astype(np.float64))
        k = k[v < np.broadcast_to(log_lo, inside.shape)[inside]]
        reached = (offset[:, -1] >= width) | (n == width)
        for j, ok, part in zip(rows, reached, np.split(k, np.searchsorted(k, lo[1:]))):
            out[j] = part if ok else None
    return out


def cramer_blocks(seed: int, los) -> list[np.ndarray]:
    """Selected integers of the random-model blocks starting at los, which
    ascend as block_starts gives them, drawn by thinning: the blocks of one
    width in one draw, one row of candidates per block (_thinned)."""
    los = np.asarray(los, dtype=np.int64)
    key = _key(seed) ^ _U64(_CRAMER_STREAM)
    width = _widths(los)
    mean = width / np.log(los.astype(np.float64))
    # the candidate count stays below mean + 6 sd but about once in 10^9
    # blocks, which are then drawn again with twice as many candidates
    want = np.minimum(width, np.ceil(mean + 6 * np.sqrt(mean) + 8).astype(np.int64))
    out = _thinned(key, los, want)
    while short := [j for j, part in enumerate(out) if part is None]:
        want[short] = np.minimum(width[short], 2 * want[short])
        for j, part in zip(short, _thinned(key, los[short], want[short])):
            out[j] = part
    return out


def cramer_indicator(seed: int, m: int, n: int) -> np.ndarray:
    """Bernoulli(min(1, 1/log k)) indicators for the integers k in [m, n),
    3 <= m < n, as a bool array.

    Shared by the centered random-model weights and the random-model index
    set so one seed describes one realization across both: the range marks
    the selected integers of the blocks that meet it.
    """
    if m < 3:
        raise ValueError("random prime model indicators start at k = 3")
    chosen = np.concatenate(cramer_blocks(seed, block_starts(m, n)))
    x = np.zeros(n - m, dtype=bool)
    x[chosen[(chosen >= m) & (chosen < n)] - m] = True
    return x
