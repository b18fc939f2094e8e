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
key of its own apart from the uniform01(seed, k) stream. Counter ranges of
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


def block_start(ks) -> np.ndarray:
    """Start lo of the random-model block holding each integer k >= 3."""
    ks = np.asarray(ks, dtype=np.int64)
    # frexp gives k = m 2^e with m in [0.5, 1), exactly for k < 2^16
    e = np.frexp(np.minimum(ks, _WIDE - 1).astype(np.float64))[1]
    return np.where(ks < _WIDE, np.maximum(3, np.int64(1) << (e - 1)), ks & np.int64(-_WIDE))


def block_starts(a: int, b: int) -> np.ndarray:
    """Starts of the random-model blocks that meet [max(3, a), b)."""
    first = int(block_start(max(3, a)))
    dyadic = [lo for lo in (3, *(1 << j for j in range(2, 16))) if first <= lo < b]
    wide = np.arange(max(first, _WIDE), b, _WIDE, dtype=np.int64)
    return np.concatenate([np.array(dyadic, dtype=np.int64), wide])


def _widths(los: np.ndarray) -> np.ndarray:
    # [3, 4) and [2^j, 2^(j+1)) below 2^16, then 2^16 wide
    return np.where(los < _WIDE, np.where(los == 3, 1, los), _WIDE)


def _thinned(key: np.uint64, los: np.ndarray, want: np.ndarray) -> list:
    """Selected integers of each block (los ascending) from its first `want`
    candidates, or None for a block whose candidates stop short of its end."""
    width = _widths(los)
    log_lo = np.log(los.astype(np.float64))
    start = np.cumsum(want) - want
    # candidate i of a block reads counter 2 lo + 2i; 2 (lo - start) wraps
    # in uint64 where start > lo, and adding 2 (start + i) wraps it back
    with np.errstate(over="ignore"):
        counter = (np.repeat(2 * (los.astype(_U64) - start.astype(_U64)), want)
                   + 2 * np.arange(want.sum(), dtype=_U64))
    # geometric gaps >= 1 at rate p_max = 1/log lo: P(gap > g) = (1 - p_max)^g
    gap = np.log1p(-_to01(_mixed(key, counter)))
    gap /= np.repeat(np.log1p(-1.0 / log_lo), want)
    gap = gap.astype(np.int64) + 1
    total = np.cumsum(gap)
    # offset of each candidate from its block's lo
    offset = total - np.repeat(total[start] - gap[start] + 1, want)
    reached = (offset[start + want - 1] >= width) | (want == width)
    inside = offset < np.repeat(width, want)
    k = (offset + np.repeat(los, want))[inside]
    v = _to01(_mixed(key, counter[inside] + _U64(1)))
    # keep k with probability p_k / p_max = log lo / log k
    k = k[v * np.log(k.astype(np.float64)) < np.repeat(log_lo, want)[inside]]
    parts = np.split(k, np.searchsorted(k, los[1:]))
    return [part if ok else None for ok, part in zip(reached, parts)]


def cramer_blocks(seed: int, los) -> list[np.ndarray]:
    """Selected integers of the random-model blocks starting at los, which
    ascend as block_starts and np.unique give them, drawn by thinning."""
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


def cramer_indicator(seed: int, ks) -> np.ndarray:
    """Bernoulli(min(1, 1/log k)) indicators for integer k >= 3.

    Shared by the centered random-model weights and the random-model index
    set so one seed describes one realization across both: each k is looked
    up in the drawn block that holds it.
    """
    ks = np.asarray(ks, dtype=np.int64)
    if ks.size and int(ks.min()) < 3:
        raise ValueError("random prime model indicators start at k = 3")
    chosen = np.concatenate([np.zeros(0, dtype=np.int64),
                             *cramer_blocks(seed, np.unique(block_start(ks)))])
    if not chosen.size:
        return np.zeros(ks.shape, dtype=bool)
    return chosen.take(np.searchsorted(chosen, ks), mode="clip") == ks
