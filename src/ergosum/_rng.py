"""Counter-based pseudorandom draws keyed by (seed, counter).

Every draw is a pure function of the pair (seed, counter): generating a
range element by element, in chunks, or all at once yields bit-identical
values, which is what makes random weight and index sequences
range-independent. The mixer is the SplitMix64 finalizer applied twice with
a seed-derived key injected between rounds.
"""

from __future__ import annotations

import numpy as np

_U64 = np.uint64
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_INV53 = 1.0 / (1 << 53)
# counters per pass of cramer_indicator: the temporaries of one block
# (a few 512 KiB arrays) stay in L2 instead of streaming through memory
_BLOCK = 1 << 16


def _mix(z: np.ndarray) -> np.ndarray:
    z = (z ^ (z >> _U64(30))) * _U64(_MIX1)
    z = (z ^ (z >> _U64(27))) * _U64(_MIX2)
    return z ^ (z >> _U64(31))


def _key(seed: int) -> np.uint64:
    s = np.array([(int(seed) + _GOLDEN) & 0xFFFFFFFFFFFFFFFF], dtype=_U64)
    with np.errstate(over="ignore"):
        return _mix(s)[0]


def raw64(seed: int, counters) -> np.ndarray:
    """64 mixed bits per counter, a pure function of (seed, counter)."""
    c = np.asarray(counters)
    if c.dtype.kind == "i" and c.size and int(c.min()) < 0:
        raise ValueError("counters must be nonnegative")
    c = c.astype(_U64)
    key = _key(seed)
    with np.errstate(over="ignore"):
        z = _mix((c + _U64(_GOLDEN & 0xFFFFFFFFFFFFFFFF)) ^ key)
        z = _mix(z + key)
    return z


def uniform01(seed: int, counters) -> np.ndarray:
    """Uniforms in [0, 1) with 53 significant bits, keyed by (seed, counter)."""
    return (raw64(seed, counters) >> _U64(11)).astype(np.float64) * _INV53


def bits(seed: int, counters) -> np.ndarray:
    """Single fair bits (0/1 as uint8), keyed by (seed, counter)."""
    return (raw64(seed, counters) >> _U64(63)).astype(np.uint8)


def cramer_indicator(seed: int, ks) -> np.ndarray:
    """Bernoulli(min(1, 1/log k)) indicators for integer k >= 3.

    Shared by the centered random-model weights and the random-model index
    set so one seed describes one realization across both. Evaluated in
    blocks of _BLOCK counters; every draw is elementwise in (seed, k), so
    the blocking cannot change a value.
    """
    ks = np.asarray(ks, dtype=np.int64)
    if ks.size and int(ks.min()) < 3:
        raise ValueError("random prime model indicators start at k = 3")
    flat = ks.reshape(-1)
    out = np.empty(flat.size, dtype=bool)
    for lo in range(0, flat.size, _BLOCK):
        k = flat[lo : lo + _BLOCK]
        p = np.minimum(1.0, 1.0 / np.log(k.astype(np.float64)))
        out[lo : lo + _BLOCK] = uniform01(seed, k) < p
    return out.reshape(ks.shape)
