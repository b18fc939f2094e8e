"""Trigonometric sums V(theta) = sum_k w_k exp(2 i pi theta u_k) and their
sup-over-theta envelopes with explicit certificates.

Conventions:

* the caller passes aligned slices (w_k, u_k) for the k-range of interest,
  so a sum over [M, N) is just the corresponding array slices;
* the harmonic variant divides each weight by its index k (k >= 1), the
  shape used by one-sided Hilbert-type series;
* indices are integers, so sums are 1-periodic in theta and the sup is
  taken over the fundamental domain [0, 1).

Certificates: sup_envelope evaluates |V| on one FFT grid of L points
theta_j = j/L, h = 1/L (the only ThetaGrid form), and turns its maximum G
into a bound on the sup over every theta. With D = u_max - u_min, |V|^2 is
a real trigonometric polynomial of degree D, so Bernstein's inequality
(Zygmund, Trigonometric Series, ch. X) gives |(|V|^2)''| <= (2 pi D)^2 sup
|V|^2. The derivative of |V|^2 vanishes at a maximizer and a grid point
lies within h/2 of it, hence sup |V| <= G / sqrt(1 - pi^2 D^2 h^2 / 2)
whenever pi^2 D^2 h^2 / 2 < 1. An allowance 8 eps (log2 L + 1) sum |w_k|
for FFT rounding is taken off `lower` and added to `upper`, and `upper` is
capped at the triangle bound sum |w_k|. The factor 8 is checked
empirically, not proven: pocketfft's mixed radix has no published error
constant, and tests/test_trigsum.py::test_fft_rounding_within_allowance
compares eval_grid with a long-double DFT at distinct residues u mod L.
Where the condition fails, `upper` is sum |w_k| and the estimate is
flagged `aliased`.

Every reduction is chunked pairwise (see _kernels), and phase arguments
theta*u are reduced mod 1 exactly through the ratio of theta (a double's
dyadic M/2**J or a Fraction, see _kernels.frac_ratio), so evaluation is
deterministic and keeps full precision at large u.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from ._kernels import frac_of, next_pow2, pairwise_sum

_EPS = float(np.finfo(np.float64).eps)

DEFAULT_GRID_CAP = 1 << 22
SCALED_GRID_CAP = 1 << 26


@dataclass(frozen=True)
class ThetaGrid:
    """Equispaced theta samples j / points, j = 0 .. points - 1, on [0, 1)."""

    points: int

    def __post_init__(self):
        if self.points < 2:
            raise ValueError("grid needs at least 2 points")

    @property
    def spacing(self) -> float:
        return 1.0 / self.points


@dataclass(frozen=True)
class SupEstimate:
    """Certified bracket for sup_theta |V(theta)|."""

    lower: float
    upper: float
    argmax_theta: float
    weight_l1: float
    grid_points: int
    aliased: bool

    def __post_init__(self):
        if not 0.0 <= self.lower <= self.upper:
            raise ValueError("sup estimate needs 0 <= lower <= upper")


def _check_pair(weights: np.ndarray, indices: np.ndarray):
    w = np.ascontiguousarray(weights, dtype=np.complex128)
    u = np.ascontiguousarray(indices)
    if u.dtype.kind not in "iu":
        raise TypeError("indices must be integers")
    if w.shape != u.shape or w.ndim != 1:
        raise ValueError("weights and indices must be aligned 1-d arrays")
    if w.size == 0:
        raise ValueError("empty range")
    if u.size and int(u.min()) < 0:
        raise ValueError("indices must be nonnegative")
    return w, u


def eval_sum(weights, indices, theta) -> complex:
    """V(theta) = sum_k w_k exp(2 i pi theta u_k), chunked pairwise.

    theta may be a float or a Fraction (exact rational reduction, useful
    for spectral atoms and rotation angles given as convergents).
    """
    w, u = _check_pair(weights, indices)
    phase = frac_of(theta, u)
    return complex(pairwise_sum(np.multiply(w, np.exp(2j * np.pi * phase))))


def eval_grid(weights, indices, grid: ThetaGrid) -> np.ndarray:
    """V on every grid point, through an FFT scatter: weights are binned at
    u_k mod L and one inverse transform of length L = grid.points returns
    every value exactly (integer indices fold mod L without error).
    """
    w, u = _check_pair(weights, indices)
    L = grid.points
    pos = (u.astype(np.uint64) % np.uint64(L)).astype(np.int64)
    acc = np.empty(L, dtype=np.complex128)
    acc.real = np.bincount(pos, weights=w.real, minlength=L)
    acc.imag = np.bincount(pos, weights=w.imag, minlength=L)
    # unnormalized inverse transform in place: no 1/L scaling to undo
    # and no second grid-sized buffer
    return np.fft.ifft(acc, norm="forward", out=acc)


def default_grid(n_terms: int, span: int) -> ThetaGrid:
    """Default sup grid: min(2**22, next_pow2(16 N)) points, rescaled by
    span/N (capped at 2**26) when the index span D = u_max - u_min exceeds
    the term count N, so peaks of width ~1/D stay sampled. Only N and D
    enter, so an (M, N] block of u = k gets the grid of (0, N - M]."""
    points = min(DEFAULT_GRID_CAP, next_pow2(16 * max(1, n_terms)))
    if span > n_terms > 0:
        scale = span / n_terms
        points = min(SCALED_GRID_CAP, next_pow2(int(points * scale)))
    return ThetaGrid(max(points, 16))


def sup_envelope(weights, indices, grid: ThetaGrid | None = None) -> SupEstimate:
    """Certified bracket for sup over theta in [0, 1) of |V(theta)|.

    One FFT grid of L points gives the maximum G; with D = u_max - u_min,
    h = 1/L and the FFT rounding allowance e = 8 eps (log2 L + 1) sum |w|,
    lower = max(0, G - e), never above upper, and upper = min(sum |w|,
    (G + e) / sqrt(1 - pi^2 D^2 h^2 / 2)), a bound on every theta (module
    docstring). The factor 8 in e is checked empirically, not proven, by
    test_fft_rounding_within_allowance. If pi^2 D^2 h^2 / 2 >= 1, upper
    is sum |w|, `aliased` is set and a RuntimeWarning is emitted.
    """
    w, u = _check_pair(weights, indices)
    span = int(u.max()) - int(u.min())
    if grid is None:
        grid = default_grid(w.size, span)
    weight_l1 = float(pairwise_sum(np.abs(w)))
    vals = np.abs(eval_grid(w, u, grid))
    top = int(np.argmax(vals))
    peak = float(vals[top])
    fft_slack = 8.0 * _EPS * (math.log2(grid.points) + 1.0) * weight_l1
    curvature = (math.pi * span * grid.spacing) ** 2 / 2.0
    aliased = curvature >= 1.0
    if aliased:
        warnings.warn(
            "grid too coarse for the Bernstein certificate; upper falls "
            "back to the weight mass",
            RuntimeWarning,
        )
        upper = weight_l1
    else:
        upper = min(weight_l1, (peak + fft_slack) / math.sqrt(1.0 - curvature))
    return SupEstimate(
        lower=min(max(0.0, peak - fft_slack), upper),
        upper=upper,
        argmax_theta=grid.spacing * top,
        weight_l1=weight_l1,
        grid_points=grid.points,
        aliased=aliased,
    )


# ---------------------------------------------------------------------------
# harmonic variant: weights w_k / k, the Hilbert-series shape


def _harmonic_pair(weights, indices, k_first: int):
    w, u = _check_pair(weights, indices)
    if k_first < 1:
        raise ValueError("harmonic sums start at k >= 1")
    k = np.arange(k_first, k_first + w.size, dtype=np.float64)
    return w / k, u


def eval_harmonic(weights, indices, theta, k_first: int = 1) -> complex:
    """sum_k (w_k / k) exp(2 i pi theta u_k); weights[0] belongs to k_first."""
    hw, u = _harmonic_pair(weights, indices, k_first)
    return eval_sum(hw, u, theta)


def sup_harmonic(weights, indices, grid: ThetaGrid | None = None,
                 k_first: int = 1) -> SupEstimate:
    """Certified sup estimate for the harmonic sum: sup_envelope on the
    weights w_k / k."""
    hw, u = _harmonic_pair(weights, indices, k_first)
    return sup_envelope(hw, u, grid=grid)
