"""Weighted sums along orbits, normalizers, series partial sums, block
ladders and oscillation statistics.

Conventions used throughout:

    running sums      S_N = sum_{k_first <= k < N} w_k f(T^{u_k} x0)
                      (exclusive N, element j of the term arrays is k_first+j)
    series sums       partial(N) = sum_{k_first <= k <= N} (w_k / A(k)) f_k
                      (inclusive N, the one-sided transform shape)
    normalizers       A(k) = k^gamma log^a k (log log k)^b, evaluated for
                      k >= k0 where every factor is positive

Runs store prefix values on a grid: every N up to DENSE_LIMIT = 10^6,
then geometric checkpoints; statistics over "all N" are grid statistics
and say so. Terms come from one formula, orbit_terms, and prefixes from
one kernel, _kernels.prefix_sums, which asks for the terms one block at a
time and sums them over a fixed chunk partition: a stored value is
bit-identical whether the blocks are slices of one array (prefix_at) or,
in the harness stages, made from one block of orbit values at a time. No
reduction that reaches an output goes through BLAS: slopes take their
sums with the same pairwise kernel, so no report depends on the BLAS
build or its thread count. What every run on one stored grid shares
under one normalizer (A(N), the slope's regressor) is a NormalizedGrid,
built once per grid and normalizer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._kernels import frac_of, is_int, is_real, pairwise_sum, prefix_at
from .dynamics import SpectralMeasure
from .trigsum import ThetaGrid, eval_grid

LADDER_KINDS = ("dyadic", "doubly_exponential", "rho_ladder", "rho_rho_ladder")

DENSE_LIMIT = 1_000_000
GRID_RATIO = 1.01
_N_CAP = 1 << 62


@dataclass(frozen=True)
class NormalizerSpec:
    """A(k) = k**gamma * log**a k * (log log k)**b for k >= k0.

    k0 defaults to 3, or 16 when b != 0 (small log log values would make
    monotonicity checks meaningless); it may be lowered to 1 for pure
    powers (a = b = 0), to 2 when only a != 0.
    """

    gamma: float
    a: float = 0.0
    b: float = 0.0
    k0: int | None = None

    def __post_init__(self):
        if not (is_real(self.gamma) and self.gamma >= 0 and math.isfinite(self.gamma)):
            raise ValueError("gamma must be finite and >= 0")
        if not all(is_real(v) and math.isfinite(v) for v in (self.a, self.b)):
            raise ValueError("a and b must be finite real numbers")
        minimum = 1
        if self.a != 0:
            minimum = 2
        if self.b != 0:
            minimum = 3
        default = 16 if self.b != 0 else 3
        k0 = default if self.k0 is None else self.k0
        if not (is_int(k0) and k0 >= minimum):
            raise ValueError(f"k0 must be an integer >= {minimum} for this normalizer")
        k0 = int(k0)
        object.__setattr__(self, "k0", k0)

    def values(self, ks) -> np.ndarray:
        """A(k) on an integer array; every k must be >= k0."""
        k = np.ascontiguousarray(ks, dtype=np.float64)
        if k.size and k.min() < self.k0:
            raise ValueError(f"normalizer defined for k >= {self.k0}")
        with np.errstate(over="ignore"):  # an overflow fails the check below
            out = k ** self.gamma
            if self.a != 0:
                out = out * np.log(k) ** self.a
            if self.b != 0:
                out = out * np.log(np.log(k)) ** self.b
        if np.any(~np.isfinite(out)) or np.any(out <= 0.0):
            raise ValueError("normalizer must be positive on the range")
        return out

    def is_monotone_on(self, n_lo: int, n_hi: int) -> bool:
        ks = np.arange(max(self.k0, n_lo), n_hi + 1, dtype=np.int64)
        if ks.size < 2:
            return True
        return bool(np.all(np.diff(self.values(ks)) >= 0.0))


@dataclass(frozen=True)
class BlockLadder:
    """Checkpoints N_j along which anchors and oscillations are measured.

    dyadic              N_j = 2**j
    doubly_exponential  N_j = 2**(2**j)
    rho_ladder          N_j = floor(rho**(j**(1-eps) * log j)), j >= 2
    rho_rho_ladder      N_j = floor(rho**(rho**(j**(1-eps) * log j))), j >= 2
    """

    kind: str
    j_lo: int
    j_hi: int
    rho: float | None = None
    epsilon: float | None = None

    def __post_init__(self):
        if self.kind not in LADDER_KINDS:
            raise ValueError(f"unknown ladder kind {self.kind!r}")
        if not (is_int(self.j_lo) and is_int(self.j_hi) and 0 <= self.j_lo <= self.j_hi):
            raise ValueError("need integers 0 <= j_lo <= j_hi")
        if self.kind in ("rho_ladder", "rho_rho_ladder"):
            if not (is_real(self.rho) and self.rho > 1):
                raise ValueError("rho ladders need rho > 1")
            if not (is_real(self.epsilon) and 0 < self.epsilon <= 0.5):
                raise ValueError("rho ladders need epsilon in (0, 1/2]")
            if self.j_lo < 2:
                raise ValueError("rho ladders start at j = 2 (log j > 0)")
        ns = self.values()
        if np.any(np.diff(ns) <= 0):
            raise ValueError("ladder must be strictly increasing on its j range")

    def js(self) -> np.ndarray:
        return np.arange(self.j_lo, self.j_hi + 1, dtype=np.int64)

    def values(self) -> np.ndarray:
        j = self.js()
        if self.kind == "dyadic":
            if self.j_hi >= 62:
                raise ValueError("dyadic ladder exceeds the 2**62 cap")
            return (np.int64(1) << j).astype(np.int64)
        if self.kind == "doubly_exponential":
            if self.j_hi >= 6:
                raise ValueError("doubly exponential ladder exceeds the 2**62 cap")
            return (np.int64(1) << (np.int64(1) << j)).astype(np.int64)
        expo = j.astype(np.float64) ** (1.0 - self.epsilon) * np.log(j)
        if self.kind == "rho_rho_ladder":
            expo = self.rho ** expo
        vals = np.floor(self.rho ** expo)
        if np.any(~np.isfinite(vals)) or np.any(vals > _N_CAP):
            raise ValueError("ladder exceeds the 2**62 cap")
        return vals.astype(np.int64)

    @classmethod
    def dyadic(cls, j_lo: int, j_hi: int) -> "BlockLadder":
        return cls(kind="dyadic", j_lo=j_lo, j_hi=j_hi)

    @classmethod
    def doubly_exponential(cls, j_lo: int, j_hi: int) -> "BlockLadder":
        return cls(kind="doubly_exponential", j_lo=j_lo, j_hi=j_hi)


def storage_grid(n_lo: int, n_hi: int) -> np.ndarray:
    """Stored checkpoints: every integer in [n_lo, min(n_hi, DENSE_LIMIT)],
    then geometric steps of ratio GRID_RATIO, always ending at n_hi."""
    if not (1 <= n_lo <= n_hi):
        raise ValueError("need 1 <= n_lo <= n_hi")
    dense_top = min(n_hi, max(DENSE_LIMIT, n_lo))
    tail = []
    n = dense_top
    while n < n_hi:
        n = min(max(n + 1, int(n * GRID_RATIO)), n_hi)
        tail.append(n)
    return np.concatenate([np.arange(n_lo, dense_top + 1, dtype=np.int64),
                           np.array(tail, dtype=np.int64)])


@dataclass(eq=False)
class SeriesRun:
    """Prefix values on a stored N grid.

    convention "exclusive": sums[i] = sum over k in [k_first, n_grid[i]).
    convention "inclusive": sums[i] = sum over k in [k_first, n_grid[i]].
    """

    k_first: int
    n_grid: np.ndarray
    sums: np.ndarray
    normalizer: NormalizerSpec | None = None
    convention: str = "exclusive"

    def __post_init__(self):
        self.n_grid = np.ascontiguousarray(self.n_grid, dtype=np.int64)
        self.sums = np.ascontiguousarray(self.sums, dtype=np.complex128)
        if self.convention not in ("exclusive", "inclusive"):
            raise ValueError("convention must be exclusive or inclusive")
        if self.n_grid.ndim != 1 or self.n_grid.size == 0:
            raise ValueError("empty run")
        if self.n_grid.size != self.sums.size:
            raise ValueError("grid and sums must align")
        if np.any(self.n_grid[1:] <= self.n_grid[:-1]):
            raise ValueError("stored grid must be strictly increasing")
        first_ok = self.k_first + (1 if self.convention == "exclusive" else 0)
        if int(self.n_grid[0]) < first_ok:
            raise ValueError("grid starts before the first term")

    @property
    def n_max(self) -> int:
        return int(self.n_grid[-1])

    def sum_at(self, N: int) -> complex:
        i = int(np.searchsorted(self.n_grid, N))
        if i >= self.n_grid.size or self.n_grid[i] != N:
            raise KeyError(f"N = {N} is not a stored checkpoint")
        return complex(self.sums[i])


def orbit_terms(weights: np.ndarray, orbit_values: np.ndarray,
                norm: NormalizerSpec | None = None, k_first: int = 0) -> np.ndarray:
    """Terms w_k * orbit_k of a running sum, or (w_k * orbit_k) / A(k) of
    a series when a normalizer is given; element j is k = k_first + j.

    The product is np.multiply(w, v) in that operand order: where complex
    multiplication uses fused multiply-adds, v * w can differ from w * v
    in the last bit, and numpy may evaluate ``w * tmp`` as ``tmp * w`` to
    reuse an unnamed temporary."""
    terms = np.multiply(weights, orbit_values)
    if norm is not None:
        terms /= norm.values(np.arange(k_first, k_first + terms.size, dtype=np.int64))
    return terms


def weighted_sums(orbit_values, weights, k_first: int = 0,
                  normalizer: NormalizerSpec | None = None,
                  n_grid: np.ndarray | None = None) -> SeriesRun:
    """Running sums S_N = sum_{k_first <= k < N} w_k * orbit_k on a stored
    grid (default: dense up to 10^6 then geometric)."""
    v = np.ascontiguousarray(orbit_values, dtype=np.complex128)
    w = np.ascontiguousarray(weights, dtype=np.complex128)
    if v.shape != w.shape or v.ndim != 1 or v.size == 0:
        raise ValueError("orbit values and weights must be aligned 1-d arrays")
    n_top = k_first + v.size
    if n_grid is None:
        n_grid = storage_grid(k_first + 1, n_top)
    n_grid = np.ascontiguousarray(n_grid, dtype=np.int64)
    if n_grid.size == 0 or n_grid[0] <= k_first or n_grid[-1] > n_top:
        raise ValueError(f"grid must lie within ({k_first}, {n_top}]")
    sums = prefix_at(orbit_terms(w, v), n_grid - k_first)
    return SeriesRun(k_first=k_first, n_grid=n_grid, sums=sums,
                     normalizer=normalizer)


def _centred_regressor(n: np.ndarray, gamma: float) -> np.ndarray:
    """x - mean(x) for the slope's regressor x: log N, or log log N when
    gamma = 0 (log-scale normalizers)."""
    x = np.log(n.astype(np.float64))
    if gamma == 0.0:
        x = np.log(x)
    x -= x.mean()
    return x


def _dot(u: np.ndarray, v: np.ndarray) -> float:
    """sum(u * v) by the package's pairwise sum, not a BLAS dot product,
    whose bits depend on the BLAS build and its thread count."""
    return float(pairwise_sum(u * v))


@dataclass(eq=False)
class NormalizedGrid:
    """The part of a stored grid a normalizer divides (N >= k0), with what
    every run on that grid shares: A(N), whether A is monotone there, and
    the slope's centred regressor xc with its sum of squares. One is built
    per stored grid and normalizer, not per run.

    start is the index of the first N >= k0 in the stored grid; n_grid is
    the stored grid from there on (a view)."""

    start: int
    n_grid: np.ndarray
    a: np.ndarray
    gamma: float
    monotone: bool
    xc: np.ndarray
    xc_sq: float

    @classmethod
    def build(cls, n_grid: np.ndarray, norm: NormalizerSpec) -> "NormalizedGrid":
        start = int(np.searchsorted(n_grid, norm.k0))
        if start >= n_grid.size:
            raise ValueError("entire grid lies below the normalizer offset k0")
        n = n_grid[start:]
        a = norm.values(n)
        xc = _centred_regressor(n, norm.gamma)
        return cls(start=start, n_grid=n, a=a, gamma=norm.gamma,
                   monotone=bool(np.all(a[1:] >= a[:-1])),
                   xc=xc, xc_sq=_dot(xc, xc))


@dataclass(eq=False)
class NormalizedSeries:
    """Ratios |S_N| / A(N) on a normalized grid, with tail and slope reports."""

    grid: NormalizedGrid
    ratios: np.ndarray

    @property
    def n_grid(self) -> np.ndarray:
        return self.grid.n_grid

    @property
    def monotone_normalizer(self) -> bool:
        return self.grid.monotone

    def value_at(self, N: int) -> float:
        i = int(np.searchsorted(self.n_grid, N, side="right")) - 1
        if i < 0:
            raise KeyError(f"no stored checkpoint at or below N = {N}")
        return float(self.ratios[i])

    def tail_max(self, n_tail: int) -> float:
        i = int(np.searchsorted(self.n_grid, n_tail))
        if i >= self.n_grid.size:
            raise ValueError("tail start exceeds the stored grid")
        return float(self.ratios[i:].max())

    def slope(self) -> float:
        """Least-squares slope of log ratio against log N, or against
        log log N when gamma = 0 (log-scale normalizers). The grid's xc
        serves when every ratio is positive; otherwise xc is recomputed on
        the N with a positive ratio. No reduction here goes through BLAS:
        both sums are pairwise sums, so the slope's bits do not depend on
        the BLAS build or its thread count."""
        mask = self.ratios > 0.0
        count = int(np.count_nonzero(mask))
        if count < 2:
            return math.nan
        if count == mask.size:
            xc, den, y = self.grid.xc, self.grid.xc_sq, np.log(self.ratios)
        else:
            xc = _centred_regressor(self.n_grid[mask], self.grid.gamma)
            den, y = _dot(xc, xc), np.log(self.ratios[mask])
        if den == 0.0:
            return math.nan
        y -= y.mean()
        return _dot(xc, y) / den


def normalized_series(run: SeriesRun,
                      grid: NormalizedGrid | NormalizerSpec | None = None
                      ) -> NormalizedSeries:
    """Divide a run by its normalizer on the stored grid (N >= k0 only).

    ``grid`` is a NormalizedGrid built from the run's stored grid, shared
    by every run on it, or a NormalizerSpec (default: the run's own) to
    build one from."""
    if not isinstance(grid, NormalizedGrid):
        norm = grid or run.normalizer
        if norm is None:
            raise ValueError("run carries no normalizer and none was given")
        grid = NormalizedGrid.build(run.n_grid, norm)
    if not np.array_equal(run.n_grid[grid.start:], grid.n_grid):
        raise ValueError("normalized grid was built from another stored grid")
    ratios = np.abs(run.sums[grid.start:])
    ratios /= grid.a
    return NormalizedSeries(grid=grid, ratios=ratios)


# ---------------------------------------------------------------------------
# series partial sums (one-sided transform shape) and tail diagnostics


def _series_args(weights, orbit_values, norm: NormalizerSpec, k_first: int):
    """Weights and orbit values as aligned complex arrays of a series whose
    terms start at k_first >= k0."""
    w = np.ascontiguousarray(weights, dtype=np.complex128)
    v = np.ascontiguousarray(orbit_values, dtype=np.complex128)
    if w.shape != v.shape or w.ndim != 1 or w.size == 0:
        raise ValueError("weights and orbit values must be aligned 1-d arrays")
    if k_first < norm.k0:
        raise ValueError(f"series terms start at k >= k0 = {norm.k0}")
    return w, v


def _series_terms(weights, orbit_values, norm: NormalizerSpec, k_first: int):
    w, v = _series_args(weights, orbit_values, norm, k_first)
    return orbit_terms(w, v, norm, k_first)


def hilbert_partial(weights, orbit_values, norm: NormalizerSpec, N: int,
                    k_first: int | None = None) -> complex:
    """partial(N) = sum_{k_first <= k <= N} (w_k / A(k)) * orbit_k."""
    if k_first is None:
        k_first = norm.k0
    terms = _series_terms(weights, orbit_values, norm, k_first)
    count = N - k_first + 1
    if not (1 <= count <= terms.size):
        raise ValueError("N outside the supplied term range")
    return complex(pairwise_sum(terms[:count]))


def hilbert_series(weights, orbit_values, norm: NormalizerSpec,
                   k_first: int | None = None) -> SeriesRun:
    """Partial sums of the series on the stored grid of [k_first, last
    term] (inclusive convention)."""
    if k_first is None:
        k_first = norm.k0
    terms = _series_terms(weights, orbit_values, norm, k_first)
    n_grid = storage_grid(k_first, k_first + terms.size - 1)
    sums = prefix_at(terms, n_grid - k_first + 1)
    return SeriesRun(k_first=k_first, n_grid=n_grid, sums=sums, normalizer=norm,
                     convention="inclusive")


def _xy(points: np.ndarray) -> np.ndarray:
    return np.column_stack([points.real, points.imag])


# 16 directions whose extreme points span the interior-point filter's polygon
_DIRECTIONS = _xy(np.exp(2j * np.pi * np.arange(16) / 16))


def _cross(o, a, b):
    """(a - o) x (b - o), positive where o, a, b turn left."""
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _hull_vertices(xy: np.ndarray) -> np.ndarray:
    """Convex hull vertices of 2-d points, counter-clockwise, no three
    collinear: Andrew's monotone chain (1979) over the points not strictly
    inside the polygon of the extremes along _DIRECTIONS (Akl-Toussaint 1978)."""
    if len(xy) > len(_DIRECTIONS):
        ext = xy[[int(np.argmax(xy @ d)) for d in _DIRECTIONS]]
        poly = ext[np.any(ext != np.roll(ext, 1, axis=0), axis=1)]
        if len(poly) >= 3:  # fewer distinct extremes enclose nothing
            edges = zip(poly, np.roll(poly, -1, axis=0))
            xy = xy[np.any([_cross(a, b, xy.T) <= 0 for a, b in edges], axis=0)]
    pts = xy[np.lexsort((xy[:, 1], xy[:, 0]))].tolist()
    lower, upper = [], []
    for chain, sweep in ((lower, pts), (upper, pts[::-1])):
        for p in sweep:  # keep strict left turns: collinear points and repeats drop
            while len(chain) > 1 and _cross(chain[-2], chain[-1], p) <= 0:
                chain.pop()
            chain.append(p)
    return np.array(lower + upper[1:-1]).reshape(-1, 2)


def _vertex_diameter(xy: np.ndarray) -> float:
    """Diameter of the hull vertices ``xy``, in hull order. Only antipodal
    pairs can realize it, as in rotating calipers: the ends of each edge
    against the vertex farthest from that edge's line, found by edge
    angle, and that vertex's neighbours. With three vertices or fewer
    these candidates already cover every pair, whatever their order."""
    h = len(xy)
    if h <= 1:
        return 0.0
    e = np.roll(xy, -1, axis=0) - xy
    angle = np.unwrap(np.arctan2(e[:, 1], e[:, 0]))
    far = np.searchsorted(np.concatenate([angle, angle + 2 * np.pi]),
                          angle + np.pi)
    ends = np.arange(h)[:, None, None] + np.arange(2)[:, None]
    opposite = far[:, None, None] + np.arange(-1, 3)
    i, k = (a.ravel() % h for a in np.broadcast_arrays(ends, opposite))
    d = xy[k] - xy[i]
    return math.sqrt(float(np.max(np.einsum("ij,ij->i", d, d))))


def _diameter(points: np.ndarray) -> float:
    """Diameter of a finite complex point set: its hull's antipodal pairs,
    exact up to cross-product rounding (checked against brute force)."""
    return _vertex_diameter(_hull_vertices(_xy(points)))


def cauchy_tail_report(run: SeriesRun, tail_starts) -> list[dict]:
    """For each N0: sup over stored M, N >= N0 of |partial(N) - partial(M)|,
    i.e. the diameter of the stored tail values. A series converges exactly
    when these diameters fall to 0.

    The tails are nested, so one sweep from the last start back to the
    first hulls each stored value once: hull(S_i) is the hull of
    hull(S_next)'s vertices and the values in between. Each diameter comes
    from antipodal pairs, exact up to cross-product rounding (checked
    against brute force). Rows follow the order of ``tail_starts``."""
    size = run.n_grid.size
    pos = []
    for n0 in tail_starts:
        i = int(np.searchsorted(run.n_grid, int(n0)))
        if i >= size:
            raise ValueError(f"tail start {n0} is beyond the stored grid")
        pos.append((int(n0), i))
    sup = {}
    hull, end = np.empty((0, 2)), size
    for i in sorted({i for _, i in pos}, reverse=True):
        hull = _hull_vertices(np.concatenate([_xy(run.sums[i:end]), hull]))
        sup[i], end = _vertex_diameter(hull), i
    return [{"N0": n0, "points": int(size - i), "sup_diff": sup[i]}
            for n0, i in pos]


def abel_decompose(weights, orbit_values, norm: NormalizerSpec, N: int,
                   k_first: int | None = None) -> complex:
    """Summation-by-parts value of the series partial sum:

        sum_{k<N} S'_k (1/A(k) - 1/A(k+1)) + S'_N / A(N),

    with S'_k the inclusive plain sums of w_k * orbit_k. Agrees with
    hilbert_partial to rounding (the identity is algebraic)."""
    if k_first is None:
        k_first = norm.k0
    w, v = _series_args(weights, orbit_values, norm, k_first)
    count = N - k_first + 1
    if not (1 <= count <= w.size):
        raise ValueError("N outside the supplied term range")
    s = np.cumsum(orbit_terms(w[:count], v[:count]))
    ks = np.arange(k_first, N + 2, dtype=np.int64)
    inv_a = 1.0 / norm.values(ks)
    boundary = s[-1] * inv_a[-2]
    if count == 1:
        return complex(boundary)
    steps = inv_a[:-2] - inv_a[1:-1]
    return complex(pairwise_sum(s[:-1] * steps) + boundary)


def control_integral(m: int, n: int, L: float) -> float:
    """The superadditive tail control integral

        integral over x in [1/n, 1/m] of dx / (x * log^L(1/x))
          = (log^{1-L} m - log^{1-L} n) / (L - 1),

    defined for 3 <= m < n and L > 1 (it diverges for L <= 1)."""
    if L <= 1.0:
        raise ValueError("the control integral diverges for L <= 1")
    if not (3 <= m < n):
        raise ValueError("need 3 <= m < n")
    return (math.log(m) ** (1.0 - L) - math.log(n) ** (1.0 - L)) / (L - 1.0)


# ---------------------------------------------------------------------------
# oscillation statistics along a ladder


@dataclass(eq=False)
class OscillationReport:
    """Anchors and block oscillations of a normalized run along a ladder.

    Block j covers stored N in (N_j, N_{j+1}]:
        anchor_j = |r(N_j)|,  osc_j = max |r(N) - r(N_j)| over the block,
    with r = S_N / A(N) complex. cumulative_sq holds running sums of
    osc_j^2. grid_points records how many stored N realize each maximum
    (the oscillation is a grid statistic, a lower bound on the true sup).
    """

    ladder_j: np.ndarray
    ladder_n: np.ndarray
    anchors: np.ndarray
    osc: np.ndarray
    cumulative_sq: np.ndarray
    grid_points: np.ndarray
    _abs_r: np.ndarray
    _block_bound: np.ndarray

    def weighted_cumulative_sq(self, l_exponent: float) -> np.ndarray:
        """Running sums of j^l * osc_j^2 over the ladder blocks."""
        j = self.ladder_j[:-1].astype(np.float64)
        return np.cumsum(j ** l_exponent * self.osc**2)

    def check_decomposition(self) -> dict:
        """Verify |r(N)| <= anchor_j + osc_j on every stored N of every
        block, up to 8 last-place units of the right side."""
        worst = 0.0
        for j in range(self.osc.size):
            lo, hi = self._block_bound[j], self._block_bound[j + 1]
            if hi <= lo:
                continue
            bound = self.anchors[j] + self.osc[j]
            excess = float(self._abs_r[lo:hi].max()) - bound
            worst = max(worst, excess / max(np.spacing(bound), 5e-324))
        return {"passed": bool(worst <= 8), "max_excess_ulps": worst}


def ladder_positions(n_grid: np.ndarray, ladder_n: np.ndarray, k0: int) -> np.ndarray:
    """Positions of the ladder values in a stored grid. Raises ValueError
    unless there are at least two, each is stored and the first is >= k0."""
    if ladder_n.size < 2:
        raise ValueError("ladder needs at least two checkpoints")
    pos = np.searchsorted(n_grid, ladder_n)
    if np.any(pos >= n_grid.size) or np.any(n_grid[pos] != ladder_n):
        raise ValueError("every ladder value must be a stored checkpoint")
    if int(ladder_n[0]) < k0:
        raise ValueError(f"ladder starts below the normalizer offset k0 = {k0}")
    return pos


def oscillation_report(run: SeriesRun, ladder: BlockLadder) -> OscillationReport:
    """Per-block oscillation maxima of the run, normalized by its own
    normalizer, along a ladder.

    Every ladder value must be a stored checkpoint of the run."""
    norm = run.normalizer
    if norm is None:
        raise ValueError("run carries no normalizer")
    ladder_n = ladder.values()
    pos = ladder_positions(run.n_grid, ladder_n, norm.k0)
    lo_i, hi_i = int(pos[0]), int(pos[-1])
    n = run.n_grid[lo_i : hi_i + 1]
    r = run.sums[lo_i : hi_i + 1] / norm.values(n)
    anchors = np.abs(r[pos[:-1] - lo_i])
    bound = pos - lo_i
    osc = np.zeros(ladder_n.size - 1, dtype=np.float64)
    counts = np.zeros(ladder_n.size - 1, dtype=np.int64)
    for j in range(osc.size):
        seg = r[bound[j] + 1 : bound[j + 1] + 1]
        counts[j] = seg.size
        if seg.size:
            osc[j] = float(np.abs(seg - r[bound[j]]).max())
    return OscillationReport(
        ladder_j=ladder.js(),
        ladder_n=ladder_n,
        anchors=anchors,
        osc=osc,
        cumulative_sq=np.cumsum(osc**2),
        grid_points=counts,
        _abs_r=np.abs(r),
        _block_bound=bound + 1,
    )


def maximal_norm(weights, indices, norm: NormalizerSpec,
                 measure: SpectralMeasure, n_grid, k_first: int = 0) -> float:
    """Grid maximal function in the spectral model:

        sqrt( integral of max_{N in grid} |V_N(t) / A(N)|^2 d measure(t) ),

    a lower bound for the true maximal norm (the max runs over the finite
    grid only). V_N uses terms k in [k_first, N); the density integral is
    a trapezoid rule on max(2**16, cell count) points, where V_N adds up
    eval_grid over the prefix segments, so indices must be nonnegative."""
    w = np.ascontiguousarray(weights, dtype=np.complex128)
    u = np.ascontiguousarray(indices)
    if u.dtype.kind not in "iu":
        raise TypeError("indices must be integers")
    if w.shape != u.shape or w.ndim != 1 or w.size == 0:
        raise ValueError("weights and indices must be aligned 1-d arrays")
    ns = np.ascontiguousarray(n_grid, dtype=np.int64)
    if ns.size == 0 or np.any(ns[1:] <= ns[:-1]):
        raise ValueError("N grid must be nonempty and strictly increasing")
    if ns[0] <= k_first or ns[-1] > k_first + w.size:
        raise ValueError("N grid outside the supplied term range")
    a = norm.values(ns)
    bounds = ns - k_first
    total = 0.0
    for t, mass in measure.atoms:
        pref = prefix_at(np.multiply(w, np.exp(2j * np.pi * frac_of(t, u))), bounds)
        total += mass * float((np.abs(pref) / a).max()) ** 2
    if measure.density is not None:
        cells = measure.density.size
        grid = ThetaGrid(max(1 << 16, cells))
        dens = np.repeat(measure.density, grid.points // cells)
        v_n = np.zeros(grid.points, dtype=np.complex128)
        best = np.zeros(grid.points, dtype=np.float64)
        lo = 0
        for i, hi in enumerate(bounds):
            v_n += eval_grid(w[lo:hi], u[lo:hi], grid)
            lo = hi
            np.maximum(best, np.abs(v_n) / a[i], out=best)
        total += float(pairwise_sum(dens * best**2)) / grid.points
    return float(math.sqrt(total))


# ---------------------------------------------------------------------------
# bounded-observable splitting diagnostics


def split_level(k, epsilon: float, delta: float) -> np.ndarray:
    """Truncation levels a_k = k^epsilon / log^delta k (k >= 2)."""
    if not (0.0 < epsilon < 1.0):
        raise ValueError("epsilon must lie in (0, 1)")
    ks = np.ascontiguousarray(k, dtype=np.float64)
    if np.any(ks < 2):
        raise ValueError("levels are defined for k >= 2")
    return ks**epsilon / np.log(ks) ** delta


def epsilon_for_beta(beta: float) -> float:
    """The epsilon coupled to a decay exponent beta by beta = 1/(2(1-eps)):
    epsilon = 1 - 1/(2 beta), requiring beta > 1/2."""
    if not beta > 0.5:
        raise ValueError("coupling requires beta > 1/2")
    return 1.0 - 1.0 / (2.0 * beta)
