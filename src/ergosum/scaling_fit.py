"""Least-squares fitting of measured sup envelopes to growth templates.

Templates (all fit in log space on the certified upper estimates):

    H1                  sup |V_{M,N}|  ~ C N^delta (N-M)^alpha log^beta N
    H2                  sup |V_N|      ~ C N^alpha log^beta N
    log_decay           sup |V_N|      ~ C N / log^beta N
    harmonic_H1         sup |V*_{M,N}| ~ C (log N - log M)^alpha
    harmonic_H2         sup |V*_N|     ~ C log^alpha N
    harmonic_log_decay  sup |V*_N|     ~ C log N / log^beta log N

Each template is one row of a table (which samples it accepts, its
regressors, its verdict rule), and a single fitter runs every row.

Verdicts report whether the fitted exponents land in the template's
admissible window within twice their standard errors: H2 wants alpha in
[1/2, 1], H1 wants alpha in [1/2, 1) and delta + alpha < 1, the decay
templates want beta > 1 for the plain 1/N (resp. 1/log N) normalizer
(a beta fitted into (1/2, 1] is reported `inconclusive`: the template
matches but the headline normalizer needs more than the fit can certify).
Structural problems (too narrow a range, rank-deficient design) give
`inconclusive` rather than a misleading number.

log N and log log N are nearly collinear over desk-scale ranges; for H1
and H2, when their correlation exceeds 0.995 the beta regressor is
dropped and the restricted beta = 0 fit is reported as primary, flagged
by `collinear` (both fits are always attached to the record). Below
about twelve octaves the guard triggers almost always, which is the
honest outcome: a free log exponent on such ranges absorbs arbitrary
power growth.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from typing import Callable

import numpy as np

_COLLINEAR_CORR = 0.995
_MIN_OCTAVES = 3.0


@dataclass(frozen=True)
class EnvelopeSample:
    """One measured envelope point: sup over theta for the k-range [M, N),
    bracketed by [lower, upper]. harmonic marks V* (weights w_k/k)."""

    M: int
    N: int
    lower: float
    upper: float
    harmonic: bool = False

    def __post_init__(self):
        if not (0 <= self.M < self.N):
            raise ValueError("need 0 <= M < N")
        if not (0.0 <= self.lower <= self.upper * (1 + 1e-12)):
            raise ValueError("need 0 <= lower <= upper")


@dataclass
class EnvelopeFit:
    """Fitted template with parameters, uncertainties and verdict."""

    template: str
    C: float
    delta: float
    alpha: float
    beta: float
    rms_residual: float
    verdict: str
    stderr: dict = field(default_factory=dict)
    checks: list = field(default_factory=list)
    collinear: bool = False
    n_samples: int = 0
    alt: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return asdict(self)


def _ols(X: np.ndarray, y: np.ndarray):
    """Least squares with parameter covariance. Returns (coef, se, cov, rms)."""
    n, p = X.shape
    coef, *_ = np.linalg.lstsq(X, y, rcond=None)
    resid = y - X @ coef
    ssr = float(resid @ resid)
    dof = max(n - p, 1)
    sigma2 = ssr / dof
    cov = sigma2 * np.linalg.pinv(X.T @ X)
    se = np.sqrt(np.maximum(np.diag(cov), 0.0))
    rms = math.sqrt(ssr / n)
    return coef, se, cov, rms


def _corr(x: np.ndarray, y: np.ndarray) -> float:
    xc = x - x.mean()
    yc = y - y.mean()
    den = math.sqrt(float(xc @ xc) * float(yc @ yc))
    if den == 0.0:
        return 1.0
    return abs(float(xc @ yc)) / den


def _octaves(v: np.ndarray) -> float:
    lo, hi = float(v.min()), float(v.max())
    if lo <= 0:
        return math.inf
    return math.log2(hi / lo)


def _aic(rms: float, n: int, p: int) -> float:
    ssr = max(rms * rms * n, 1e-300)
    return n * math.log(ssr / n) + 2.0 * p


def _check(name: str, value: float, lo: float, hi: float, se: float) -> dict:
    """Passes when value lies in [lo, hi] (either end may be infinite)
    within twice its standard error."""
    dist = max(lo - value, value - hi, 0.0)
    return {
        "name": name,
        "value": value,
        "window": [lo, hi],
        "slack": 2.0 * se,
        "passed": bool(dist <= 2.0 * se),
    }


@dataclass(frozen=True)
class _Template:
    """One growth template.

    design(N, M, span) returns (y offset, {exponent: regressor}) in
    column order, with span = N - M taken exactly from the integers; the
    fit regresses log(value) - offset on a constant plus the regressors.
    A template with an alpha `window` (check name, lo, hi) is judged on
    alpha; one without is a decay template: it regresses on -beta, keeps
    alpha at `fixed_alpha`, and reads beta > 1 as satisfied and beta > 1/2
    as inconclusive. `guard` marks a trailing log log N regressor that is
    dropped when it is collinear with log N.
    """

    harmonic: bool
    min_samples: int
    full_range: bool
    design: Callable
    window: tuple | None = None
    fixed_alpha: float | None = None
    guard: bool = False


def _harmonic_decay_design(N, M, span):
    # y - log log N = log C - beta * log log log N; log log N > 0 for N >= 3
    loglogN = np.log(np.log(N))
    return loglogN, {"beta": np.log(loglogN)}


_HALF_ONE = ("alpha_in_half_one", 0.5, 1.0)

_TABLE = {
    "H1": _Template(
        False, 12, False,
        lambda N, M, span: (0.0, {"delta": np.log(N), "alpha": np.log(span),
                                  "beta": np.log(np.log(N))}),
        window=_HALF_ONE, guard=True),
    "H2": _Template(
        False, 6, True,
        lambda N, M, span: (0.0, {"alpha": np.log(N), "beta": np.log(np.log(N))}),
        window=_HALF_ONE, guard=True),
    "log_decay": _Template(
        False, 4, True,
        lambda N, M, span: (np.log(N), {"beta": np.log(np.log(N))}),
        fixed_alpha=1.0),
    "harmonic_H1": _Template(
        True, 4, False, lambda N, M, span: (0.0, {"alpha": np.log(np.log(N) - np.log(M))}),
        window=_HALF_ONE),
    "harmonic_H2": _Template(
        True, 4, False, lambda N, M, span: (0.0, {"alpha": np.log(np.log(N))}),
        window=("alpha_in_zero_one", 0.0, 1.0)),
    "harmonic_log_decay": _Template(True, 4, False, _harmonic_decay_design, fixed_alpha=0.0),
}

TEMPLATES = tuple(_TABLE)
_HARMONIC_TEMPLATES = tuple(t for t, row in _TABLE.items() if row.harmonic)


def _by_name(values, names) -> dict:
    """Map regressor names to fitted values; a dropped trailing regressor reads 0."""
    return {name: float(values[i + 1]) if i + 1 < len(values) else 0.0
            for i, name in enumerate(names)}


def check_rows(template: str, rows) -> None:
    """Raise ValueError unless (M, N) rows have the structure `template`
    fits: enough rows, every N >= 3, M = 0 for the full-range templates
    and M >= 2 for harmonic_H1. The fitter and config validation share
    these rules."""
    row = _TABLE[template]
    rows = list(rows)
    if len(rows) < row.min_samples:
        raise ValueError(f"{template} needs at least {row.min_samples} samples")
    if any(N < 3 for _, N in rows):
        raise ValueError("samples with N < 3 are rejected (log log N undefined)")
    if row.full_range and any(M != 0 for M, _ in rows):
        raise ValueError(f"{template} samples must have M = 0")
    if template == "harmonic_H1" and any(M < 2 for M, _ in rows):
        raise ValueError("harmonic_H1 needs M >= 2 (log M > 0)")


def _fit(template: str, samples, field_name: str) -> EnvelopeFit:
    row = _TABLE[template]
    samples = list(samples)
    n = len(samples)
    check_rows(template, [(s.M, s.N) for s in samples])
    if any(s.harmonic != row.harmonic for s in samples):
        kindname = "harmonic" if row.harmonic else "plain"
        raise ValueError(f"{template} expects {kindname} envelope samples")
    vals = np.array([getattr(s, field_name) for s in samples], dtype=np.float64)
    if np.any(vals <= 0.0):
        raise ValueError("envelope values must be positive to fit in log space")
    N = np.array([s.N for s in samples], dtype=np.float64)
    M = np.array([s.M for s in samples], dtype=np.float64)
    span = np.array([s.N - s.M for s in samples], dtype=np.float64)
    offset, regs = row.design(N, M, span)
    y = np.log(vals) - offset
    names = list(regs)
    cols = [np.ones_like(N), *regs.values()]

    collinear = row.guard and _corr(cols[1], cols[-1]) > _COLLINEAR_CORR
    X = np.column_stack(cols[:-1] if collinear else cols)
    coef, se, cov, rms = _ols(X, y)
    C = math.exp(coef[0])
    exps = _by_name(coef, names)
    stderr = _by_name(se, names)
    alt = {}
    if row.guard:
        alt_coef, _, _, alt_rms = _ols(np.column_stack(cols if collinear else cols[:-1]), y)
        alt = {"form": "full" if collinear else "restricted",
               "C": math.exp(alt_coef[0]), **_by_name(alt_coef, names),
               "rms_residual": alt_rms}

    delta, alpha, beta = (exps.get("delta", 0.0), exps.get("alpha", row.fixed_alpha),
                          exps.get("beta", 0.0))
    if row.window is None:
        beta = -beta
        checks = [_check("beta_above_one", beta, 1.0, math.inf, stderr["beta"]),
                  _check("beta_above_half", beta, 0.5, math.inf, stderr["beta"])]
        verdict = ("satisfied" if checks[0]["passed"]
                   else "inconclusive" if checks[1]["passed"] else "violated")
    else:
        checks = [_check(row.window[0], alpha, *row.window[1:], stderr["alpha"])]
        narrow = row.guard and _octaves(N) < _MIN_OCTAVES
        if template == "H1":
            se_sum = math.sqrt(max(
                stderr["delta"] ** 2 + stderr["alpha"] ** 2 + 2.0 * float(cov[1, 2]), 0.0))
            stderr["delta_plus_alpha"] = se_sum
            checks.append(_check("delta_plus_alpha_below_one", delta + alpha,
                                 -math.inf, 1.0, se_sum))
            # informational AIC comparison against the delta = 0 (H2-shaped) fit
            Xd0 = np.delete(X, 1, axis=1)
            _, _, _, rms_d0 = _ols(Xd0, y)
            aic_gap = _aic(rms_d0, n, Xd0.shape[1]) - _aic(rms, n, X.shape[1])
            checks.append({**_check("aic_delta_zero_minus_full", aic_gap, 0.0, math.inf, 0.0),
                           "passed": True})
            centered = np.column_stack([x - x.mean() for x in cols[1:3]])
            rank_ok = np.linalg.matrix_rank(centered, tol=1e-9) == 2
            narrow = narrow or not rank_ok or _octaves(span) < _MIN_OCTAVES
        elif narrow:
            checks.append({**_check("n_spans_three_octaves", _octaves(N), 3.0, math.inf, 0.0),
                           "passed": False})
        verdict = ("inconclusive" if narrow
                   else "satisfied" if all(c["passed"] for c in checks) else "violated")
    return EnvelopeFit(
        template=template, C=C, delta=delta, alpha=alpha, beta=beta, rms_residual=rms,
        verdict=verdict, stderr=stderr, checks=checks, collinear=collinear,
        n_samples=n, alt=alt,
    )


def fit_H2(samples, field_name: str = "upper") -> EnvelopeFit:
    """Fit sup |V_N| ~ C N^alpha log^beta N on full-range samples (M = 0).

    Needs >= 6 samples; N must span >= 3 octaves for a conclusive verdict.
    Satisfied when alpha lands in [1/2, 1] within 2 stderr.
    """
    return _fit("H2", samples, field_name)


def fit_H1(samples, field_name: str = "upper") -> EnvelopeFit:
    """Fit sup |V_{M,N}| ~ C N^delta (N-M)^alpha log^beta N on block samples.

    Needs >= 12 samples with both N and N-M spanning >= 3 octaves and a
    rank-2 design in (log N, log(N-M)); degenerate designs yield verdict
    `inconclusive`. Satisfied when alpha is in [1/2, 1) and delta + alpha
    < 1, each within 2 stderr.
    """
    return _fit("H1", samples, field_name)


def fit_log_decay(samples, field_name: str = "upper") -> EnvelopeFit:
    """Fit sup |V_N| ~ C N / log^beta N on full-range samples.

    Satisfied when beta > 1 within 2 stderr (plain 1/N normalizer);
    beta in (1/2, 1] is reported inconclusive (template matches, headline
    normalizer not certified by the fit alone); smaller beta is violated.
    """
    return _fit("log_decay", samples, field_name)


def fit_harmonic(samples, template: str, field_name: str = "upper") -> EnvelopeFit:
    """Fit a harmonic-sum template (see module docstring for the three
    shapes). Samples must carry harmonic=True.

    harmonic_H1 wants alpha in [1/2, 1); harmonic_H2 wants alpha in [0, 1);
    harmonic_log_decay wants beta > 1 for the plain 1/log N normalizer with
    the same inconclusive window (1/2, 1] as log_decay.
    """
    if template not in _HARMONIC_TEMPLATES:
        raise ValueError(f"not a harmonic template: {template!r}")
    return _fit(template, samples, field_name)
