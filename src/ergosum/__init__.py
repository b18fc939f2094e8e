"""Numerical toolkit for weighted ergodic averages.

Building blocks: weight and index sequence generators, trigonometric sums
with certified sup-over-theta envelopes, closed-form oscillatory-sum
bounds, scaling-exponent fits, concrete dynamical systems (rotation,
doubling, spectral surrogate), weighted averages and one-sided weighted
Hilbert-type series, and a batch experiment harness.
"""

from ._kernels import BlockSource
from .weights import WeightSpec, gen_weights, weight_blocks
from .indices import IndexSpec, gen_indices, index_blocks, pi_count, primes_upto
from .trigsum import (
    ThetaGrid,
    SupEstimate,
    eval_sum,
    eval_grid,
    sup_envelope,
    sup_harmonic,
    default_grid,
)
from .analytic_bounds import (
    PhaseFunction,
    van_der_corput_bound,
    nth_derivative_bound,
    power_derivative_range,
    frac_dist,
    power_phase_exponent,
    steep_power_phase_exponent,
    hlawka_bound,
)
from .scaling_fit import (
    EnvelopeSample,
    EnvelopeFit,
    fit_H1,
    fit_H2,
    fit_log_decay,
    fit_harmonic,
)
from .dynamics import (
    SystemModel,
    SpectralMeasure,
    Observable,
    OrbitPoint,
    orbit_eval,
)
from .averages import (
    NormalizerSpec,
    BlockLadder,
    SeriesRun,
    NormalizedSeries,
    OscillationReport,
    weighted_sums,
    normalized_series,
    hilbert_partial,
    hilbert_series,
    cauchy_tail_report,
    abel_decompose,
    control_integral,
    oscillation_report,
    maximal_norm,
    spectral_l2_norm,
)

__version__ = "0.1.0"

from .harness import (
    ExperimentConfig,
    ResultManifest,
    ConfigError,
    run,
    validate,
    list_presets,
)

__all__ = [name for name in dir() if not name.startswith("_")]
