"""
Certified trigonometric-sum envelopes
=====================================

sup over theta of |sum w_k e^{2 i pi u_k theta}|, reported as a bracket:
the maximum over one FFT grid (lower) and a Bernstein bound (upper) that
holds for every theta, not just the grid points.
"""

import numpy as np

from ergosum.trigsum import ThetaGrid, eval_sum, sup_envelope, sup_harmonic
from ergosum.weights import WeightSpec, gen_weights

# constant weights on u = k give the Dirichlet kernel: the sup is exactly N
for N in (10, 100, 1000):
    u = np.arange(1, N + 1, dtype=np.int64)
    est = sup_envelope(np.ones(N), u)
    print(f"N = {N:5d}  lower {est.lower:10.4f}  upper {est.upper:10.4f}"
          f"  argmax {est.argmax_theta:.6f}")

# a fractional power phase flattens the peak: growth like N^(3/4), not N
print()
print("power phase delta = 1/2 against the full-mass cap:")
for j in (10, 12, 14):
    N = 1 << j
    u = np.arange(1, N + 1, dtype=np.int64)
    w = gen_weights(WeightSpec(kind="power_phase", delta=0.5), 1, N + 1)
    est = sup_envelope(w, u)
    print(f"N = 2^{j}  upper {est.upper:9.2f}  weight mass {est.weight_l1:8.0f}"
          f"  upper / N^0.75 = {est.upper / N ** 0.75:.3f}")

# with D = u_max - u_min and grid spacing h, the grid maximum G gives
# sup |V| <= G / sqrt(1 - pi^2 D^2 h^2 / 2); the default grid has D h < 1/16
N = 4096
u = np.arange(1, N + 1, dtype=np.int64)
shifted = np.ones(N) * np.exp(2j * np.pi * 0.31 * u)  # peak off the grid
est = sup_envelope(shifted, u)
print()
print(f"grid points {est.grid_points}, spacing {1 / est.grid_points:.2e}, "
      f"index span D = {N - 1}")
print(f"lower {est.lower:.3f}, upper {est.upper:.3f} (true sup {N}), "
      f"relative slack {est.upper / est.lower - 1:.2%}, aliased = {est.aliased}")

# a grid too coarse for the bound (pi D h >= sqrt 2) falls back to the
# triangle bound sum |w|, sets the aliased flag and warns
import warnings

with warnings.catch_warnings(record=True) as caught:
    warnings.simplefilter("always")
    coarse = sup_envelope(shifted, u, grid=ThetaGrid(1 << 9))
print(f"coarse grid: aliased = {coarse.aliased}, lower {coarse.lower:.1f}, "
      f"upper {coarse.upper:.1f} = weight mass {coarse.weight_l1:.0f}, "
      f"warnings raised = {len(caught)}")

# harmonic envelopes divide each term by k before taking the sup
w = gen_weights(WeightSpec(kind="log_phase", h=1.0), 1, N + 1)
hest = sup_harmonic(w, u)
print()
print(f"harmonic log-phase envelope over N = {N}: upper {hest.upper:.3f}")
print(f"value at theta = 0: {abs(eval_sum(w / u, u, 0.0)):.3f}")
