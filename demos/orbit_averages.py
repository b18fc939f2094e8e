"""
Weighted averages along concrete orbits
=======================================

Running sums S_N = sum w_k f(T^{u_k} x0) for an irrational rotation and
the doubling map, divided by power-log normalizers, with oscillation
statistics along a dyadic block ladder.
"""

import numpy as np

from ergosum.averages import (
    BlockLadder,
    NormalizerSpec,
    normalized_series,
    oscillation_report,
    weighted_sums,
)
from ergosum.dynamics import Observable, OrbitPoint, SystemModel, orbit_eval
from ergosum.weights import WeightSpec, gen_weights

n = 200_000

# rotation by the deep continued-fraction convergent of sqrt(2) - 1
system = SystemModel.rotation_sqrt2()
f = Observable.fourier_mode(1)
u = np.arange(1, n + 1, dtype=np.int64)
vals = orbit_eval(system, f, OrbitPoint.rotation(0.0), u)

# power-phase weights, normalizer N^(7/8) log^2 N
w = gen_weights(WeightSpec(kind="power_phase", delta=0.5), 1, n + 1)
run = weighted_sums(vals, w, k_first=1,
                    normalizer=NormalizerSpec(0.875, a=2.0, k0=3))
ns = normalized_series(run)
print("rotation orbit, power-phase weights, A(N) = N^(7/8) log^2 N:")
for N in (100, 1000, 10_000, 100_000):
    print(f"  |S_N| / A(N) at N = {N:6d}: {ns.value_at(N):.5f}")
print(f"  log-log slope {ns.slope():.3f} (negative means the average dies)")

# oscillations along the dyadic ladder: how much the normalized value
# moves inside each block (2^j, 2^(j+1)]
rep = oscillation_report(run, BlockLadder.dyadic(2, 17))
print(f"  sum of squared oscillations: {rep.cumulative_sq[-1]:.4f}, "
      f"decomposition check passed = {rep.check_decomposition()['passed']}")

# a doubling-map start point is the seed of its binary digits, read 64 to
# a draw; each orbit value is two draws and a shift
print()
print("doubling map, indicator observable, plain averages:")
pt = OrbitPoint.doubling(seed=11)
g = Observable.indicator(0.0, 0.5)
dvals = orbit_eval(SystemModel.doubling(), g, pt, u)
drun = weighted_sums(dvals, np.ones(n), k_first=1,
                     normalizer=NormalizerSpec(1.0, k0=1))
dns = normalized_series(drun)
for N in (100, 10_000, 100_000):
    print(f"  time average at N = {N:6d}: {dns.value_at(N):.4f} "
          f"(the interval has measure 0.5)")
