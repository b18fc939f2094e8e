"""
Random prime model
==================

A random integer set containing k with probability 1/log k: its counting
function tracks N / log N, and constant-weight averages along it behave
like averages along a density-(1/log) sequence.
"""

import math

import numpy as np

from ergosum.averages import NormalizerSpec, normalized_series, weighted_sums
from ergosum.dynamics import Observable, OrbitPoint, SystemModel, orbit_eval
from ergosum.indices import IndexSpec, gen_indices, pi_count

# counting function over several seeds: Pi(N) log N / N settles near 1
print("scaled counting function Pi(N) log N / N:")
print(f"{'N':>9s}  " + "  ".join(f"seed {s}" for s in (1, 2, 3)) + "   median(20)")
for N in (10_000, 100_000, 1_000_000):
    vals = [pi_count(IndexSpec(kind="cramer_primes", seed=s), N) * math.log(N) / N
            for s in range(1, 21)]
    head = "  ".join(f"{v:6.4f}" for v in vals[:3])
    print(f"{N:9d}  {head}   {float(np.median(vals)):.4f}")

# averages along one sampled set, normalizer N^(3/4)
seed = 7
n_terms = 300_000
u = gen_indices(IndexSpec(kind="cramer_primes", seed=seed), 1, n_terms + 1)
system = SystemModel.rotation_sqrt2()
f = Observable.fourier_mode(1)
vals = orbit_eval(system, f, OrbitPoint.rotation(0.0), u)
run = weighted_sums(np.ones(n_terms), vals, k_first=1)
ns = normalized_series(run, NormalizerSpec(0.75, k0=1))
print()
print(f"|S_N| / N^(3/4) along the seed-{seed} random set:")
for N in (1000, 10_000, 100_000, 300_000):
    print(f"  N = {N:6d}: {ns.value_at(N):.4f}")
print(f"  slope {ns.slope():.3f}")
