"""
Spectral model: L2 norms without orbits
=======================================

For a contraction, the L2 norm of a weighted polynomial in the operator
is an integral of the trigonometric envelope against a spectral measure.
Atomic measures make that integral a finite sum, exact to rounding.
"""

import math

import numpy as np

from ergosum.averages import NormalizerSpec, maximal_norm, spectral_l2_norm
from ergosum.dynamics import SpectralMeasure
from ergosum.weights import WeightSpec, gen_weights

# one atom at t: the norm is just the atom mass times |V(t)|
t = 0.2137
meas = SpectralMeasure(atoms=((t, 1.0),))
w = np.ones(100)
u = np.arange(1, 101, dtype=np.int64)
norm = spectral_l2_norm(w, u, 1.0, meas)
direct = abs(np.sum(np.exp(2j * np.pi * t * u)))
print(f"single atom: quadrature {norm:.12f}  direct {direct:.12f}")

# uniform density recovers the Parseval value sqrt(sum |w|^2) for
# distinct frequencies
w = gen_weights(WeightSpec(kind="power_phase", delta=0.5), 1, 101)
norm = spectral_l2_norm(w, u, 1.0, SpectralMeasure.uniform())
print(f"uniform measure: {norm:.6f}  vs sqrt(N) = {math.sqrt(100):.6f}")

# mixed measure: atoms plus a piecewise-constant density
density = np.array([2.0, 0.5, 0.5, 1.0])  # four dyadic cells on [0, 1)
meas = SpectralMeasure(atoms=((1 / 3, 0.4),), density=density)
print(f"mixed measure total mass: {meas.total_mass():.4f}")
for N in (100, 1000, 10_000):
    uu = np.arange(1, N + 1, dtype=np.int64)
    val = spectral_l2_norm(np.ones(N), uu, float(N), meas)
    print(f"  ||S_N f|| / N at N = {N:5d}: {val:.5f}")

# the grid maximal function: how large the normalized sums ever get,
# in L2 against the measure, over a whole ladder of N at once
ns = np.array([1 << j for j in range(4, 14)], dtype=np.int64)
n_top = int(ns[-1])
big_u = np.arange(1, n_top + 1, dtype=np.int64)
mx = maximal_norm(np.ones(n_top), big_u, NormalizerSpec(1.0, k0=1),
                  meas, ns, k_first=1)
print()
print(f"maximal function over N in 2^4 .. 2^13: {mx:.5f} "
      f"(a lower bound from the stored grid)")
