"""
Weight and index families
=========================

Every sequence family the package generates, sampled over a small range:
deterministic phases, the Moebius function, and the seeded random models.
"""

import numpy as np

from ergosum.weights import WeightSpec, gen_weights
from ergosum.indices import IndexSpec, gen_indices, pi_count

# deterministic weight families over k = 4 .. 11
for spec in (
    WeightSpec(kind="constant"),
    WeightSpec(kind="polynomial_phase", coeffs=[0.0, 0.25]),
    WeightSpec(kind="power_phase", delta=0.5),
    WeightSpec(kind="log_phase", h=1.0),
    WeightSpec(kind="moebius"),
):
    w = gen_weights(spec, 4, 12)
    print(f"{spec.kind:18s} {np.round(w, 3)}")

# seeded families reproduce bit for bit from (seed, k) alone
spec = WeightSpec(kind="iid_uniform_phase", seed=7)
a = gen_weights(spec, 0, 6)
b = gen_weights(spec, 3, 6)
print("seeded splice equal:", np.array_equal(a[3:], b))

# centered coin flips for the random prime model: mean is near zero
spec = WeightSpec(kind="centered_cramer", seed=1)
w = gen_weights(spec, 3, 100_003)
print(f"centered_cramer mean over 1e5 terms: {w.real.mean():+.5f}")

# Mertens partial sums from the moebius weights, mu(0) = 0 .. mu(100)
mu = gen_weights(WeightSpec(kind="moebius"), 0, 101).real
print("Mertens M(10) =", int(mu[:11].sum()), " M(100) =", int(mu.sum()))

# index families: polynomial growth and the two prime models
for spec in (
    IndexSpec(kind="identity"),
    IndexSpec(kind="monomial", d=2),
    IndexSpec(kind="polynomial", coeffs=[1, 2, 1]),
    IndexSpec(kind="primes"),
    IndexSpec(kind="cramer_primes", seed=5),
):
    u = gen_indices(spec, 1, 9)
    print(f"{spec.kind:14s} {u}")

# the random model tracks the prime counting function
n = 100_000
spec = IndexSpec(kind="cramer_primes", seed=5)
print(f"random model count Pi({n}) = {pi_count(spec, n)}"
      f"  true primes pi({n}) = {pi_count(IndexSpec(kind='primes'), n)}")
