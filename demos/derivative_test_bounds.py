"""
Derivative-test bounds vs brute force
=====================================

Closed-form oscillatory-sum bounds from curvature: a concave quadratic
phase (second-derivative test), a steep power phase (third-derivative
test), and the logarithmic phase with its explicit constant.
"""

import math

import numpy as np

from ergosum.analytic_bounds import (
    PhaseFunction,
    hlawka_bound,
    nth_derivative_bound,
    power_derivative_range,
    van_der_corput_bound,
)
from ergosum.trigsum import sup_harmonic
from ergosum.weights import WeightSpec, gen_weights

# second-derivative test: f'' pinned near -rho keeps the sum short
pf = PhaseFunction(kind="quadratic", c2=-0.35, c1=1.7)
a, b = 0, 240
k = np.arange(a, b + 1, dtype=np.float64)
brute = abs(np.sum(np.exp(2j * np.pi * (pf.value(k) % 1.0))))
bound = van_der_corput_bound(pf, float(a), float(b), 0.7)
print(f"concave quadratic: brute {brute:8.2f}  bound {bound:8.2f}")

# third-derivative test for f(x) = x^{5/2} on [N^0.9, N]
print()
print("power phase x^(5/2), third-derivative bound:")
for j in (8, 11, 14):
    N = 1 << j
    lo = math.ceil(N**0.9)
    k = np.arange(lo, N + 1, dtype=np.int64)
    phase = np.mod(k.astype(np.longdouble) ** 2.5, 1.0).astype(np.float64)
    brute = abs(np.sum(np.exp(2j * np.pi * phase)))
    lam, h = power_derivative_range(2.5, 3, float(lo), float(N))
    bound = nth_derivative_bound(3, lam, h, float(N - lo + 1))
    print(f"  N = 2^{j:2d}  brute {brute:9.2f}  bound {bound:10.2f}"
          f"  ratio {brute / bound:.3f}")

# the log phase has a fully explicit constant: 30 (|h| + 1/|h|)
print()
print("harmonic log-phase sums against 30 (|h| + 1/|h|):")
n = 50_000
u = np.arange(1, n + 1, dtype=np.int64)
for h in (0.5, 1.0, 2.0):
    w = gen_weights(WeightSpec(kind="log_phase", h=h), 1, n + 1)
    est = sup_harmonic(w, u)
    print(f"  h = {h:3.1f}  certified upper {est.upper:6.3f}"
          f"  closed-form bound {hlawka_bound(h):5.1f}")
