"""
Growth-template fits on certified envelopes
===========================================

Fitting C N^alpha log^beta N (and the two-variable block template) to
measured sup values, with honest verdicts and a collinearity guard.
"""

import math

import numpy as np

from ergosum.scaling_fit import EnvelopeSample, fit_H1, fit_H2, fit_log_decay
from ergosum.trigsum import sup_envelope
from ergosum.weights import WeightSpec, gen_weights

# certified envelopes for the delta = 1/2 power phase over a dyadic ladder:
# lower is the FFT grid maximum, upper a bound on the sup over every theta
samples = []
for j in range(9, 16):
    N = 1 << j
    u = np.arange(1, N + 1, dtype=np.int64)
    w = gen_weights(WeightSpec(kind="power_phase", delta=0.5), 1, N + 1)
    est = sup_envelope(w, u)
    samples.append(EnvelopeSample(M=0, N=N, lower=est.lower, upper=est.upper))

fit = fit_H2(samples)
print(f"power phase fit: alpha = {fit.alpha:.4f} (expect about 0.75), "
      f"rms residual {fit.rms_residual:.4f}, verdict {fit.verdict}")
print(f"collinear guard active: {fit.collinear} "
      f"(log N and log log N are nearly parallel on short ladders,")
print("  so the log exponent is pinned to 0 and the full fit is attached "
      f"as alt: alpha_alt = {fit.alt['alpha']:.3f})")

# two-variable template: spans (N - M) varying independently of N
blocks = []
for j in range(8, 14):
    N = 1 << j
    for s in (1, 2, 3):
        M = N - (N >> s)
        v = math.sqrt(N - M) * N**0.1
        blocks.append(EnvelopeSample(M=M, N=N, lower=v, upper=v))
fit1 = fit_H1(blocks)
print()
print(f"synthetic block data (N - M)^0.5 N^0.1: "
      f"alpha = {fit1.alpha:.3f}, delta = {fit1.delta:.3f}, "
      f"delta + alpha = {fit1.delta + fit1.alpha:.3f}")

# decay template: satisfied needs beta > 1, a gray zone is inconclusive
for beta in (1.5, 0.8):
    dec = [
        EnvelopeSample(M=0, N=1 << j, lower=1.0,
                       upper=2.0 * (1 << j) / math.log(1 << j) ** beta)
        for j in range(4, 20)
    ]
    f = fit_log_decay(dec)
    print(f"log decay beta = {beta}: fitted {f.beta:.3f}, verdict {f.verdict}")
