"""Growth-template fits: synthetic recovery, guards, verdict bands."""

import dataclasses
import math

import numpy as np
import pytest

from ergosum.scaling_fit import (
    TEMPLATES,
    EnvelopeFit,
    EnvelopeSample,
    fit_H1,
    fit_H2,
    fit_harmonic,
    fit_log_decay,
)


def h2_samples(alpha, beta=0.0, C=2.0, js=range(4, 18), noise=0.0, harmonic=False):
    rng = np.random.default_rng(0)
    out = []
    for j in js:
        n = 2**j
        v = C * n**alpha * math.log(n) ** beta
        v *= math.exp(noise * rng.standard_normal())
        out.append(EnvelopeSample(M=0, N=n, lower=0.9 * v, upper=v, harmonic=harmonic))
    return out


def h1_blocks(alpha, delta):
    """upper = (N - M)^alpha * N^delta: spans vary independently of N."""
    out = []
    for j in range(8, 16):
        n = 2**j
        for s in (1, 2, 3):
            m = n - (n >> s)
            v = (n - m) ** alpha * n**delta
            out.append(EnvelopeSample(M=m, N=n, lower=v, upper=v))
    return out


def log_decay_samples(beta):
    return [EnvelopeSample(M=0, N=2**j, lower=1.0,
                           upper=2.0 * 2**j / math.log(2**j) ** beta)
            for j in range(4, 20)]


def harmonic_log_decay_samples(beta):
    return [EnvelopeSample(M=0, N=2**j, lower=1.0,
                           upper=5.0 * math.log(2**j) / math.log(math.log(2**j)) ** beta,
                           harmonic=True)
            for j in range(4, 40, 2)]


def harmonic_h1_samples(alpha, C=3.0):
    """V* ~ C (log N - log M)^alpha on blocks with M = 2, 8, 32."""
    out = []
    for j in range(6, 20):
        n = 2**j
        for m in (2, 8, 32):
            v = C * (math.log(n) - math.log(m)) ** alpha
            out.append(EnvelopeSample(M=m, N=n, lower=v, upper=v, harmonic=True))
    return out


def test_h2_exact_power_recovery():
    fit = fit_H2(h2_samples(alpha=0.75))
    assert fit.alpha == pytest.approx(0.75, abs=1e-9)
    assert fit.rms_residual < 1e-9
    assert fit.verdict == "satisfied"


def test_h2_collinear_flag_on_desk_ranges():
    """log N vs log log N is collinear on any short ladder; the restricted
    fit must be primary and the full fit attached."""
    fit = fit_H2(h2_samples(alpha=0.6, js=range(10, 18)))
    assert fit.collinear
    assert fit.beta == 0.0
    assert fit.alt["form"] == "full"
    assert fit.alpha == pytest.approx(0.6, abs=0.02)


def test_h2_alpha_out_of_band_is_violated():
    fit = fit_H2(h2_samples(alpha=1.3, js=range(4, 20)))
    assert fit.verdict == "violated"


def test_h2_narrow_range_inconclusive():
    out = []
    for i in range(9):  # 2 octaves total, quarter-octave steps
        n = int(round(1024 * 2 ** (i / 4)))
        v = 2.0 * n**0.75
        out.append(EnvelopeSample(M=0, N=n, lower=v, upper=v))
    fit = fit_H2(out)
    assert fit.verdict == "inconclusive"


def test_h2_rejects_blocks_and_few_samples():
    with pytest.raises(ValueError):
        fit_H2([EnvelopeSample(M=4, N=32, lower=1, upper=2)] * 8)
    with pytest.raises(ValueError):
        fit_H2(h2_samples(alpha=0.7, js=range(4, 8)))


def test_h1_recovery_with_independent_spans():
    fit = fit_H1(h1_blocks(alpha=0.5, delta=0.2))
    assert fit.alpha == pytest.approx(0.5, abs=0.02)
    assert fit.delta == pytest.approx(0.2, abs=0.02)
    assert fit.verdict == "satisfied"


def test_h1_delta_plus_alpha_check():
    fit = fit_H1(h1_blocks(alpha=0.6, delta=0.6))  # sums to 1.2 > 1
    assert fit.delta + fit.alpha > 1.1
    assert fit.verdict == "violated"


def test_h1_degenerate_spans_inconclusive():
    """All rows full-range: log(N - M) and log N are the same regressor."""
    out = []
    for j in range(4, 18):
        n = 2**j
        v = n**0.7
        out.append(EnvelopeSample(M=0, N=n, lower=v, upper=v))
    fit = fit_H1(out)
    assert fit.verdict == "inconclusive"


def test_log_decay_verdict_bands():
    assert fit_log_decay(log_decay_samples(1.5)).verdict == "satisfied"
    assert fit_log_decay(log_decay_samples(0.8)).verdict == "inconclusive"
    assert fit_log_decay(log_decay_samples(0.1)).verdict == "violated"


def test_harmonic_h2_flat_growth():
    out = [
        EnvelopeSample(M=0, N=2**j, lower=1.0, upper=3.0, harmonic=True)
        for j in range(4, 18)
    ]
    fit = fit_harmonic(out, "harmonic_H2")
    assert abs(fit.alpha) < 0.05
    assert fit.verdict == "satisfied"


def test_harmonic_h2_log_growth():
    out = [
        EnvelopeSample(M=0, N=2**j, lower=1.0,
                       upper=2.0 * math.log(2**j) ** 0.5, harmonic=True)
        for j in range(4, 18)
    ]
    fit = fit_harmonic(out, "harmonic_H2")
    assert fit.alpha == pytest.approx(0.5, abs=0.05)


def test_harmonic_flag_must_match():
    plain = h2_samples(alpha=0.5)
    with pytest.raises(ValueError):
        fit_harmonic(plain, "harmonic_H2")
    with pytest.raises(ValueError):
        fit_H2(h2_samples(alpha=0.5, harmonic=True))


def test_harmonic_log_decay_recovery():
    fit = fit_harmonic(harmonic_log_decay_samples(2.0), "harmonic_log_decay")
    assert fit.beta == pytest.approx(2.0, abs=0.25)
    assert fit.verdict == "satisfied"


def test_sample_validation():
    with pytest.raises(ValueError):
        EnvelopeSample(M=10, N=5, lower=1.0, upper=2.0)
    with pytest.raises(ValueError):
        EnvelopeSample(M=0, N=5, lower=3.0, upper=2.0)
    # the exact bracket of the SupEstimate a sample copies: not one ulp over
    with pytest.raises(ValueError, match="need 0 <= lower <= upper"):
        EnvelopeSample(M=0, N=5, lower=float(np.nextafter(2.0, np.inf)), upper=2.0)
    EnvelopeSample(M=0, N=5, lower=2.0, upper=2.0)


def test_harmonic_h1_recovery():
    fit = fit_harmonic(harmonic_h1_samples(alpha=0.75), "harmonic_H1")
    assert fit.alpha == pytest.approx(0.75, abs=1e-9)
    assert fit.C == pytest.approx(3.0, rel=1e-9)
    assert fit.verdict == "satisfied"
    assert fit_harmonic(harmonic_h1_samples(alpha=1.4), "harmonic_H1").verdict == "violated"


def test_harmonic_h1_needs_m_at_least_two():
    out = [EnvelopeSample(M=1, N=2**j, lower=1.0, upper=2.0, harmonic=True)
           for j in range(4, 12)]
    with pytest.raises(ValueError, match="M >= 2"):
        fit_harmonic(out, "harmonic_H1")


INF = math.inf
# template -> (fit, stderr keys, collinear, alt form, [(check name, window)])
RECORDS = {
    "H1": (lambda: fit_H1(h1_blocks(alpha=0.5, delta=0.2)),
           ["delta", "alpha", "beta", "delta_plus_alpha"], True, "full",
           [("alpha_in_half_one", [0.5, 1.0]),
            ("delta_plus_alpha_below_one", [-INF, 1.0]),
            ("aic_delta_zero_minus_full", [0.0, INF])]),
    "H2": (lambda: fit_H2(h2_samples(alpha=0.75)),
           ["alpha", "beta"], False, "restricted",
           [("alpha_in_half_one", [0.5, 1.0])]),
    "log_decay": (lambda: fit_log_decay(log_decay_samples(1.5)),
                  ["beta"], False, None,
                  [("beta_above_one", [1.0, INF]), ("beta_above_half", [0.5, INF])]),
    "harmonic_H1": (lambda: fit_harmonic(harmonic_h1_samples(0.75), "harmonic_H1"),
                    ["alpha"], False, None, [("alpha_in_half_one", [0.5, 1.0])]),
    "harmonic_H2": (
        lambda: fit_harmonic(h2_samples(0.0, beta=0.5, harmonic=True), "harmonic_H2"),
        ["alpha"], False, None, [("alpha_in_zero_one", [0.0, 1.0])]),
    "harmonic_log_decay": (
        lambda: fit_harmonic(harmonic_log_decay_samples(2.0), "harmonic_log_decay"),
        ["beta"], False, None,
        [("beta_above_one", [1.0, INF]), ("beta_above_half", [0.5, INF])]),
}


@pytest.mark.parametrize("template", TEMPLATES)
def test_to_dict_round_trips_fields(template):
    fit_fn, stderr_keys, collinear, alt_form, checks = RECORDS[template]
    fit = fit_fn()
    d = fit.to_dict()
    assert list(d) == [f.name for f in dataclasses.fields(EnvelopeFit)]
    assert all(d[k] == getattr(fit, k) for k in d)
    assert d["template"] == template and d["verdict"] == "satisfied"
    assert list(d["stderr"]) == stderr_keys
    assert d["collinear"] is collinear
    assert d["alt"].get("form") == alt_form
    if alt_form:
        assert list(d["alt"]) == ["form", "C", *stderr_keys[:3], "rms_residual"]
    assert [(c["name"], c["window"]) for c in d["checks"]] == checks
    assert all(set(c) == {"name", "value", "window", "slack", "passed"} for c in d["checks"])
    if template.endswith("log_decay"):
        assert (d["delta"], d["alpha"]) == (0.0, 1.0 if template == "log_decay" else 0.0)
