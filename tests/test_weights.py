"""Weight families: values against direct formulas, window consistency."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ergosum.weights import KINDS, WeightSpec, gen_weights, moebius_sieve

import oracles


def direct_weight(spec: WeightSpec, k: int) -> complex:
    """Scalar w_k straight from the defining formula."""
    if spec.kind == "constant":
        return 1.0 + 0j
    if spec.kind == "polynomial_phase":
        ph = sum(c * k**j for j, c in enumerate(spec.coeffs))
        return cmath.exp(2j * math.pi * (ph % 1.0))
    if spec.kind == "power_phase":
        return cmath.exp(2j * math.pi * (k**spec.delta % 1.0))
    if spec.kind == "logpower_phase":
        return cmath.exp(2j * math.pi * (math.log(k) ** spec.delta % 1.0))
    if spec.kind == "log_phase":
        return cmath.exp(2j * math.pi * ((spec.h * math.log(k)) % 1.0))
    if spec.kind == "moebius":
        return complex(oracles.moebius(k))
    raise AssertionError(spec.kind)


@pytest.mark.parametrize("spec", [
    WeightSpec(kind="constant"),
    WeightSpec(kind="polynomial_phase", coeffs=(0.3, 0.1)),
    WeightSpec(kind="power_phase", delta=0.5),
    WeightSpec(kind="power_phase", delta=2.5),
    WeightSpec(kind="logpower_phase", delta=2.2),
    WeightSpec(kind="log_phase", h=1.0),
    WeightSpec(kind="moebius"),
])
def test_values_match_direct_formula(spec):
    lo = max(spec.offset, 1)
    w = gen_weights(spec, lo, lo + 40)
    for j in (0, 1, 17, 39):
        want = direct_weight(spec, lo + j)
        assert w[j] == pytest.approx(want, abs=1e-9)


def test_unimodular_families_have_modulus_one():
    for kind, kw in [("power_phase", {"delta": 0.5}),
                     ("log_phase", {"h": 2.0}),
                     ("iid_uniform_phase", {"seed": 1})]:
        spec = WeightSpec(kind=kind, **kw)
        w = gen_weights(spec, max(spec.offset, 1), 500)
        assert np.allclose(np.abs(w), 1.0, atol=1e-12)


def test_log_phase_starts_at_one():
    """k = 1 is a legal start: log 1 = 0 gives weight exactly 1."""
    w = gen_weights(WeightSpec(kind="log_phase", h=3.7), 1, 3)
    assert w[0] == 1.0 + 0j


@given(st.integers(min_value=1, max_value=400), st.integers(min_value=1, max_value=100))
@settings(max_examples=60, deadline=None)
def test_window_consistency(m, size):
    """gen_weights(spec, m, n)[j] is w_{m+j}, independent of the window."""
    spec = WeightSpec(kind="power_phase", delta=0.5)
    big = gen_weights(spec, 1, 520)
    win = gen_weights(spec, m, m + size)
    assert np.array_equal(win, big[m - 1 : m - 1 + size])


def test_window_consistency_seeded():
    spec = WeightSpec(kind="iid_uniform_phase", seed=77)
    big = gen_weights(spec, 0, 300)
    win = gen_weights(spec, 120, 240)
    assert np.array_equal(win, big[120:240])


def test_centered_cramer_is_centered():
    """E[W_k] = 0 for the centered model: X_k - 1/log k over many seeds."""
    k = np.array([50], dtype=np.int64)
    vals = [gen_weights(WeightSpec(kind="centered_cramer", seed=s), 50, 51)[0]
            for s in range(2000)]
    mean = np.mean(vals)
    # var = p(1-p) with p = 1/log 50 ~ 0.256, sd of mean ~ 0.0097
    assert abs(mean) < 0.04


def test_offsets_enforced():
    with pytest.raises(ValueError):
        WeightSpec(kind="log_phase", h=1.0, offset=0)
    with pytest.raises(ValueError):
        WeightSpec(kind="centered_cramer", seed=1, offset=2)
    with pytest.raises(ValueError):
        gen_weights(WeightSpec(kind="log_phase", h=1.0), 0, 5)


def test_seeded_kinds_require_seed():
    with pytest.raises(ValueError):
        WeightSpec(kind="iid_uniform_phase")
    with pytest.raises(ValueError):
        WeightSpec(kind="centered_cramer")


def test_unknown_kind_rejected():
    with pytest.raises(ValueError):
        WeightSpec(kind="white_noise")


def test_round_trip_dict():
    # each JSON form builds through the constructor the same spec
    for spec, d in ((WeightSpec(kind="power_phase", delta=1.5),
                     {"kind": "power_phase", "delta": 1.5}),
                    (WeightSpec(kind="iid_uniform_phase", seed=3, offset=10),
                     {"kind": "iid_uniform_phase", "seed": 3, "offset": 10}),
                    (WeightSpec(kind="polynomial_phase", coeffs=(0.2, 0.4)),
                     {"kind": "polynomial_phase", "coeffs": [0.2, 0.4]})):
        assert WeightSpec(**d) == spec


def test_moebius_sieve_against_trial_division():
    mu = moebius_sieve(300)
    for n in range(1, 301):
        assert mu[n] == oracles.moebius(n), n


def test_mertens_partial_sums():
    # sum_{k<=10} mu(k) = -1, classic small-N checkpoint
    mu = moebius_sieve(100)
    assert int(mu[1:11].sum()) == -1
    assert int(mu[1:101].sum()) == 1
