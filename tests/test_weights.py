"""Weight families: values against direct formulas, window consistency."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ergosum import weights as weights_module
from ergosum._kernels import _BLOCK, mod1
from ergosum.weights import WeightSpec, gen_weights, weight_blocks

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
    """offset is the family's first defined k, read-only: no spec sets it,
    and gen_weights refuses a range that starts below it."""
    assert WeightSpec(kind="constant").offset == 0
    assert WeightSpec(kind="log_phase", h=1.0).offset == 1
    assert WeightSpec(kind="logpower_phase", delta=2.0).offset == 1
    assert WeightSpec(kind="centered_cramer", seed=1).offset == 3
    with pytest.raises(TypeError):
        WeightSpec(kind="log_phase", h=1.0, offset=2)
    with pytest.raises(ValueError):
        gen_weights(WeightSpec(kind="log_phase", h=1.0), 0, 5)
    with pytest.raises(ValueError):
        gen_weights(WeightSpec(kind="centered_cramer", seed=1), 2, 5)


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
                    (WeightSpec(kind="iid_uniform_phase", seed=3),
                     {"kind": "iid_uniform_phase", "seed": 3}),
                    (WeightSpec(kind="polynomial_phase", coeffs=(0.2, 0.4)),
                     {"kind": "polynomial_phase", "coeffs": [0.2, 0.4]})):
        assert WeightSpec(**d) == spec


def test_moebius_sieve_against_trial_division():
    mu = gen_weights(WeightSpec(kind="moebius"), 0, 301)
    for n in range(1, 301):
        assert mu[n] == oracles.moebius(n), n
    assert oracles.moebius_table(300)[1:] == [oracles.moebius(n) for n in range(1, 301)]


def test_mertens_partial_sums():
    # sum_{k<=10} mu(k) = -1, classic small-N checkpoint
    mu = gen_weights(WeightSpec(kind="moebius"), 0, 101)
    assert mu[1:11].sum() == -1
    assert mu[1:101].sum() == 1


# one spec of every weight kind
_EVERY_KIND = [
    WeightSpec(kind="constant"),
    WeightSpec(kind="polynomial_phase", coeffs=(0.3, 0.1, 2**-40)),
    WeightSpec(kind="power_phase", delta=1.5),
    WeightSpec(kind="logpower_phase", delta=2.2),
    WeightSpec(kind="log_phase", h=-3.0),
    WeightSpec(kind="moebius"),
    WeightSpec(kind="iid_uniform_phase", seed=3),
    WeightSpec(kind="centered_cramer", seed=4),
]


def test_every_weight_kind_is_covered():
    assert sorted(s.kind for s in _EVERY_KIND) == sorted(weights_module._READS)


@given(st.sampled_from(_EVERY_KIND), st.integers(0, 3 * _BLOCK),
       st.integers(1, 3 * _BLOCK), st.integers(0, 3 * _BLOCK))
@settings(max_examples=40, deadline=None)
@example(WeightSpec(kind="moebius"), 0, 2 * _BLOCK + 1, _BLOCK)
@example(WeightSpec(kind="centered_cramer", seed=9), 2**16 - 5, _BLOCK + 10, 7)
def test_weight_blocks_equal_gen_weights_under_random_splits(spec, m, size, cut):
    """weight_blocks yields _BLOCK-term arrays (the last shorter) that
    concatenate to gen_weights over [m, n) bit for bit, and gen_weights
    over two pieces of the range concatenates to the same bits."""
    m = max(m, spec.offset)
    n = m + size
    whole = gen_weights(spec, m, n)
    blocks = list(weight_blocks(spec, m, n))
    assert [b.size for b in blocks] == [min(_BLOCK, n - i) for i in range(m, n, _BLOCK)]
    assert np.concatenate(blocks).tobytes() == whole.tobytes()
    s = m + cut % size
    if s > m:
        pieces = [gen_weights(spec, m, s), gen_weights(spec, s, n)]
        assert np.concatenate(pieces).tobytes() == whole.tobytes()


# the largest n the test below reads, at its example m = 10**6
_MOEBIUS_TOP = 1_000_005


@given(st.integers(0, 400_000), st.integers(1, 3 * _BLOCK))
@settings(max_examples=25, deadline=None)
@example(0, 1)
@example(0, 2)
@example(1_000_000, 5)
def test_moebius_blocks_match_the_whole_range_sieve(m, size):
    """The segmented walk, sieved with the primes up to sqrt(n - 1) and a
    product that reveals the one larger factor, gives the mu of a plain
    sieve over the whole range."""
    n = m + size
    want = np.array(oracles.moebius_table(_MOEBIUS_TOP)[m:n], dtype=np.complex128)
    assert gen_weights(WeightSpec(kind="moebius"), m, n).tobytes() == want.tobytes()


# each phased kind's phase, written out from np.power and np.log
_PHASES = {
    "power_phase": lambda k, delta: np.power(k, delta),
    "logpower_phase": lambda k, delta: np.power(np.log(k), delta),
    "log_phase": lambda k, h: h * np.log(k),
}


@given(st.sampled_from(sorted(_PHASES)), st.integers(0, 10**6), st.integers(1, 2000), st.data())
@settings(max_examples=60, deadline=None)
def test_phased_weights_are_the_written_out_phase_bit_for_bit(kind, m, size, data):
    """gen_weights of each phased kind is exp(2 i pi mod1(phase)) byte for
    byte, for a drawn delta or h no larger than keeps |phase| < 2**36 on
    the drawn range."""
    m = max(m, weights_module._MIN_OFFSET.get(kind, 0))
    n = m + size
    # 0.95 * 36 log 2 is log of 2**34.2: the phase at n - 1 stays below that
    room = 0.95 * 36 * math.log(2)
    if kind == "log_phase":
        top = math.exp(room) / max(math.log(n - 1), 1.0)
        param = data.draw(st.floats(-top, top).filter(lambda h: h != 0), label="h")
        spec = WeightSpec(kind=kind, h=param)
    else:
        base = max(n - 1, 2) if kind == "power_phase" else max(math.log(n - 1), math.e)
        top = room / math.log(base)
        param = data.draw(st.floats(0.0, top, exclude_min=True), label="delta")
        spec = WeightSpec(kind=kind, delta=param)
    phase = _PHASES[kind](np.arange(m, n, dtype=np.int64).astype(np.float64), param)
    assert np.abs(phase).max() < 2**36
    want = np.exp(2j * np.pi * mod1(phase))
    assert gen_weights(spec, m, n).tobytes() == want.tobytes()


def test_weight_blocks_check_their_range_when_called():
    with pytest.raises(ValueError, match="start at k = 1"):
        weight_blocks(WeightSpec(kind="log_phase", h=1.0), 0, 5)
    with pytest.raises(ValueError, match="need 0 <= m < n"):
        weight_blocks(WeightSpec(kind="moebius"), 5, 5)


def test_phase_overflow_is_refused_when_drawn():
    """A phase past the double range is refused by the draw itself, with
    the line validate() reports, not handed over as NaN weights: an
    overflowed phase is inf, past the 2**36 limit from k = 2 on."""
    with pytest.raises(ValueError, match=r"^power_phase phase reaches 2\*\*36, past double "
                       r"precision, from k = 2$"):
        gen_weights(WeightSpec(kind="power_phase", delta=2**63), 0, 201)
