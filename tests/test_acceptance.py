"""Acceptance gate: thirteen desk-scale checks, one verdict line each.

Each test prints `criterion NN [label]: PASS/FAIL (details)`. Run with
`pytest tests/test_acceptance.py -s` to see the lines as they happen.
Tolerances are pinned next to each check.
"""

import json
import math
import time

import numpy as np
import pytest

from ergosum.analytic_bounds import (
    PhaseFunction,
    hlawka_bound,
    nth_derivative_bound,
    power_derivative_range,
    van_der_corput_bound,
)
from ergosum.averages import (
    NormalizerSpec,
    abel_decompose,
    control_integral,
    hilbert_partial,
    spectral_l2_norm,
)
from ergosum.dynamics import SpectralMeasure
from ergosum.harness import ExperimentConfig, run
from ergosum.trigsum import eval_sum, sup_envelope, sup_harmonic
from ergosum.weights import WeightSpec, gen_weights

import oracles

_ELAPSED: dict = {}


def _verdict(num: int, label: str, ok: bool, details: str = ""):
    tail = f" ({details})" if details else ""
    line = f"criterion {num:02d} [{label}]: {'PASS' if ok else 'FAIL'}{tail}"
    print(line)
    assert ok, line


def _run_preset(tmp_path_factory, preset: str):
    root = tmp_path_factory.mktemp(f"acc_{preset}")
    t0 = time.perf_counter()
    run(ExperimentConfig.from_dict(
        {"kind": "preset", "preset": preset, "output_dir": str(root)}
    ))
    _ELAPSED[preset] = time.perf_counter() - t0
    return root / preset


@pytest.fixture(scope="module")
def example2_dir(tmp_path_factory):
    return _run_preset(tmp_path_factory, "example2")


@pytest.fixture(scope="module")
def example4_dir(tmp_path_factory):
    return _run_preset(tmp_path_factory, "example4")


@pytest.fixture(scope="module")
def example6_dir(tmp_path_factory):
    return _run_preset(tmp_path_factory, "example6")


def _load(path, name):
    return json.loads((path / name).read_text())


# ---------------------------------------------------------------------------


def test_criterion_01_dirichlet_envelope():
    """Constant weights on u = k: the sup is N at theta = 0 and the modulus
    matches the closed form everywhere. Tolerance 1e-9 relative, < 1 s."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    thetas = rng.uniform(0.0, 1.0, 1000)
    worst_rel = 0.0
    sup_ok = True
    for N in (10, 100, 1000):
        u = np.arange(1, N + 1, dtype=np.int64)
        w = np.ones(N, dtype=np.float64)
        est = sup_envelope(w, u)
        sup_ok &= abs(est.lower - N) <= 1e-9 * N
        sup_ok &= est.lower <= est.upper <= N * (1.0 + 1e-12)
        sup_ok &= min(est.argmax_theta, 1.0 - est.argmax_theta) <= 1 / est.grid_points
        for t in thetas:
            got = abs(eval_sum(w, u, float(t)))
            want = oracles.dirichlet_modulus(N, float(t))
            worst_rel = max(worst_rel, abs(got - want) / want)
    elapsed = time.perf_counter() - t0
    _verdict(1, "dirichlet-envelope",
             sup_ok and worst_rel <= 1e-9 and elapsed < 1.0,
             f"max rel err {worst_rel:.2e}, {elapsed:.2f} s")


def test_criterion_02_power_phase_envelope_fit(example2_dir):
    """Fractional power phase, delta = 1/2: fitted growth exponent within
    0.05 of 3/4 from above, rms log residual below 0.15."""
    fit = _load(example2_dir, "fit.json")
    alpha = fit["aggregate"]["median_alpha"]
    rms = fit["aggregate"]["max_rms_residual"]
    ok = alpha <= 0.75 + 0.05 and rms < 0.15 and _ELAPSED["example2"] < 300
    _verdict(2, "power-phase-envelope-fit", ok,
             f"alpha {alpha:.4f} <= 0.80, rms {rms:.4f} < 0.15")


def test_criterion_03_normalized_run_decay(example2_dir):
    """Same weights along the square-root-two rotation: the normalized
    ratio collapses by 2x from N = 1e3 to N = 1e6 and trends down."""
    rep = _load(example2_dir, "report.json")
    r3 = rep["aggregate"]["median_ratio_at"]["1000"]
    r6 = rep["aggregate"]["median_ratio_at"]["1000000"]
    slope = rep["aggregate"]["median_slope"]
    ok = r6 < 0.5 * r3 and slope <= -0.05 and _ELAPSED["example2"] < 120
    _verdict(3, "normalized-run-decay", ok,
             f"ratio 1e6/1e3 {r6 / r3:.2e} < 0.5, slope {slope:.3f} <= -0.05")


def test_criterion_04_log_phase_closed_form_bound():
    """Harmonic log-phase envelopes stay under 30(|h| + 1/|h|) with at
    least 5% slack for h in {1/2, 1, 2}, N up to 1e5."""
    t0 = time.perf_counter()
    n = 100_000
    u = np.arange(1, n + 1, dtype=np.int64)
    ok = True
    details = []
    for h in (0.5, 1.0, 2.0):
        w = gen_weights(WeightSpec(kind="log_phase", h=h), 1, n + 1)
        est = sup_harmonic(w, u)
        bound = hlawka_bound(h)
        ok &= est.upper * 1.05 <= bound
        details.append(f"h={h:g}: {est.upper:.2f} vs {bound:g}")
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 180
    _verdict(4, "log-phase-closed-form-bound", ok,
             "; ".join(details) + f", {elapsed:.0f} s")


def test_criterion_05_concave_quadratic_bound_sound():
    """200 random concave quadratic phases: brute-force modulus never
    exceeds the second-derivative bound."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(505)
    violations = 0
    margin = math.inf
    for _ in range(200):
        rho = float(rng.uniform(0.02, 1.8))
        c1 = float(rng.uniform(-3.0, 3.0))
        a = int(rng.integers(-50, 50))
        b = a + int(rng.integers(5, 400))
        pf = PhaseFunction(kind="quadratic", c2=-rho / 2.0, c1=c1)
        k = np.arange(a, b + 1, dtype=np.float64)
        brute = abs(np.sum(np.exp(2j * np.pi * (pf.value(k) % 1.0))))
        bound = van_der_corput_bound(pf, float(a), float(b), rho)
        margin = min(margin, bound - brute)
        if brute > bound * (1.0 + 1e-12):
            violations += 1
    elapsed = time.perf_counter() - t0
    _verdict(5, "concave-quadratic-bound", violations == 0 and elapsed < 30,
             f"0 violations in 200, min slack {margin:.2f}, {elapsed:.1f} s")


def test_criterion_06_third_derivative_ratio_bounded():
    """x^{5/2} phase on [N^0.9, N]: brute sum over the closed-form
    third-derivative bound stays below 100 and trends down at the top."""
    t0 = time.perf_counter()
    ratios = []
    for j in range(8, 15):
        N = 1 << j
        a = math.ceil(N**0.9)
        k = np.arange(a, N + 1, dtype=np.int64)
        # longdouble keeps the reduced phase accurate (values reach ~1e10)
        phase = np.mod(k.astype(np.longdouble) ** 2.5, 1.0).astype(np.float64)
        brute = abs(np.sum(np.exp(2j * np.pi * phase)))
        lam, hfac = power_derivative_range(2.5, 3, float(a), float(N))
        bound = nth_derivative_bound(3, lam, hfac, float(N - a + 1))
        ratios.append(brute / bound)
    top = ratios[len(ratios) // 2:]
    x = np.arange(len(top), dtype=np.float64)
    trend = float(np.polyfit(x, np.array(top), 1)[0])
    elapsed = time.perf_counter() - t0
    ok = max(ratios) <= 100.0 and trend <= 1e-3 and elapsed < 120
    _verdict(6, "third-derivative-ratio", ok,
             f"max ratio {max(ratios):.3f} <= 100, top-half trend {trend:+.4f}")


def test_criterion_07_spectral_norm_exact_on_atoms():
    """Purely atomic spectral measure: quadrature equals the atom-wise
    direct norm to 1e-9 relative on 20 random draws."""
    rng = np.random.default_rng(707)
    atoms = tuple(
        (float(t), float(m))
        for t, m in zip(rng.uniform(0, 1, 16), rng.uniform(0.1, 2.0, 16))
    )
    meas = SpectralMeasure(atoms=atoms)
    worst = 0.0
    for _ in range(20):
        N = int(rng.integers(10, 10_001))
        w = rng.standard_normal(N) + 1j * rng.standard_normal(N)
        u = np.arange(N, dtype=np.int64)
        got = spectral_l2_norm(w, u, 1.0, meas)
        direct = math.sqrt(sum(
            m * abs(np.sum(w * np.exp(2j * np.pi * t * u)))**2
            for t, m in atoms
        ))
        worst = max(worst, abs(got - direct) / direct)
    _verdict(7, "spectral-atom-exactness", worst <= 1e-9,
             f"max rel err {worst:.2e} <= 1e-9")


def test_criterion_08_control_integral_quadrature():
    """Closed-form tail integral vs adaptive quadrature (1e-10) and
    interval additivity (1e-12)."""
    rng = np.random.default_rng(808)
    worst_quad = 0.0
    for _ in range(50):
        m = int(rng.integers(3, 1000))
        n = m + int(rng.integers(1, 100_000))
        L = float(rng.uniform(1.05, 4.0))
        got = control_integral(m, n, L)
        want = oracles.adaptive_quad(
            lambda x, L=L: 1.0 / (x * math.log(1.0 / x) ** L), 1.0 / n, 1.0 / m
        )
        worst_quad = max(worst_quad, abs(got - want))
    worst_add = 0.0
    for _ in range(100):
        m = int(rng.integers(3, 1000))
        n = m + int(rng.integers(1, 1000))
        p = n + int(rng.integers(1, 10**6))
        L = float(rng.uniform(1.01, 4.0))
        lhs = control_integral(m, n, L) + control_integral(n, p, L)
        worst_add = max(worst_add, abs(lhs - control_integral(m, p, L)))
    ok = worst_quad <= 1e-10 and worst_add <= 1e-12
    _verdict(8, "control-integral", ok,
             f"quad err {worst_quad:.2e} <= 1e-10, additivity {worst_add:.2e} <= 1e-12")


def test_criterion_09_summation_by_parts_identity():
    """abel_decompose equals hilbert_partial to 1e-9 relative on 50 random
    instances with N up to 1e5, across the bundled normalizer presets."""
    rng = np.random.default_rng(909)
    presets = [
        NormalizerSpec(1.0, k0=1),
        NormalizerSpec(0.875, a=2.0, k0=3),
        NormalizerSpec(35.0 / 36.0, a=2.0, k0=3),
        NormalizerSpec(0.75, k0=1),
        NormalizerSpec(0.0, a=1.0, k0=3),
    ]
    worst = 0.0
    for i in range(50):
        norm = presets[i % len(presets)]
        size = int(rng.integers(2, 100_000))
        w = rng.standard_normal(size) + 1j * rng.standard_normal(size)
        v = np.exp(2j * np.pi * rng.uniform(0, 1, size))
        N = norm.k0 + int(rng.integers(0, size))
        direct = hilbert_partial(w, v, norm, N)
        abel = abel_decompose(w, v, norm, N)
        worst = max(worst, abs(abel - direct) / max(1.0, abs(direct)))
    _verdict(9, "summation-by-parts", worst <= 1e-9,
             f"max rel err {worst:.2e} <= 1e-9 over 50 draws")


def test_criterion_10_random_prime_model_density(example6_dir):
    """Random prime model: the median of Pi(1e6) log(1e6) / 1e6 over 20
    seeds lands in [0.9, 1.1], and the 3/4-power normalized run keeps
    shrinking: median tail max at 1e6 below the median ratio at 1e4."""
    rep = _load(example6_dir, "report.json")
    scaled = rep["pi_scaled"]["1000000"]["median"]
    tail6 = rep["aggregate"]["median_tail_max"]["1000000"]
    ratio4 = rep["aggregate"]["median_ratio_at"]["10000"]
    ok = (0.9 <= scaled <= 1.1 and tail6 < ratio4
          and _ELAPSED["example6"] < 300)
    _verdict(10, "random-prime-model", ok,
             f"median scaled count {scaled:.4f} in [0.9, 1.1], "
             f"tail {tail6:.3f} < {ratio4:.3f}")


def test_criterion_11_random_weight_block_shape(example4_dir):
    """Centered random unimodular weights over 10 seeds: two-variable fit
    keeps delta + alpha < 1.2 and every envelope stays within 3 times the
    square-root block shape."""
    fit = _load(example4_dir, "fit.json")
    dpa = fit["aggregate"]["max_delta_plus_alpha"]
    shape = fit["shape_check"]["max"]
    ok = dpa < 1.2 and shape <= 3.0
    _verdict(11, "random-weight-shape", ok,
             f"max delta+alpha {dpa:.3f} < 1.2, shape max {shape:.3f} <= 3")


def test_criterion_12_oscillation_decomposition(example2_dir):
    """Anchor-plus-oscillation decomposition holds on every stored N of
    every block (8 ulp slack on the computed right side)."""
    osc = _load(example2_dir, "oscillation.json")
    per_seed = osc["per_seed"]
    worst = max(e["decomposition"]["max_excess_ulps"] for e in per_seed)
    ok = osc["all_decompositions_pass"] and all(
        e["decomposition"]["passed"] for e in per_seed
    )
    _verdict(12, "oscillation-decomposition", ok,
             f"max excess {worst:.2f} ulps <= 8 across "
             f"{sum(len(e['ladder_n']) for e in per_seed)} checkpoints")


def test_criterion_13_reruns_byte_identical(example2_dir, example6_dir,
                                            tmp_path_factory):
    """Re-running the acceptance configs reproduces every CSV/JSON/SVG
    byte for byte; only manifest.json (timings) may differ."""
    ok = True
    details = []
    for preset, first in (("example2", example2_dir), ("example6", example6_dir)):
        root = tmp_path_factory.mktemp(f"rerun_{preset}")
        run(ExperimentConfig.from_dict(
            {"kind": "preset", "preset": preset, "output_dir": str(root)}
        ))
        second = root / preset
        names_a = sorted(p.name for p in first.iterdir())
        names_b = sorted(p.name for p in second.iterdir())
        ok &= names_a == names_b
        same = 0
        for name in names_a:
            if name == "manifest.json":
                continue
            if (first / name).read_bytes() == (second / name).read_bytes():
                same += 1
            else:
                ok = False
                details.append(f"{preset}/{name} differs")
        details.append(f"{preset}: {same} files identical")
    _verdict(13, "deterministic-reruns", ok, "; ".join(details))
