"""The benchmark's workloads: which preset each runs, how a base seed maps
to the preset's seed list, and the invariants every run's outputs must
meet whatever the seed.

Each workload is one built-in preset at its own size, so its numbers line
up with the per-preset baseline in ROADMAP.md. The three load different
layers (see README.md in this directory for the shares):

  envelope_blocks  example4: random unimodular weights over 18 dyadic
                   (M, N] blocks per seed; the trigsum grid FFT and
                   refinement are nearly all of the work.
  prime_orbit      example6: the random prime model at 10^6 terms per seed;
                   indices RNG, exact rotation reduction and prefix sums,
                   and trigsum never runs.
  harmonic_series  example5: harmonic weights over prefix (0, N] blocks,
                   where u_max equals the block length, plus inclusive
                   Hilbert series with Cauchy tail reports.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

# workload -> (preset, length of the preset's default seed list)
WORKLOADS = {
    "envelope_blocks": ("example4", 10),
    "prime_orbit": ("example6", 20),
    "harmonic_series": ("example5", 4),
}

DEFAULT_SEED = 1
# base seeds are taken modulo this many disjoint seed blocks
_SEED_BLOCKS = 1 << 20


def preset_seeds(workload: str, base_seed: int) -> list[int]:
    """Seed list for one run: block number base_seed - 1 of consecutive
    seeds, of the preset's default length. Base seed 1 gives 1..n, the
    preset's own default list."""
    n = WORKLOADS[workload][1]
    first = 1 + ((base_seed - DEFAULT_SEED) % _SEED_BLOCKS) * n
    return list(range(first, first + n))


def experiment_config(workload: str, base_seed: int) -> dict:
    """The config the program receives for one run of a workload."""
    return {
        "kind": "preset",
        "preset": WORKLOADS[workload][0],
        "seeds": preset_seeds(workload, base_seed),
    }


# ---------------------------------------------------------------------------
# invariants


def _rows(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _load(path: Path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def check_envelope_rows(path: Path) -> list[str]:
    """Every certified row has finite lower <= upper <= weight_l1."""
    problems = []
    for i, row in enumerate(_rows(path)):
        lo, up, l1 = (float(row[k]) for k in ("lower", "upper", "weight_l1"))
        if not all(math.isfinite(v) for v in (lo, up, l1)):
            problems.append(f"{path.name} row {i}: non-finite bracket")
        elif not lo <= up <= l1:
            problems.append(f"{path.name} row {i}: not lower <= upper <= weight_l1 "
                            f"({lo!r}, {up!r}, {l1!r})")
    return problems


def _check_envelope_blocks(out: Path) -> list[str]:
    fit = _load(out / "fit.json")
    agg = fit["aggregate"]
    problems = check_envelope_rows(out / "envelope.csv")
    if agg["verdicts"] != ["satisfied"]:
        problems.append(f"fit verdicts {agg['verdicts']}, want ['satisfied']")
    if not agg["max_delta_plus_alpha"] < 1.2:
        problems.append(f"max delta + alpha {agg['max_delta_plus_alpha']} >= 1.2")
    if not fit["shape_check"]["max"] <= 3.0:
        problems.append(f"shape check max {fit['shape_check']['max']} > 3")
    return problems


def _check_prime_orbit(out: Path) -> list[str]:
    rep = _load(out / "report.json")
    scaled = rep["pi_scaled"]["1000000"]["median"]
    tail6 = rep["aggregate"]["median_tail_max"]["1000000"]
    ratio4 = rep["aggregate"]["median_ratio_at"]["10000"]
    problems = []
    if not 0.9 <= scaled <= 1.1:
        problems.append(f"median Pi(1e6) log(1e6) / 1e6 = {scaled} outside [0.9, 1.1]")
    if not tail6 < ratio4:
        problems.append(f"tail max at 1e6 {tail6} not below ratio at 1e4 {ratio4}")
    return problems


def _check_harmonic_series(out: Path) -> list[str]:
    problems = check_envelope_rows(out / "envelope.csv")
    for row in _rows(out / "hseries.csv"):
        vals = [row[k] for k in ("s_real", "s_imag", "s_abs")]
        # the harness writes non-finite floats as empty cells
        if not all(v and math.isfinite(float(v)) for v in vals):
            problems.append(f"hseries.csv N={row['N']}: non-finite partial sum")
            break
    cauchy = _load(out / "cauchy.json")
    if cauchy["max_abs"] is None or not math.isfinite(cauchy["max_abs"]):
        problems.append("cauchy.json max_abs is not finite")
    if _load(out / "report.json")["aggregate"]["median_slope"] is None:
        problems.append("report.json median slope is not finite")
    verdicts = _load(out / "fit.json")["aggregate"]["verdicts"]
    if "violated" in verdicts:
        problems.append(f"fit verdicts {verdicts} include a violation")
    return problems


_CHECKS = {
    "envelope_blocks": _check_envelope_blocks,
    "prime_orbit": _check_prime_orbit,
    "harmonic_series": _check_harmonic_series,
}


def check_outputs(workload: str, out: Path) -> list[str]:
    """Seed-independent invariants on one run's output directory; an empty
    list means the run is correct."""
    try:
        return _CHECKS[workload](out)
    except (OSError, KeyError, TypeError, ValueError) as exc:
        return [f"unreadable outputs: {exc!r}"]
