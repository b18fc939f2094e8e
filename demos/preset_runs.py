"""
Experiment harness
==================

Configs are plain JSON; runs land in a per-name output directory with a
manifest of content digests. The same thing is available on the command
line as `ergosum run / validate / presets`.
"""

import json
import tempfile
from pathlib import Path

from ergosum.harness import ExperimentConfig, list_presets, run, validate

# the built-in presets and what each exercises
for entry in list_presets():
    seeded = " (seeded)" if entry["stochastic"] else ""
    print(f"{entry['id']}{seeded}: {entry['title']}")

# a small custom envelope scan, validated before running; its outputs go
# to a temporary directory that is removed at the end
with tempfile.TemporaryDirectory(prefix="ergosum_demo_") as out_root:
    config = ExperimentConfig.from_dict({
        "name": "demo_envelope",
        "kind": "condition_fit",
        "template": "H2",
        "weights": {"kind": "power_phase", "delta": 0.5},
        "indices": {"kind": "identity"},
        "blocks": [[0, 1 << j] for j in range(8, 15)],
        "output_dir": out_root,
    })
    problems = validate(config)
    print()
    print("validation diagnostics:", problems or "none")

    manifest = run(config)
    print(f"wrote {len(manifest.outputs)} outputs plus manifest.json "
          f"to {manifest.out_dir}:")
    for name, entry in sorted(manifest.outputs.items()):
        print(f"  {name:14s} {entry['bytes']:7d} bytes  sha256 {entry['sha256'][:12]}")

    fit = json.loads((Path(manifest.out_dir) / "fit.json").read_text())
agg = fit["aggregate"]
print(f"fitted alpha {agg['median_alpha']:.4f}, verdicts {agg['verdicts']}")

# a bad config never runs; diagnostics name the offending field
bad = ExperimentConfig.from_dict({
    "name": "nope", "kind": "condition_fit", "template": "H9",
    "weights": {"kind": "power_phase", "delta": -1},
    "indices": {"kind": "identity"}, "blocks": [[64, 32]],
})
print()
print("bad config diagnostics:")
for d in validate(bad):
    print(f"  {d}")
