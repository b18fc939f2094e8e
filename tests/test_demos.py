"""Every narrative script in demos/ runs to completion and leaves nothing
behind.

Each demo runs in its own interpreter with the package's src/ directory
on PYTHONPATH, from a scratch working directory that is also its
temporary-file root; that directory must be empty afterwards. A numeric
RuntimeWarning is an error, as it is for the tests (pyproject.toml).
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
DEMOS = sorted((REPO / "demos").glob("*.py"))


def test_demos_found():
    assert DEMOS


@pytest.mark.parametrize("script", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_exits_0(script, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO / "src"), env.get("PYTHONPATH")) if p)
    env["TMPDIR"] = str(tmp_path)
    proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", str(script)],
                          cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert list(tmp_path.iterdir()) == []
