"""Smoke test: every script in demos/ runs to completion.

The demos are the only callers of the public selector API outside the tests,
so each one runs in a fresh interpreter, from an empty working directory
(``outage_sweep.py`` writes its CSV there), with RuntimeWarnings as errors.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = ["incremental_inverse", "numbering_comparison", "outage_sweep", "single_instance"]


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs(demo, tmp_path):
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src") + (os.pathsep + path if path else ""))
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", str(ROOT / "demos" / f"{demo}.py")],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
