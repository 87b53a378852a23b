"""Each demo script runs to completion in a fresh interpreter."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import netpricing

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))
PACKAGE_ROOT = Path(netpricing.__file__).resolve().parent.parent


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_runs_cleanly(demo, tmp_path):
    # TMPDIR keeps the directory demo 05 makes with mkdtemp inside tmp_path.
    env = {**os.environ, "PYTHONPATH": str(PACKAGE_ROOT), "TMPDIR": str(tmp_path)}
    proc = subprocess.run(
        [sys.executable, str(demo)],
        env=env,
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
