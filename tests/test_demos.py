"""Every demo script runs end to end against the library in `src`."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
DEMOS = sorted((REPO / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO / "src"), env.get("PYTHONPATH")) if p)
    env["TMPDIR"] = str(tmp_path)  # the demos write their artifacts under mkdtemp()
    proc = subprocess.run([sys.executable, str(demo)], capture_output=True, text=True,
                          timeout=300, env=env, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
