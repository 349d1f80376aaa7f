"""Smoke test: the quick demos run to completion as standalone scripts.

Demo 03 is left out: it runs Monte-Carlo sweeps for 3-5 s and writes CSV
files next to itself, so CI runs it as a step of its own.  The others take
well under a second each.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("demo", [
    "01_signal_model.py",
    "02_estimation_walkthrough.py",
    "04_complexity_model.py",
])
def test_demo_exits_0(demo, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout
