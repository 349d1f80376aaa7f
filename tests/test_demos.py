"""Smoke test: the quick demos and the README quickstart run to completion
as standalone scripts under ``-W error``.

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


def run_python(args, cwd):
    """Run ``python -W error <args>`` in a fresh interpreter on this checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-W", "error", *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=60,
    )


@pytest.mark.parametrize("demo", [
    "01_signal_model.py",
    "02_estimation_walkthrough.py",
    "04_complexity_model.py",
])
def test_demo_exits_0(demo, tmp_path):
    result = run_python([str(ROOT / "demos" / demo)], tmp_path)
    assert result.returncode == 0, result.stderr
    assert result.stdout


def test_readme_quickstart_runs(tmp_path):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    quickstart = readme.split("```python\n", 1)[1].split("```", 1)[0]
    result = run_python(["-c", quickstart], tmp_path)
    assert result.returncode == 0, result.stderr
    assert "'tau'" in result.stdout
