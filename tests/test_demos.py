"""The quick demos run to completion against the current API."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"
# 05 runs the empirical theorem suite at scale (about 12 s); it stays out
QUICK = sorted(p.name for p in DEMOS.glob("0[1-4]_*.py"))


@pytest.mark.parametrize("demo", QUICK)
def test_demo_runs(demo):
    src = str(DEMOS.parent / "src")
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}
    proc = subprocess.run(
        [sys.executable, str(DEMOS / demo)],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def test_quick_demos_found():
    assert QUICK == [
        "01_run_length_coding.py",
        "02_kolakoski_generation.py",
        "03_pseudo_inverse_expansions.py",
        "04_substitutions.py",
    ]
