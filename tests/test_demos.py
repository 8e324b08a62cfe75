"""The demos that write no files run clean, warnings as errors.

``train_square_wave.py`` and ``ingest_pipeline.py`` write into
``demos/output/`` and are left out.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_demo(name: str) -> str:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, "-W", "error", str(ROOT / "demos" / name)],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stderr == ""
    return done.stdout


def test_oracle_vs_baselines():
    out = run_demo("oracle_vs_baselines.py")
    assert "hindsight optimum: 19710.0" in out
    assert "matches: True" in out


def test_environment_walkthrough():
    out = run_demo("environment_walkthrough.py")
    assert "replayed return: 4.0 cents" in out
    assert "episode done: True" in out
