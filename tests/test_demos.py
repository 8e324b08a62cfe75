"""The demos run clean, warnings as errors.

``train_square_wave.py`` and ``ingest_pipeline.py`` write into ``output/``
beside themselves, so copies of them run from a temporary directory.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_demo(name: str, *args: str, copy_to: Path | None = None) -> str:
    script = ROOT / "demos" / name
    if copy_to is not None:
        script = Path(shutil.copy(script, copy_to))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, "-W", "error", str(script), *args],
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


def test_ingest_pipeline(tmp_path):
    out = run_demo("ingest_pipeline.py", copy_to=tmp_path)
    assert "round trip identical: True" in out
    assert "13:00   2.25  (interpolated)" in out
    assert (tmp_path / "output" / "fabricated_day.csv").exists()


def test_train_square_wave(tmp_path):
    out = run_demo("train_square_wave.py", "2000", copy_to=tmp_path)
    assert "hindsight ceiling: 19710.0 cents" in out
    assert "training for 2000 steps, evaluating every 200..." in out
    names = sorted(p.name for p in (tmp_path / "output").iterdir())
    assert names == ["training_curves.csv", "training_curves.svg"]
