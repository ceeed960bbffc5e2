"""Smoke tests of the runnable scripts."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_behavior_diagrams_script(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "run_behavior_diagrams.py"),
         "--trials", "1", "--out", str(tmp_path)],
        env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "behavior_legged.csv", "behavior_legged.json",
        "behavior_limbless.csv", "behavior_limbless.json"]
    for body in ("legged", "limbless"):
        meta = json.loads((tmp_path / f"behavior_{body}.json").read_text())[
            "meta"]
        assert len(meta["config_sha256"]) == 64
