"""Smoke tests of the behavior-diagram front end and the runnable scripts."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from selfright.cli import main
from selfright.config import DEFAULT_AMPLITUDES

ROOT = Path(__file__).resolve().parents[1]


def test_behavior_diagrams_from_sweep(tmp_path, capsys):
    """`sweep` writes each body's diagram and prints its P_sr map, one row
    per amplitude with the largest on top, above the summary line."""
    for body, legs in (("legged", []), ("limbless", ["--legs", "0"])):
        out = tmp_path / body
        assert main(["sweep", "--trials", "1", "--out", str(out)] + legs) == 0
        assert sorted(p.name for p in out.iterdir()) == [
            "sweep.csv", "sweep.json"]
        meta = json.loads((out / "sweep.json").read_text())["meta"]
        assert re.fullmatch("[0-9a-f]{64}", meta["config_sha256"])

        lines = capsys.readouterr().out.splitlines()
        assert lines[2].startswith("  A_rad \\ xi ")
        assert lines[-1].startswith("binariness=")
        rows = lines[3:-1]
        assert [float(r.split()[0]) for r in rows] == pytest.approx(
            sorted(DEFAULT_AMPLITUDES, reverse=True), abs=5e-5)


def test_selfright_demos_script():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "run_selfright_demos.py")],
        env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    headers = [line for line in done.stdout.splitlines()
               if line.startswith("== ")]
    assert headers == [
        "== energy landscape vs leg length ==",
        "== one-shot righting, half cycle, inverted start ==",
        "== segmented roll propagation, xi=0.6, one cycle ==",
        "== sidewinding, A_lat=pi/3, A_vert=pi/9 =="]
