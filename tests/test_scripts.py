"""Smoke test of the behavior-diagram front end, `selfright sweep`.

The command-line interface is the package's only front end: every former
walkthrough demo is one `selfright` command (README, quick start).
"""

import json
import re

import pytest

from selfright.cli import main
from selfright.config import DEFAULT_AMPLITUDES


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

