"""The benchmark still reads every metric it declares from the package.

bench/tracer.py wraps package functions by module path and binds their
arguments by name; a renamed or removed site makes its metrics go missing,
and a result without a declared metric is malformed. Each workload runs
once, traced, in a copy of the checkout (so its work directory stays out
of the tree), with the shortest run the harness allows.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in DECLARED["workloads"]]
PER_LAYER = {m["name"] for m in DECLARED["per_layer"]}


def _reject_constant(name):
    raise ValueError(f"non-finite number {name} in the result line")


@pytest.fixture(scope="module")
def checkout(tmp_path_factory):
    root = tmp_path_factory.mktemp("checkout")
    skip = shutil.ignore_patterns("__pycache__", ".bench_work")
    for name in ("bench", "src"):
        shutil.copytree(ROOT / name, root / name, ignore=skip)
    shutil.copy(ROOT / "BENCHMARK.json", root)
    return root


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_every_declared_metric(checkout, workload):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    run = subprocess.run(
        [sys.executable, "bench/run_bench.py", "--workload", workload,
         "--seed", "1", "--seconds", "0", "--trace", "1"],
        cwd=checkout, env=env, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    assert run.stderr == ""
    result = json.loads(run.stdout.splitlines()[-1],
                        parse_constant=_reject_constant)
    assert result["correct"] is True, run.stdout
    assert set(result["metrics"]) == PER_LAYER


def test_setup_path_skips_slow_imports():
    """The bench's set-up path, timed as setup_s, loads neither numpy.ma
    (which np.unique pulls in) nor logging: each adds to start-up."""
    code = ("import sys\n"
            "import selfright.cli\n"
            "from selfright.config import RunConfig\n"
            "from selfright.rollmodel import drive_gain, energy_landscape\n"
            "cfg = RunConfig()\n"
            "energy_landscape(cfg.morphology, 1024)\n"
            "drive_gain(cfg.gait, cfg.morphology)\n"
            "print(sorted({'numpy.ma', 'logging'} & set(sys.modules)))\n")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    run = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr
    assert run.stdout == "[]\n"
