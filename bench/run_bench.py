"""Benchmark of the selfright command line: four closed-loop workloads.

Run from the repository root:

    python3 bench/run_bench.py --workload sweep_legged --seed 1 \
        --seconds 20 --trace 0

One client in one process calls ``selfright.cli.main`` for a pass,
waits for it, checks what the pass wrote, and starts the next pass until
``--seconds`` have elapsed (closed loop, at least three passes). The
package is imported from ``src/`` of the checkout; nothing is installed.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics of
``bench/tracer.py`` plus the tracing overhead. Lines before the last
describe the run for a reader; the last line is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

Every run first makes one untimed pass at the default seed (0). It warms
the interpreter's caches, and for the sweep workloads its P_sr grid is
compared with the grid stored in ``bench/reference/``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
REFERENCE = BENCH / "reference"
WORK = ROOT / ".bench_work"

# RunConfig's default seed; the stored reference grids were made with it.
DEFAULT_SEED = 0
# Largest per-cell P_sr difference from the reference that still passes.
# One of five trials flipping moves a cell by about 0.2; float-level drift
# from a reordered solver stays far below 0.01.
P_SR_ATOL = 0.01
MIN_PASSES = 3
SETUP_REPEATS = 9

# Every time the benchmark reports is in reference-host seconds: raw wall
# time times CALIB_REFERENCE_S over the mean time of a fixed calibration
# kernel, sampled before, after and every CALIB_PERIOD_S during the timed
# work (the sampling time itself is not counted). The kernel uses no
# selfright code. On the shared 2-vCPU VM the benchmark was defined on, a
# fixed loop swings between two speeds 1.4-1.6x apart in phases of about
# 25 s, which spread medians of raw 20-second runs by 20-30%. Raw times
# are printed beside the reported ones.
CALIB_REFERENCE_S = 0.004
CALIB_PERIOD_S = 0.1
CALIB_LANES = np.linspace(0.0, 1.0, 715)

# Segmented grid: amplitudes below and above the ~pi/6 legged threshold,
# an in-phase and a staggered wave, one trial per cell (about 2 s each).
SEGMENTED_GRID = {"amplitudes": [math.pi / 8, math.pi / 3],
                  "xis": [0.0, 0.2], "trials_per_cell": 1}
# Sidewinding gait of the paper's figure: A_l = pi/3, A_v = pi/9, several
# xi drawn from the seed, four traced cycles of 128 samples each.
SIDEWIND_GAIT = {"amplitude_lateral": math.pi / 3,
                 "amplitude_vertical": math.pi / 9,
                 "temporal_frequency": 1e-3}
SIDEWIND_XI_RANGE = (0.25, 1.25)
SIDEWIND_RUNS = 3
SIDEWIND_TRACE = {"cycles": 4, "samples_per_cycle": 128}

WORKLOADS = ("sweep_legged", "sweep_limbless", "sweep_segmented", "sidewind")

# Run by a fresh interpreter. It prints the CLOCK_MONOTONIC time at which
# set-up ended, then calibration kernel times taken in the same process
# (a child may run on another vCPU than the benchmark).
SETUP_CODE = """
import time
import selfright.cli
from selfright.config import RunConfig
from selfright.rollmodel import drive_gain, energy_landscape
cfg = RunConfig()
energy_landscape(cfg.morphology, cfg.roll.resolution)
drive_gain(cfg.gait, cfg.morphology)
done = time.clock_gettime(time.CLOCK_MONOTONIC)
from run_bench import calibrate
print(done, *(calibrate() for _ in range(6)))
"""


def _write_json(path: Path, doc: dict) -> Path:
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return path


def make_calls(workload: str, seed: int, run_dir: Path) -> list[list[str]]:
    """Generate the pass's inputs under run_dir; return one argv per call."""
    run_dir.mkdir(parents=True, exist_ok=True)
    out = str(run_dir / "out")
    if workload == "sweep_legged":
        return [["sweep", "--seed", str(seed), "--out", out]]
    if workload == "sweep_limbless":
        return [["sweep", "--legs", "0", "--seed", str(seed), "--out", out]]
    if workload == "sweep_segmented":
        cfg = _write_json(run_dir / "config.json",
                          {"mode": "segmented", "seed": seed,
                           "sweep": SEGMENTED_GRID})
        return [["sweep", "--mode", "segmented", "--config", str(cfg),
                 "--seed", str(seed), "--out", out]]
    rng = random.Random(seed)
    xis = sorted(round(rng.uniform(*SIDEWIND_XI_RANGE), 3)
                 for _ in range(SIDEWIND_RUNS))
    calls = []
    for k, xi in enumerate(xis):
        cfg = _write_json(run_dir / f"config{k}.json",
                          {"seed": seed,
                           "gait": dict(SIDEWIND_GAIT, spatial_frequency=xi),
                           "sidewinding": SIDEWIND_TRACE})
        calls.append(["sidewind", "--config", str(cfg),
                      "--out", f"{out}/{k}"])
    return calls


class Run:
    """Passes of one workload, with their output checks and op counts."""

    def __init__(self, workload: str, cli) -> None:
        self.workload = workload
        self.cli = cli
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)
        return ok

    def run_pass(self, calls: list[list[str]], clock: HostClock):
        """Run one pass of CLI calls; return clock.timed's (raw seconds,
        factor, exit codes). Outputs of earlier passes are removed first,
        so a call that writes nothing cannot pass the checks."""
        for argv in calls:
            shutil.rmtree(argv[argv.index("--out") + 1], ignore_errors=True)
        gc.collect()
        return clock.timed(lambda: self._call_all(calls))

    def _call_all(self, calls: list[list[str]]) -> list[int]:
        codes = []
        with contextlib.redirect_stdout(io.StringIO()):
            for argv in calls:
                try:
                    codes.append(self.cli.main(argv))
                except Exception:
                    traceback.print_exc()
                    codes.append(-1)
        return codes

    def inspect(self, calls, codes) -> tuple[str, int, int, list[dict]]:
        """Count ops of a finished pass; return (digest, finite trials or
        estimates, samples, parsed JSON documents)."""
        digest = hashlib.sha256()
        docs = []
        finite = samples = 0
        for argv, code in zip(calls, codes):
            self.attempted += 1
            if code != 0:
                self.failed += 1
                self.problems.append(f"exit {code}: {' '.join(argv)}")
                continue
            out = Path(argv[argv.index("--out") + 1])
            name = "sweep.json" if argv[0] == "sweep" else "sidewind.json"
            try:
                for path in sorted(out.iterdir()):
                    digest.update(path.name.encode() + b"\0"
                                  + path.read_bytes())
                doc = json.loads((out / name).read_text())
            except (OSError, ValueError) as exc:
                self.failed += 1
                self.problems.append(f"unreadable output of "
                                     f"{' '.join(argv)}: {exc}")
                continue
            docs.append(doc)
            if argv[0] == "sweep":
                rolls = [v for row in doc["trial_rolls"] for cell in row
                         for v in cell]
                ok = sum(v is not None and math.isfinite(v) for v in rolls)
                self.attempted += len(rolls)
                self.failed += len(rolls) - ok
                if ok < len(rolls):
                    self.problems.append(f"{len(rolls) - ok} NaN trials")
                finite += ok
                samples += ok * (doc["protocol"]["cycles_per_trial"]
                                 * doc["calibration"]["steps_per_cycle"])
            elif self.check(_sidewind_finite(doc, out / "sidewind.csv"),
                            f"non-finite sidewind output in {out}"):
                finite += 1
                samples += doc["cycles"] * doc["samples_per_cycle"] + 1
        return digest.hexdigest(), finite, samples, docs

    def check_reference(self, docs: list[dict]) -> None:
        ref_path = REFERENCE / f"{self.workload}.json"
        ref = json.loads(ref_path.read_text())
        doc = docs[0] if docs else {}
        ok = (doc.get("amplitudes") == ref["amplitudes"]
              and doc.get("xis") == ref["xis"]
              and _grid_close(doc.get("p_sr"), ref["p_sr"], P_SR_ATOL))
        self.check(ok, f"P_sr grid differs from {ref_path.name} "
                       f"by more than {P_SR_ATOL}")


def _grid_close(grid, ref, atol: float) -> bool:
    if grid is None or len(grid) != len(ref):
        return False
    for row, ref_row in zip(grid, ref):
        if len(row) != len(ref_row):
            return False
        for v, r in zip(row, ref_row):
            if v is None or not math.isfinite(v) or abs(v - r) > atol:
                return False
    return True


def _sidewind_finite(doc: dict, csv_path: Path) -> bool:
    values = [doc["lateral_displacement"], doc["contact_fraction"],
              doc["signed_lateral"], doc["axial_drift"], *doc["net_xy"]]
    for line in csv_path.read_text().splitlines()[2:]:
        values.extend(float(v) for v in line.split(",")[2:])
    return all(math.isfinite(v) for v in values)


def calibrate() -> float:
    """Seconds for a fixed mix of interpreter and small-array numpy work."""
    x = CALIB_LANES
    start = time.perf_counter()
    for _ in range(100):
        np.sin(x) * 1.5 - np.where(x > 0.5, x, 0.0)
        acc = 0.0
        for i in range(400):
            acc += i * 0.5
    return time.perf_counter() - start


class HostClock:
    """Samples the host's speed while timed work runs.

    A SIGALRM handler runs the calibration kernel every CALIB_PERIOD_S in
    the main thread; now() is perf_counter() minus the time spent there,
    so timings and trace spans exclude the sampling.
    """

    def __init__(self) -> None:
        self.paused = 0.0
        self.samples: list[float] = []

    def now(self) -> float:
        return time.perf_counter() - self.paused

    def _tick(self, _signum, _frame) -> None:
        start = time.perf_counter()
        self.samples.append(calibrate())
        self.paused += time.perf_counter() - start

    def timed(self, fn):
        """Run fn; return (raw seconds, factor that turns them into
        reference-host seconds, fn's result)."""
        self.samples = [calibrate() for _ in range(3)]
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, CALIB_PERIOD_S, CALIB_PERIOD_S)
        try:
            start = self.now()
            result = fn()
            raw = self.now() - start
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
        self.samples.extend(calibrate() for _ in range(3))
        return raw, CALIB_REFERENCE_S / statistics.fmean(self.samples), result


def measure_setup() -> tuple[float, float]:
    """Median (reference-host, raw) wall time of a fresh interpreter
    importing selfright.cli and building the default landscape and drive
    gain."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join((str(SRC), str(BENCH))))
    raws, scaled = [], []
    for _ in range(SETUP_REPEATS):
        start = time.clock_gettime(time.CLOCK_MONOTONIC)
        child = subprocess.run([sys.executable, "-c", SETUP_CODE], env=env,
                               cwd=ROOT, check=True, capture_output=True,
                               text=True)
        done, *samples = map(float, child.stdout.split())
        raws.append(done - start)
        scaled.append(raws[-1] * CALIB_REFERENCE_S
                      / statistics.fmean(samples))
    return statistics.median(scaled), statistics.median(raws)


def describe(name: str, values: list[float], unit: str) -> str:
    """Median with the highest percentile that has ten samples beyond it."""
    line = (f"{name}: median {statistics.median(values):.6g} {unit} "
            f"over {len(values)} passes")
    for pct in (99, 90):
        if len(values) * (100 - pct) / 100 >= 10:
            q = statistics.quantiles(values, n=100)[pct - 1]
            return line + f", p{pct} {q:.6g} {unit}"
    return line + f", min {min(values):.6g}, max {max(values):.6g} {unit}"


def run_metadata() -> dict:
    head = ROOT / ".git" / "HEAD"
    sha = "unknown (not a git checkout)"
    if head.is_file():
        ref = head.read_text().strip()
        sha = ref
        if ref.startswith("ref: "):
            name = ref[5:]
            loose = ROOT / ".git" / name
            packed = ROOT / ".git" / "packed-refs"
            if loose.is_file():
                sha = loose.read_text().strip()
            elif packed.is_file():
                for line in packed.read_text().splitlines():
                    if line.endswith(" " + name):
                        sha = line.split()[0]
    src_lines = sum(len(p.read_text().splitlines())
                    for p in SRC.rglob("*.py"))
    return {"git_sha": sha, "python": sys.version.split()[0],
            "numpy": np.__version__, "nproc": os.cpu_count(),
            "src_lines": src_lines}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "selfright" / "cli.py").is_file():
        print(f"error: no selfright sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import selfright.cli as cli
    if Path(cli.__file__).resolve().parent.parent != SRC:
        print(f"error: imported selfright from {cli.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2

    meta = dict(run_metadata(), workload=args.workload, seed=args.seed,
                seconds=args.seconds, trace=args.trace)
    print("# meta " + json.dumps(meta, sort_keys=True))
    if not args.trace:
        setup_s, setup_raw = measure_setup()
        print(f"setup_s: median of {SETUP_REPEATS} fresh interpreters, "
              f"raw {setup_raw:.6g} s")

    run = Run(args.workload, cli)
    run_dir = WORK / f"{args.workload}-seed{args.seed}"
    ref_dir = WORK / f"{args.workload}-reference"
    for d in (run_dir, ref_dir):
        shutil.rmtree(d, ignore_errors=True)

    # Warm-up pass at the default seed, checked against the reference.
    ref_calls = make_calls(args.workload, DEFAULT_SEED, ref_dir)
    clock = HostClock()
    _, _, codes = run.run_pass(ref_calls, clock)
    _, _, _, docs = run.inspect(ref_calls, codes)
    if args.workload.startswith("sweep"):
        run.check_reference(docs)

    calls = make_calls(args.workload, args.seed, run_dir)
    tracer = None
    if args.trace:
        from tracer import (LAYER_METRICS, LAYERS, SELF_SUM_TOLERANCE,
                            Tracer, median_metrics)
        tracer = Tracer(clock.now)
        time_keys = [k for k, (unit, _, _) in LAYER_METRICS.items()
                     if unit in ("s", "us")] + ["@" + x for x in LAYERS]
    walls: list[float] = []        # untraced passes, reference-host s
    raws: list[float] = []
    rates: list[tuple[float, float]] = []
    traced: list[dict] = []        # per-layer values of traced passes
    first_digest = None
    deadline = time.perf_counter() + args.seconds
    while True:
        n_untraced, n_traced = len(walls), len(traced)
        enough = (n_untraced >= MIN_PASSES if tracer is None
                  else min(n_untraced, n_traced) >= 2
                  and n_untraced == n_traced)
        if enough and time.perf_counter() >= deadline:
            break
        use_trace = tracer is not None and n_traced < n_untraced
        if use_trace:
            with tracer.installed(n_traced):
                raw, factor, codes = run.run_pass(calls, clock)
        else:
            raw, factor, codes = run.run_pass(calls, clock)
        digest, finite, samples, _ = run.inspect(calls, codes)
        if first_digest is None:
            first_digest = digest
        else:
            run.check(digest == first_digest,
                      "a pass wrote different bytes than the first pass")
        wall = raw * factor
        if use_trace:
            values = tracer.pass_metrics(n_traced, raw)
            run.check(abs(values["trace.self_sum_frac"] - 1.0)
                      <= SELF_SUM_TOLERANCE,
                      f"span self times cover "
                      f"{values['trace.self_sum_frac']:.3f} of a pass")
            for key in time_keys:
                if key in values:
                    values[key] *= factor
            traced.append(values)
        else:
            walls.append(wall)
            raws.append(raw)
            rates.append((finite / wall, samples / wall))

    wall_s = statistics.median(walls)
    print(describe("wall_s", walls, "s"))
    print(describe("raw wall time", raws, "s"))
    if tracer is None:
        metrics = {
            "setup_s": (setup_s, "s"),
            "wall_s": (wall_s, "s"),
            "trials_per_s": (statistics.median(r[0] for r in rates), "1/s"),
            "samples_per_s": (statistics.median(r[1] for r in rates), "1/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF)
                            .ru_maxrss / 1024.0, "MB"),
        }
    else:
        med = median_metrics(traced)
        med["trace.untraced_wall_s"] = wall_s
        med["trace.overhead_s"] = med["trace.wall_s"] - wall_s
        missing = tracer.missing_metrics()
        if missing:
            print("missing per-layer metrics: " + ", ".join(missing))
        print(f"tracing overhead: {med['trace.overhead_s']:.6g} s per pass "
              f"({med['trace.overhead_s'] / wall_s:+.2%} of untraced "
              f"wall_s), {len(traced)} traced passes")
        print("self-time share of traced wall_s: " + ", ".join(
            f"{layer} {med['@' + layer] / med['trace.wall_s']:.1%}"
            for layer in LAYERS if "@" + layer not in missing))
        metrics = {name: (med[name], unit)
                   for name, (unit, _, _) in LAYER_METRICS.items()
                   if name not in missing}
        trace_path = WORK / f"trace-{args.workload}-seed{args.seed}.json"
        tracer.write(trace_path, meta)
        print(f"spans: {len(tracer.spans)} written to {trace_path}")

    for name, (value, unit) in metrics.items():
        print(f"{name:34s} {value:14.6g} {unit}")
    print(f"fail_frac: {run.failed}/{run.attempted} = "
          f"{run.failed / run.attempted:.6g} (failed ops / attempted ops)")
    for problem in run.problems:
        print(f"FAILED: {problem}")
    for d in (run_dir, ref_dir):
        shutil.rmtree(d, ignore_errors=True)
    result = {"correct": run.failed == 0, "attempted": run.attempted,
              "failed": run.failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
