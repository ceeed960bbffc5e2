"""Write the P_sr reference grids that bench/run_bench.py checks against.

Run from the repository root at the commit the references should pin:

    python3 bench/make_reference.py

Each sweep workload runs once at the default seed and its amplitudes,
xis and P_sr grid are stored in bench/reference/<workload>.json.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import sys

from run_bench import (DEFAULT_SEED, REFERENCE, SRC, WORK, WORKLOADS,
                       make_calls, run_metadata)


def main() -> int:
    sys.path.insert(0, str(SRC))
    from selfright.cli import main as cli_main
    REFERENCE.mkdir(exist_ok=True)
    for workload in WORKLOADS:
        if not workload.startswith("sweep"):
            continue
        run_dir = WORK / f"{workload}-make-reference"
        (argv,) = make_calls(workload, DEFAULT_SEED, run_dir)
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli_main(argv)
        if code != 0:
            print(f"{workload}: selfright exited {code}", file=sys.stderr)
            return 1
        doc = json.loads((run_dir / "out" / "sweep.json").read_text())
        ref = {"made_at": run_metadata()["git_sha"], "seed": DEFAULT_SEED,
               "amplitudes": doc["amplitudes"], "xis": doc["xis"],
               "p_sr": doc["p_sr"]}
        path = REFERENCE / f"{workload}.json"
        path.write_text(json.dumps(ref, indent=1) + "\n")
        shutil.rmtree(run_dir)
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
