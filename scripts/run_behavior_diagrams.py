#!/usr/bin/env python3
"""Reproduce the amplitude x spatial-frequency behavior diagrams.

Runs the default sweep grid for the limbless and the legged body, writes
one CSV and one JSON per body, and prints a text rendering of each P_sr
map with amplitude increasing upward.
"""

import argparse
import time
from dataclasses import replace
from pathlib import Path

from selfright import (Morphology, RunConfig, binariness, config_hash,
                       run_sweep, write_diagram_csv, write_diagram_json)
from selfright.sweep import provenance_config


def render(diagram) -> str:
    lines = ["  A_rad \\ xi " + " ".join(f"{x:4.1f}" for x in diagram.xis)]
    for a_idx in range(len(diagram.amplitudes) - 1, -1, -1):
        cells = []
        for x_idx in range(len(diagram.xis)):
            v = diagram.p_sr[a_idx, x_idx]
            cells.append(" nan" if v != v else f"{v:4.1f}")
        lines.append(f"  {diagram.amplitudes[a_idx]:9.4f}  " + " ".join(cells))
    return "\n".join(lines)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", type=Path, default=Path("results"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--trials", type=int, default=None,
                    help="trials per cell (default: protocol default)")
    ap.add_argument("--mode", choices=("lumped", "segmented"),
                    default="lumped")
    args = ap.parse_args()
    args.out.mkdir(parents=True, exist_ok=True)

    base = RunConfig(seed=args.seed, mode=args.mode)
    if args.trials is not None:
        base = replace(base, sweep=replace(base.sweep,
                                           trials_per_cell=args.trials))
    bodies = {"limbless": Morphology().limbless(), "legged": Morphology()}
    for name, morph in bodies.items():
        cfg = replace(base, morphology=morph)

        start = time.perf_counter()
        diagram = run_sweep(cfg)
        elapsed = time.perf_counter() - start

        meta = {"body": name, "seed": args.seed, "mode": args.mode,
                "config_sha256": config_hash(provenance_config(cfg))}
        write_diagram_csv(diagram, args.out / f"behavior_{name}.csv", meta)
        write_diagram_json(diagram, args.out / f"behavior_{name}.json", meta)

        interior = int(((diagram.p_sr > 0) & (diagram.p_sr < 1)).sum())
        print(f"{name}: {diagram.p_sr.size} cells in {elapsed:.2f}s, "
              f"binariness={binariness(diagram):.3f}, "
              f"graded cells={interior}, errors={len(diagram.errors)}")
        print(render(diagram))
        print()
    print(f"wrote diagrams to {args.out}/")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
