#!/usr/bin/env python3
"""Walk through the core self-righting results on the default body.

Four demos: the leg-induced energy landscape, one-shot half-cycle
righting at increasing amplitude, head-to-tail roll propagation in
segmented mode, and sidewinding displacement of the two-amplitude gait.
Pass --out to also dump the demo trajectories as CSV.
"""

import argparse
import math
from dataclasses import replace
from pathlib import Path

import numpy as np

from selfright import (GaitParams, Morphology, displacement_trajectory,
                       energy_landscape, lateral_displacement, simulate_roll)

OMEGA = 1e-3  # quasi-static drive frequency, rad/s


def gait(amplitude: float = math.pi / 4, xi: float = 0.0) -> GaitParams:
    return GaitParams(amplitude_lateral=amplitude,
                      amplitude_vertical=amplitude,
                      temporal_frequency=OMEGA, spatial_frequency=xi)


def demo_landscape(morph: Morphology) -> None:
    print("== energy landscape vs leg length ==")
    for leg in (0.0, 0.03, 0.07, 0.11):
        land = energy_landscape(replace(morph, leg_length=leg))
        minima = ", ".join(f"{g:.3f}" for g in land.minima)
        print(f"  L={leg:.2f} m: barrier={land.barrier:.4f} J, "
              f"minima at [{minima}] rad")
    print()


def demo_one_shot(morph: Morphology, out: Path | None) -> None:
    print("== one-shot righting, half cycle, inverted start ==")
    for num, den in ((1, 12), (1, 8), (1, 6), (1, 4)):
        amp = math.pi * num / den
        traj = simulate_roll(gait(amp), morph, cycles=0.5)
        verdict = "RIGHTED" if traj.self_righted else "stalled"
        print(f"  A=pi/{den:<2d}: delta_gamma={traj.delta_gamma_total:7.4f} "
              f"rad -> {verdict}")
        if out is not None and den == 4:
            rows = np.column_stack([traj.times, traj.gammas])
            np.savetxt(out / "one_shot_quarter_pi.csv", rows,
                       delimiter=",", header="time_s,gamma_rad", comments="")
    print()


def demo_propagation(morph: Morphology) -> None:
    print("== segmented roll propagation, xi=0.6, one cycle ==")
    traj = simulate_roll(gait(xi=0.6), morph, cycles=1.0, mode="segmented")
    for m in range(traj.gammas.shape[1]):
        idx = int(np.argmax(traj.gammas[:, m] >= math.pi / 2))
        print(f"  module {m}: gamma=pi/2 at t={traj.times[idx]:7.1f} s")
    print()


def demo_sidewinding(morph: Morphology, out: Path | None) -> None:
    print("== sidewinding, A_lat=pi/3, A_vert=pi/9 ==")
    signed_band = 0.0
    for xi in (0.0, 0.6, 1.2):
        params = GaitParams(amplitude_lateral=math.pi / 3,
                            amplitude_vertical=math.pi / 9,
                            temporal_frequency=OMEGA, spatial_frequency=xi)
        report = lateral_displacement(params, morph)
        print(f"  xi={xi:.1f}: {report.lateral_displacement:.4f} BL/cycle, "
              f"contact fraction {report.contact_fraction:.2f}")
        if xi == 0.6:
            signed_band = report.signed_lateral
            if out is not None:
                _, path = displacement_trajectory(params, morph)
                np.savetxt(out / "sidewind_path_xi06.csv", path,
                           delimiter=",", header="x_m,y_m", comments="")
    mirrored = GaitParams(amplitude_lateral=math.pi / 3,
                          amplitude_vertical=math.pi / 9,
                          temporal_frequency=OMEGA, spatial_frequency=0.6,
                          lateral_phase=math.pi)
    report = lateral_displacement(mirrored, morph)
    print(f"  xi=0.6 signed: {signed_band:+.4f} BL/cycle, "
          f"mirrored gait {report.signed_lateral:+.4f} BL/cycle")
    print()


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", type=Path, default=None,
                    help="directory for trajectory CSV dumps")
    args = ap.parse_args()
    if args.out is not None:
        args.out.mkdir(parents=True, exist_ok=True)

    morph = Morphology()
    demo_landscape(morph)
    demo_one_shot(morph, args.out)
    demo_propagation(morph)
    demo_sidewinding(morph, args.out)
    if args.out is not None:
        print(f"trajectory dumps in {args.out}/")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
