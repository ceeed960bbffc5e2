"""Command-line front end.

Five subcommands cover the pipeline: gait (commanded joint angles),
energy (roll-angle landscape), simulate (one roll trial), sweep
(behavior diagram over amplitude and spatial frequency), and sidewind
(planar displacement estimate). Every output file embeds the sha256 of
the effective run configuration and the seed, and contains nothing
time- or host-dependent, so identical invocations produce identical
bytes.

Settings resolve in precedence order: command-line flag, then SRSIM_*
environment variable, then --config file, then built-in default.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .config import RunConfig, config_hash, load_config
from .errors import ConfigError, SelfRightError
from .gait import joint_vector
from .rollmodel import (RollState, classify_trial, energy_landscape,
                        simulate_roll)
from .sidewinding import displacement_trajectory
from .sweep import (binariness, run_sweep, write_diagram_csv,
                    write_diagram_json)

ENV_PREFIX = "SRSIM_"


def _fmt(x) -> str:
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


def _env(name: str) -> str | None:
    return os.environ.get(ENV_PREFIX + name)


def _env_int(name: str) -> int | None:
    raw = _env(name)
    if raw is None:
        return None
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"{ENV_PREFIX}{name} must be an integer, got {raw!r}")


def _env_float(name: str) -> float | None:
    raw = _env(name)
    if raw is None:
        return None
    try:
        return float(raw)
    except ValueError:
        raise ConfigError(f"{ENV_PREFIX}{name} must be a number, got {raw!r}")


def _pick(flag, env):
    return flag if flag is not None else env


def _effective_config(args: argparse.Namespace) -> RunConfig:
    cfg = load_config(args.config) if args.config else RunConfig()
    seed = _pick(args.seed, _env_int("SEED"))
    mode = _pick(args.mode, _env("MODE"))
    legs = _pick(args.legs, _env_float("LEGS"))
    if seed is not None:
        cfg = replace(cfg, seed=seed)
    if mode is not None:
        cfg = replace(cfg, mode=mode)
    if legs is not None:
        cfg = replace(cfg, morphology=replace(cfg.morphology, leg_length=legs))
    return cfg


def _out_dir(args: argparse.Namespace) -> Path:
    out = Path(_pick(args.out, _env("OUT")) or ".")
    out.mkdir(parents=True, exist_ok=True)
    return out


def _fold_gait(cfg: RunConfig, args: argparse.Namespace) -> RunConfig:
    """Fold gait flags into the config so the output hash reflects them."""
    updates = {}
    amp = getattr(args, "amplitude", None)
    if amp is not None:
        updates["amplitude_lateral"] = amp
        updates["amplitude_vertical"] = amp
    if getattr(args, "xi", None) is not None:
        updates["spatial_frequency"] = args.xi
    if not updates:
        return cfg
    return replace(cfg, gait=replace(cfg.gait, **updates))


def _write_csv(path: Path, cfg: RunConfig, header: tuple[str, ...],
               rows) -> None:
    lines = [f"# config_sha256={config_hash(cfg)} seed={cfg.seed}",
             ",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    path.write_text("\n".join(lines) + "\n")


def _write_json(path: Path, cfg: RunConfig, payload: dict) -> None:
    doc = {"config_sha256": config_hash(cfg), "seed": cfg.seed}
    doc.update(payload)
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


def cmd_gait(cfg: RunConfig, args: argparse.Namespace, out: Path) -> int:
    cfg = _fold_gait(cfg, args)
    g = cfg.gait
    n = args.samples
    rows = []
    for k in range(n + 1):
        t = g.period * k / n
        angles = joint_vector(g, t)
        for i, a in enumerate(angles.lateral):
            rows.append((t, i, "lateral", float(a)))
        for i, a in enumerate(angles.vertical):
            rows.append((t, i, "vertical", float(a)))
    path = out / "gait.csv"
    _write_csv(path, cfg, ("time_s", "joint", "axis", "angle_rad"), rows)
    print(path)
    return 0


def cmd_energy(cfg: RunConfig, args: argparse.Namespace, out: Path) -> int:
    if args.resolution is not None:
        cfg = replace(cfg, roll=replace(cfg.roll, resolution=args.resolution))
    land = energy_landscape(cfg.morphology, cfg.roll.resolution)
    csv_path = out / "energy.csv"
    _write_csv(csv_path, cfg, ("gamma_rad", "energy_J", "denergy_J_per_rad"),
               zip(land.gamma_samples.tolist(), land.energy.tolist(),
                   land.denergy.tolist()))
    json_path = out / "energy.json"
    _write_json(json_path, cfg, {
        "minima_rad": list(land.minima),
        "barrier_J": land.barrier,
        "resolution": land.resolution,
        "leg_length_m": cfg.morphology.leg_length,
    })
    print(csv_path)
    print(json_path)
    return 0


def cmd_simulate(cfg: RunConfig, args: argparse.Namespace, out: Path) -> int:
    cfg = _fold_gait(cfg, args)
    cycles = 0.5 if args.half else args.cycles
    perturb = rng = None
    if args.perturb:
        perturb = cfg.sweep.perturbation()
        rng = np.random.default_rng(cfg.seed)
    traj = simulate_roll(cfg.gait, cfg.morphology, cycles=cycles,
                         init=RollState(gamma=args.gamma0),
                         perturb=perturb, mode=cfg.mode, rng=rng,
                         mu=cfg.roll.mu, kappa=cfg.roll.kappa,
                         steps_per_cycle=cfg.roll.steps_per_cycle,
                         resolution=cfg.roll.resolution)
    outcome = classify_trial(traj)

    omega = cfg.gait.temporal_frequency
    start = float(np.mean(np.atleast_1d(traj.gammas[0])))
    phi_cmd = start + omega * (traj.times - traj.times[0])
    if traj.mode == "lumped":
        header = ("time_s", "phi_cmd_rad", "gamma_rad")
        rows = zip(traj.times.tolist(), phi_cmd.tolist(),
                   traj.gammas.tolist())
    else:
        m = traj.gammas.shape[1]
        header = ("time_s", "phi_cmd_rad",
                  *(f"gamma_{i}_rad" for i in range(m)))
        rows = ((t, p, *gs) for t, p, gs in
                zip(traj.times.tolist(), phi_cmd.tolist(),
                    traj.gammas.tolist()))
    csv_path = out / "trajectory.csv"
    _write_csv(csv_path, cfg, header, rows)
    json_path = out / "outcome.json"
    _write_json(json_path, cfg, {
        "self_righted": outcome.self_righted,
        "rolls_per_cycle": outcome.rolls_per_cycle,
        "stalled": outcome.stalled,
        "cycles": cycles,
        "mode": traj.mode,
        "gamma_start_rad": start,
        "gamma_end_rad": float(np.mean(np.atleast_1d(traj.gammas[-1]))),
    })
    print(csv_path)
    print(json_path)
    print(f"self_righted={outcome.self_righted} "
          f"rolls_per_cycle={outcome.rolls_per_cycle:.4f}")
    return 0


def cmd_sweep(cfg: RunConfig, args: argparse.Namespace, out: Path) -> int:
    sw = cfg.sweep
    if args.trials is not None:
        sw = replace(sw, trials_per_cell=args.trials)
    if args.cycles is not None:
        sw = replace(sw, cycles_per_trial=args.cycles)
    cfg = replace(cfg, sweep=sw)
    diagram = run_sweep(cfg.sweep_spec())
    meta = {"config_sha256": config_hash(cfg), "seed": cfg.seed}
    csv_path = out / "sweep.csv"
    json_path = out / "sweep.json"
    write_diagram_csv(diagram, csv_path, meta)
    write_diagram_json(diagram, json_path, meta)
    print(csv_path)
    print(json_path)
    print(f"binariness={binariness(diagram):.4f} "
          f"cells={len(sw.amplitudes) * len(sw.xis)} "
          f"errors={len(diagram.errors)}")
    return 0


def cmd_sidewind(cfg: RunConfig, args: argparse.Namespace, out: Path) -> int:
    cfg = _fold_gait(cfg, args)
    sw = cfg.sidewinding
    if args.cycles is not None:
        sw = replace(sw, cycles=args.cycles)
    if args.samples is not None:
        sw = replace(sw, samples_per_cycle=args.samples)
    if args.contact_tol is not None:
        sw = replace(sw, contact_tol=args.contact_tol)
    cfg = replace(cfg, sidewinding=sw)
    report, path_xy = displacement_trajectory(
        cfg.gait, cfg.morphology, cycles=sw.cycles,
        samples_per_cycle=sw.samples_per_cycle, contact_tol=sw.contact_tol)

    period = cfg.gait.period
    rows = ((k, period * k / sw.samples_per_cycle, float(p[0]), float(p[1]))
            for k, p in enumerate(path_xy))
    csv_path = out / "sidewind.csv"
    _write_csv(csv_path, cfg, ("sample", "time_s", "x_m", "y_m"), rows)
    json_path = out / "sidewind.json"
    payload = dataclasses.asdict(report)
    payload["net_xy"] = list(payload["net_xy"])
    _write_json(json_path, cfg, payload)
    print(csv_path)
    print(json_path)
    print(f"lateral_displacement={report.lateral_displacement:.4f} "
          f"contact_fraction={report.contact_fraction:.4f}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH",
                        help="JSON run configuration")
    common.add_argument("--seed", type=int, metavar="N",
                        help="override the trial seed")
    common.add_argument("--out", metavar="DIR",
                        help="output directory (default: current)")
    common.add_argument("--mode", choices=("lumped", "segmented"),
                        help="roll model variant")
    common.add_argument("--legs", type=float, metavar="METERS",
                        help="override leg length")

    parser = argparse.ArgumentParser(
        prog="selfright",
        description="Gait-driven self-righting simulator and sweep harness.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gait", parents=[common],
                       help="export one cycle of commanded joint angles")
    p.add_argument("--samples", type=int, default=64, metavar="N",
                   help="samples per cycle (default 64)")
    p.add_argument("--amplitude", type=float, metavar="RAD",
                   help="set both wave amplitudes")
    p.add_argument("--xi", type=float, metavar="XI",
                   help="spatial frequency override")
    p.set_defaults(func=cmd_gait)

    p = sub.add_parser("energy", parents=[common],
                       help="export the roll-angle potential landscape")
    p.add_argument("--resolution", type=int, metavar="N",
                   help="landscape samples over one revolution")
    p.set_defaults(func=cmd_energy)

    p = sub.add_parser("simulate", parents=[common],
                       help="run one quasi-static roll trial")
    p.add_argument("--cycles", type=float, default=1.0, metavar="C",
                   help="gait cycles to integrate (default 1)")
    p.add_argument("--half", action="store_true",
                   help="integrate half a cycle (one-shot righting)")
    p.add_argument("--gamma0", type=float, default=0.0, metavar="RAD",
                   help="initial roll angle (default 0)")
    p.add_argument("--perturb", action="store_true",
                   help="apply seeded initial-angle and gain perturbations")
    p.add_argument("--amplitude", type=float, metavar="RAD",
                   help="set both wave amplitudes")
    p.add_argument("--xi", type=float, metavar="XI",
                   help="spatial frequency override")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("sweep", parents=[common],
                       help="run the amplitude x spatial-frequency sweep")
    p.add_argument("--trials", type=int, metavar="N",
                   help="trials per grid cell")
    p.add_argument("--cycles", type=int, metavar="C",
                   help="cycles per trial")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("sidewind", parents=[common],
                       help="estimate planar sidewinding displacement")
    p.add_argument("--cycles", type=int, metavar="C",
                   help="gait cycles to trace")
    p.add_argument("--samples", type=int, metavar="N",
                   help="samples per cycle")
    p.add_argument("--contact-tol", type=float, metavar="METERS",
                   help="ground-contact height tolerance")
    p.add_argument("--amplitude", type=float, metavar="RAD",
                   help="set both wave amplitudes")
    p.add_argument("--xi", type=float, metavar="XI",
                   help="spatial frequency override")
    p.set_defaults(func=cmd_sidewind)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _effective_config(args)
        out = _out_dir(args)
        return args.func(cfg, args, out)
    except SelfRightError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
