"""Command-line front end.

Five subcommands cover the pipeline: gait (commanded joint angles),
energy (roll-angle landscape), simulate (one roll trial), sweep
(behavior diagram over amplitude and spatial frequency, its P_sr map
also printed to stdout), and sidewind (planar displacement estimate).
Every output file embeds the sha256 of the effective run configuration
and the seed, and contains nothing time- or host-dependent, so
identical invocations produce identical bytes.

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
from .rollmodel import classify_trial, energy_landscape, simulate_roll
from .sidewinding import displacement_trajectory
from .sweep import (binariness, provenance_config, run_sweep,
                    write_diagram_csv, write_diagram_json)

ENV_PREFIX = "SRSIM_"


def _fmt(x) -> str:
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


def _env(name: str) -> str | None:
    return os.environ.get(ENV_PREFIX + name)


# SRSIM_* fallbacks: variable suffix -> (config path, type, what it must be).
_ENV_SETTINGS = {
    "SEED": ("seed", int, "an integer"),
    "MODE": ("mode", str, "a string"),
    "LEGS": ("morphology.leg_length", float, "a number"),
}

_CONFIG_FIELDS = {f.name for f in dataclasses.fields(RunConfig)}


def _set(obj, path: str, value):
    """obj with the field at dotted path set to value."""
    head, _, rest = path.partition(".")
    if rest:
        value = _set(getattr(obj, head), rest, value)
    return replace(obj, **{head: value})


def _effective_config(args: argparse.Namespace) -> RunConfig:
    """The --config file, then the SRSIM_* fallbacks, then the flags.

    A flag that sets a config field has the field's dotted path as its
    argparse dest; unset flags are None.
    """
    cfg = load_config(args.config) if args.config else RunConfig()
    settings = {}
    for name, (path, kind, noun) in _ENV_SETTINGS.items():
        raw = _env(name)
        if raw is not None:
            try:
                settings[path] = kind(raw)
            except ValueError:
                raise ConfigError(
                    f"{ENV_PREFIX}{name} must be {noun}, got {raw!r}")
    settings.update((path, value) for path, value in vars(args).items()
                    if value is not None
                    and path.partition(".")[0] in _CONFIG_FIELDS)
    for path, value in settings.items():
        cfg = _set(cfg, path, value)
    return cfg


def _out_dir(args: argparse.Namespace) -> Path:
    """The output directory; the writers create it, so a command that
    rejects its inputs leaves none behind."""
    return Path(args.out if args.out is not None else _env("OUT") or ".")


class _BothAmplitudes(argparse.Action):
    """--amplitude sets the lateral and the vertical wave amplitude."""

    def __call__(self, parser, namespace, value, option_string=None):
        setattr(namespace, "gait.amplitude_lateral", value)
        setattr(namespace, "gait.amplitude_vertical", value)


def _write_csv(path: Path, cfg: RunConfig, header: tuple[str, ...],
               rows) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = [f"# config_sha256={config_hash(cfg)} seed={cfg.seed}",
             ",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    path.write_text("\n".join(lines) + "\n")


def _write_json(path: Path, cfg: RunConfig, payload: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    doc = {"config_sha256": config_hash(cfg), "seed": cfg.seed}
    doc.update(payload)
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


def cmd_gait(cfg: RunConfig, args: argparse.Namespace, out: Path) -> int:
    g = cfg.gait
    if args.samples < 1:
        raise ConfigError("--samples must be >= 1")
    times = g.period * np.arange(args.samples + 1) / args.samples
    angles = joint_vector(g, times)
    rows = []
    for t, lat, vert in zip(times.tolist(), angles.lateral.tolist(),
                            angles.vertical.tolist()):
        rows.extend((t, i, "lateral", a) for i, a in enumerate(lat))
        rows.extend((t, i, "vertical", a) for i, a in enumerate(vert))
    path = out / "gait.csv"
    _write_csv(path, cfg, ("time_s", "joint", "axis", "angle_rad"), rows)
    print(path)
    return 0


def cmd_energy(cfg: RunConfig, args: argparse.Namespace, out: Path) -> int:
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
    cycles = 0.5 if args.half else args.cycles
    perturb = rng = None
    if args.perturb:
        perturb = cfg.sweep.perturbation()
        rng = np.random.default_rng(cfg.seed)
    traj = simulate_roll(cfg.gait, cfg.morphology, cycles=cycles,
                         gamma0=args.gamma0,
                         perturb=perturb, mode=cfg.mode, rng=rng,
                         mu=cfg.roll.mu, kappa=cfg.roll.kappa,
                         steps_per_cycle=cfg.roll.steps_per_cycle)
    outcome = classify_trial(traj)

    gammas = traj.gammas.reshape(len(traj.times), -1)
    start = float(gammas[0].mean())
    omega = cfg.gait.temporal_frequency
    phi_cmd = start + omega * (traj.times - traj.times[0])
    names = (["gamma_rad"] if traj.mode == "lumped" else
             [f"gamma_{i}_rad" for i in range(gammas.shape[1])])
    rows = ((t, p, *gs) for t, p, gs in
            zip(traj.times.tolist(), phi_cmd.tolist(), gammas.tolist()))
    csv_path = out / "trajectory.csv"
    _write_csv(csv_path, cfg, ("time_s", "phi_cmd_rad", *names), rows)
    json_path = out / "outcome.json"
    _write_json(json_path, cfg, {
        "self_righted": outcome.self_righted,
        "rolls_per_cycle": outcome.rolls_per_cycle,
        "stalled": outcome.stalled,
        "cycles": cycles,
        "mode": traj.mode,
        "gamma_start_rad": start,
        "gamma_end_rad": float(gammas[-1].mean()),
    })
    print(csv_path)
    print(json_path)
    print(f"self_righted={outcome.self_righted} "
          f"rolls_per_cycle={outcome.rolls_per_cycle:.4f}")
    return 0


def cmd_sweep(cfg: RunConfig, args: argparse.Namespace, out: Path) -> int:
    diagram = run_sweep(cfg)
    meta = {"config_sha256": config_hash(provenance_config(cfg)),
            "seed": cfg.seed}
    out.mkdir(parents=True, exist_ok=True)
    csv_path = out / "sweep.csv"
    json_path = out / "sweep.json"
    write_diagram_csv(diagram, csv_path, meta)
    write_diagram_json(diagram, json_path, meta)
    print(csv_path)
    print(json_path)
    # The P_sr map, amplitude growing upward; a NaN cell prints as nan.
    print("  A_rad \\ xi " + " ".join(f"{x:4.1f}" for x in diagram.xis))
    for amp, row in zip(diagram.amplitudes[::-1], diagram.p_sr[::-1]):
        print(f"  {amp:9.4f}  " + " ".join(f"{v:4.1f}" for v in row))
    print(f"binariness={binariness(diagram):.4f} "
          f"cells={diagram.p_sr.size} errors={len(diagram.errors)}")
    return 0


def cmd_sidewind(cfg: RunConfig, args: argparse.Namespace, out: Path) -> int:
    sw = cfg.sidewinding
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
                        dest="morphology.leg_length",
                        help="override leg length")

    gait_flags = argparse.ArgumentParser(add_help=False)
    gait_flags.add_argument("--amplitude", type=float, metavar="RAD",
                            dest="gait.amplitude_lateral",
                            action=_BothAmplitudes,
                            help="set both wave amplitudes")
    gait_flags.add_argument("--xi", type=float, metavar="XI",
                            dest="gait.spatial_frequency",
                            help="spatial frequency override")

    parser = argparse.ArgumentParser(
        prog="selfright",
        description="Gait-driven self-righting simulator and sweep harness.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gait", parents=[common, gait_flags],
                       help="export one cycle of commanded joint angles")
    p.add_argument("--samples", type=int, default=64, metavar="N",
                   help="samples per cycle (default 64)")
    p.set_defaults(func=cmd_gait)

    p = sub.add_parser("energy", parents=[common],
                       help="export the roll-angle potential landscape")
    p.add_argument("--resolution", type=int, metavar="N",
                   dest="roll.resolution",
                   help="landscape samples over one revolution")
    p.set_defaults(func=cmd_energy)

    p = sub.add_parser("simulate", parents=[common, gait_flags],
                       help="run one quasi-static roll trial")
    p.add_argument("--cycles", type=float, default=1.0, metavar="C",
                   help="gait cycles to integrate (default 1)")
    p.add_argument("--half", action="store_true",
                   help="integrate half a cycle (one-shot righting)")
    p.add_argument("--gamma0", type=float, default=0.0, metavar="RAD",
                   help="initial roll angle (default 0)")
    p.add_argument("--perturb", action="store_true",
                   help="apply seeded initial-angle and gain perturbations")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("sweep", parents=[common],
                       help="run the amplitude x spatial-frequency sweep")
    p.add_argument("--trials", type=int, metavar="N",
                   dest="sweep.trials_per_cell",
                   help="trials per grid cell")
    p.add_argument("--cycles", type=int, metavar="C",
                   dest="sweep.cycles_per_trial", help="cycles per trial")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("sidewind", parents=[common, gait_flags],
                       help="estimate planar sidewinding displacement")
    p.add_argument("--cycles", type=int, metavar="C",
                   dest="sidewinding.cycles", help="gait cycles to trace")
    p.add_argument("--samples", type=int, metavar="N",
                   dest="sidewinding.samples_per_cycle",
                   help="samples per cycle")
    p.add_argument("--contact-tol", type=float, metavar="METERS",
                   dest="sidewinding.contact_tol",
                   help="ground-contact height tolerance")
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
