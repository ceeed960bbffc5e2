"""Command-line front end.

Five subcommands cover the pipeline: gait (commanded joint angles),
energy (roll-angle landscape), simulate (one roll trial), sweep
(behavior diagram over amplitude and spatial frequency, its P_sr map
also printed to stdout), and sidewind (planar displacement estimate).
Every output file embeds the sha256 of the effective run configuration
and the seed, and contains nothing time- or host-dependent, so
identical invocations produce identical bytes. Each command prints the
path of every file it writes, in the order it writes them.

Settings resolve in precedence order: command-line flag, then SRSIM_*
environment variable, then --config file, then built-in default.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import io
import itertools
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from .config import RunConfig, config_hash, load_config, merge_config
from .errors import ConfigError, SelfRightError
from .gait import joint_vector
from .rollmodel import MAX_RESOLUTION, energy_landscape, simulate_roll
from .sidewinding import displacement_trajectory
from .sweep import BehaviorDiagram, binariness, provenance_config, run_sweep

ENV_PREFIX = "SRSIM_"


def _env(name: str) -> str | None:
    return os.environ.get(ENV_PREFIX + name)


# SRSIM_* fallbacks: variable suffix -> (config path, type, what it must be).
_ENV_SETTINGS = {
    "SEED": ("seed", int, "an integer"),
    "MODE": ("mode", str, "a string"),
    "LEGS": ("morphology.leg_length", float, "a number"),
}

_CONFIG_FIELDS = {f.name for f in dataclasses.fields(RunConfig)}


def _effective_config(args: argparse.Namespace) -> RunConfig:
    """The --config file, then the SRSIM_* fallbacks, then the flags, each
    setting merged onto the layers below it as a one-key nested dict.

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
        for key in reversed(path.split(".")):
            value = {key: value}
        cfg = merge_config(cfg, value)
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


def _provenance(cfg: RunConfig) -> dict:
    """What every output file records of the run that wrote it."""
    return {"config_sha256": config_hash(cfg), "seed": cfg.seed}


def _write_csv(path: Path, provenance: dict, header: tuple[str, ...],
               lines) -> None:
    """The provenance as a comment line, the header, then the lines,
    joined and written 4,096 at a time, so a generator of lines is never
    held whole.

    Each file formats its rows with one printf template: %.17g for a
    float column (it renders a float as format(x, ".17g") does, nan, inf
    and -0 included), %d only for a column of true ints.
    """
    meta = " ".join(f"{k}={v}" for k, v in provenance.items())
    lines = iter(lines)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as f:
        f.write(f"# {meta}\n{','.join(header)}\n")
        while block := list(itertools.islice(lines, 4096)):
            f.write("\n".join(block) + "\n")
    print(path)


def _write_json(path: Path, doc: dict) -> None:
    """doc as indented JSON, its encoded chunks joined and written 4,096
    at a time, so the whole text is never held."""
    chunks = json.JSONEncoder(indent=1, sort_keys=True).iterencode(doc)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as f:
        while block := list(itertools.islice(chunks, 4096)):
            f.write("".join(block))
        f.write("\n")
    print(path)


def write_diagram_csv(diagram: BehaviorDiagram, path: Path) -> None:
    """One row per trial plus a summary row per cell.

    Trial rows leave p_sr empty; the summary row (trial column 'summary')
    carries the cell's mean rolls per cycle and P_sr.
    """
    # A cell's "A_rad,xi," prefix is formatted once for all its rows.
    lines = (line
             for amp, trial_row, mean_row, p_row in zip(
                 diagram.amplitudes.tolist(), diagram.trial_rolls.tolist(),
                 diagram.trial_rolls.mean(axis=2).tolist(),
                 diagram.p_sr.tolist())
             for xi, cell, mean, p in zip(diagram.xis.tolist(), trial_row,
                                          mean_row, p_row)
             for cell_head in ["%.17g,%.17g," % (amp, xi)]
             for line in itertools.chain(
                 (cell_head + "%d,%.17g," % row for row in enumerate(cell)),
                 (cell_head + "summary,%.17g,%.17g" % (mean, p),)))
    _write_csv(path, _provenance(provenance_config(diagram.config)),
               ("A_rad", "xi", "trial", "rolls_per_cycle", "p_sr"), lines)


def write_diagram_json(diagram: BehaviorDiagram, path: Path) -> None:
    cfg = diagram.config
    roll, sw = cfg.roll, cfg.sweep
    _write_json(path, {
        "meta": _provenance(provenance_config(cfg)),
        "calibration": {"mu": roll.mu, "kappa": roll.kappa,
                        "drive_frequency": cfg.gait.temporal_frequency,
                        "steps_per_cycle": roll.steps_per_cycle},
        "protocol": {"trials_per_cell": sw.trials_per_cell,
                     "cycles_per_trial": sw.cycles_per_trial,
                     "seed": cfg.seed, "mode": cfg.mode},
        "amplitudes": diagram.amplitudes.tolist(),
        "xis": diagram.xis.tolist(),
        "p_sr": [[None if math.isnan(v) else v for v in row]
                 for row in diagram.p_sr.tolist()],
        "trial_rolls": [[[None if math.isnan(v) else v for v in cell]
                         for cell in row]
                        for row in diagram.trial_rolls.tolist()],
        "errors": list(diagram.errors),
    })


def cmd_gait(cfg: RunConfig, args: argparse.Namespace, out: Path) -> int:
    g = cfg.gait
    if not 1 <= args.samples <= MAX_RESOLUTION:
        raise ConfigError(f"--samples must be >= 1 and <= {MAX_RESOLUTION}")
    # Blocks of 1,024 samples bound memory; joint_vector is elementwise.
    blocks = (g.period * np.arange(k, min(k + 1024, args.samples + 1))
              / args.samples for k in range(0, args.samples + 1, 1024))
    # A sample's time is formatted once for all its joint rows.
    lines = (head + "%d,%s,%.17g" % (i, axis, a)
             for times in blocks for angles in [joint_vector(g, times)]
             for t, lat, vert in zip(times.tolist(), angles.lateral.tolist(),
                                     angles.vertical.tolist())
             for head in ["%.17g," % t]
             for axis, side in (("lateral", lat), ("vertical", vert))
             for i, a in enumerate(side))
    _write_csv(out / "gait.csv", _provenance(cfg),
               ("time_s", "joint", "axis", "angle_rad"), lines)
    return 0


def cmd_energy(cfg: RunConfig, args: argparse.Namespace, out: Path) -> int:
    land = energy_landscape(cfg.morphology, cfg.roll.resolution)
    provenance = _provenance(cfg)
    _write_csv(out / "energy.csv", provenance,
               ("gamma_rad", "energy_J", "denergy_J_per_rad"),
               ("%.17g,%.17g,%.17g" % row
                for row in zip(land.gamma_samples.tolist(),
                               land.energy.tolist(), land.denergy.tolist())))
    _write_json(out / "energy.json", {
        **provenance,
        "minima_rad": list(land.minima),
        "barrier_J": land.barrier,
        "resolution": land.resolution,
        "leg_length_m": cfg.morphology.leg_length,
    })
    return 0


def cmd_simulate(cfg: RunConfig, args: argparse.Namespace, out: Path) -> int:
    perturb = cfg.sweep.perturbation() if args.perturb else None
    # Trial (0, 0) of the seed's streams: trial 0 of a one-cell sweep.
    traj = simulate_roll(cfg.gait, cfg.morphology, cycles=args.cycles,
                         gamma0=args.gamma0, perturb=perturb, mode=cfg.mode,
                         stream=(cfg.seed, 0, 0),
                         mu=cfg.roll.mu, kappa=cfg.roll.kappa,
                         steps_per_cycle=cfg.roll.steps_per_cycle)

    gammas = traj.gammas.reshape(len(traj.times), -1)
    start = float(gammas[0].mean())
    # The head lane's command phase as the solver forms it, interval by
    # interval: its start + omega * n * dt.
    phi_cmd = (gammas[0, 0] + cfg.gait.temporal_frequency
               * np.arange(len(traj.times)) * traj.times[1])
    names = (["gamma_rad"] if traj.mode == "lumped" else
             [f"gamma_{i}_rad" for i in range(gammas.shape[1])])
    template = ",".join(["%.17g"] * (2 + len(names)))
    lines = (template % (t, p, *gs) for t, p, gs in
             zip(traj.times.tolist(), phi_cmd.tolist(), gammas.tolist()))
    provenance = _provenance(cfg)
    _write_csv(out / "trajectory.csv", provenance,
               ("time_s", "phi_cmd_rad", *names), lines)
    righting = traj.righting_intervals
    _write_json(out / "outcome.json", {
        **provenance,
        "righting_interval": list(righting),
        "righting_spread_cycles": None if None in righting else
        (righting[-1] - righting[0]) / cfg.roll.steps_per_cycle,
        "self_righted": traj.self_righted,
        "rolls_per_cycle": traj.rolls_per_cycle,
        "stalled": traj.stalled,
        "cycles": traj.cycles,
        "mode": traj.mode,
        "gamma_start_rad": start,
        "gamma_end_rad": float(gammas[-1].mean()),
    })
    print(f"self_righted={traj.self_righted} "
          f"rolls_per_cycle={traj.rolls_per_cycle:.4f}")
    return 0


def cmd_sweep(cfg: RunConfig, args: argparse.Namespace, out: Path) -> int:
    diagram = run_sweep(cfg)
    write_diagram_csv(diagram, out / "sweep.csv")
    write_diagram_json(diagram, out / "sweep.json")
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

    n = len(path_xy)
    # Bitwise the per-row product period * k / samples_per_cycle.
    times = cfg.gait.period * np.arange(n) / sw.samples_per_cycle
    provenance = _provenance(cfg)
    _write_csv(out / "sidewind.csv", provenance,
               ("sample", "time_s", "x_m", "y_m"),
               ("%d,%.17g,%.17g,%.17g" % row
                for row in zip(range(n), times.tolist(),
                               path_xy[:, 0].tolist(),
                               path_xy[:, 1].tolist())))
    payload = dataclasses.asdict(report)
    payload["net_xy"] = list(payload["net_xy"])
    _write_json(out / "sidewind.json", {**provenance, **payload})
    print(f"lateral_displacement={report.lateral_displacement:.4f} "
          f"contact_fraction={report.contact_fraction:.4f}")
    return 0


@functools.cache  # parse_args leaves the parser as it found it
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
    span = p.add_mutually_exclusive_group()
    # --cycles comes first, so its default is the one args.cycles gets.
    span.add_argument("--cycles", type=float, default=1.0, metavar="C",
                      help="gait cycles to integrate (default 1)")
    span.add_argument("--half", action="store_const", dest="cycles",
                      const=0.5,
                      help="integrate half a cycle (one-shot righting)")
    p.add_argument("--gamma0", type=float, default=0.0, metavar="RAD",
                   help="initial roll angle (default 0)")
    p.add_argument("--perturb", action="store_true",
                   help="apply the initial-angle and gain perturbations of "
                        "trial 0 of a one-cell sweep at --seed")
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
    # A command's stdout is held until it returns, so a reader that closes
    # the pipe early cannot stop it before it has written all its files.
    printed = io.StringIO()
    try:
        with contextlib.redirect_stdout(printed):
            cfg = _effective_config(args)
            out = _out_dir(args)
            status = args.func(cfg, args, out)
    except SelfRightError as exc:
        print(f"error: {exc}", file=sys.stderr)
        status = 1
    try:
        print(printed.getvalue(), end="", flush=True)
    except BrokenPipeError:
        # Python's recipe for a closed stdout: point it at devnull, so the
        # flush at exit cannot fail again, and exit 1.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    return status


if __name__ == "__main__":
    sys.exit(main())
