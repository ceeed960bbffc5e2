"""Behavior-diagram engine: (amplitude x spatial-frequency) sweeps.

Each grid cell runs seeded Monte-Carlo trials of the quasi-static roll
simulation from the inverted pose and reports P_sr, the self-righting
probability estimated as mean roll displacement per cycle over 2*pi.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .gait import TWO_PI, GaitParams
from .kinematics import Morphology
from .rollmodel import (DEFAULT_RESOLUTION, KAPPA_DEFAULT, MU_DEFAULT,
                        QUASI_STATIC_OMEGA, STEPS_PER_CYCLE, PerturbationSpec,
                        _integrate, _trial_lanes, energy_landscape)
# Kept importable from this module: bench/tracer.py wraps them here.
from .rollmodel import drive_gain, simulate_roll  # noqa: F401

DEFAULT_AMPLITUDES = tuple(k * math.pi / 24 for k in range(1, 12))
DEFAULT_XIS = tuple(k / 10 for k in range(13))

# P_sr values this close to an endpoint collapse onto it, so exact-binary
# claims are testable without float fuzz.
ENDPOINT_SNAP = 1e-12


@dataclass(frozen=True)
class SweepSpec:
    """Grid, trial protocol, and simulation settings of one sweep."""

    amplitudes: tuple[float, ...] = DEFAULT_AMPLITUDES
    xis: tuple[float, ...] = DEFAULT_XIS
    trials_per_cell: int = 5
    cycles_per_trial: int = 3
    seed: int = 0
    morphology: Morphology = field(default_factory=Morphology)
    mode: str = "lumped"
    perturb: PerturbationSpec = field(default_factory=PerturbationSpec)
    drive_frequency: float = QUASI_STATIC_OMEGA
    steps_per_cycle: int = STEPS_PER_CYCLE
    mu: float = MU_DEFAULT
    kappa: float = KAPPA_DEFAULT
    resolution: int = DEFAULT_RESOLUTION

    def __post_init__(self) -> None:
        if not self.amplitudes or not self.xis:
            raise ConfigError("sweep grids must be nonempty")
        if self.trials_per_cell < 1 or self.cycles_per_trial < 1:
            raise ConfigError("trials and cycles must be >= 1")
        if self.mode not in ("lumped", "segmented"):
            raise ConfigError(f"unknown mode {self.mode!r}")

    def gait_for(self, amplitude: float, xi: float) -> GaitParams:
        return GaitParams(amplitude_lateral=amplitude,
                          amplitude_vertical=amplitude,
                          temporal_frequency=self.drive_frequency,
                          spatial_frequency=xi)


@dataclass(frozen=True)
class BehaviorDiagram:
    """Sweep results on the (amplitude, xi) grid.

    trial_rolls[a, x, t] is rolls-per-cycle of one trial; p_sr[a, x] is the
    cell estimate (NaN for cells whose integration failed; see errors).
    """

    amplitudes: np.ndarray
    xis: np.ndarray
    trial_rolls: np.ndarray
    p_sr: np.ndarray
    errors: tuple[str, ...]
    spec: SweepSpec

    @property
    def mean_rolls(self) -> np.ndarray:
        return self.trial_rolls.mean(axis=2)


def estimate_psr(trial_rolls: np.ndarray) -> float:
    """P_sr of one cell: mean rolls per cycle, clamped to [0, 1]."""
    rolls = np.asarray(trial_rolls, dtype=float)
    if rolls.size == 0:
        raise ConfigError("estimate_psr needs at least one trial")
    p = float(np.clip(rolls.mean(), 0.0, 1.0))
    if p > 1.0 - ENDPOINT_SNAP:
        return 1.0
    if p < ENDPOINT_SNAP:
        return 0.0
    return p


def binariness(diagram: BehaviorDiagram) -> float:
    """Fraction of cells with P_sr strictly inside (0.2, 0.8)."""
    p = diagram.p_sr
    inside = (p > 0.2) & (p < 0.8)
    return float(np.count_nonzero(inside)) / p.size


def _trial_rng(seed: int, cell_idx: int, trial: int) -> np.random.Generator:
    """Order-independent random stream of one trial of one cell."""
    return np.random.default_rng(
        np.random.SeedSequence(entropy=seed, spawn_key=(cell_idx, trial)))


def run_sweep(spec: SweepSpec) -> BehaviorDiagram:
    """Run the full grid sweep; deterministic for a given spec and seed.

    Trials start inverted (gamma = pi, plus the seeded jitter). Cell
    a_idx * len(xis) + x_idx draws trial t's perturbation from the stream
    SeedSequence(entropy=seed, spawn_key=(cell, t)). Every trial becomes
    lanes of one integration: one lane per lumped trial, one per module
    for a segmented trial. A lane does not depend on its batch mates, so
    each trial equals simulate_roll for that trial and stream bitwise. A
    trial that fails to integrate reads NaN, as does its cell's P_sr; its
    error is listed in errors and logged to the "selfright" logger.
    """
    landscape = energy_landscape(spec.morphology, spec.resolution)
    n_a, n_x, n_t = len(spec.amplitudes), len(spec.xis), spec.trials_per_cell
    gamma0, gains, offsets = [], [], []
    for a_idx, amp in enumerate(spec.amplitudes):
        for x_idx, xi in enumerate(spec.xis):
            cell_idx = a_idx * n_x + x_idx
            jitter, gain_factor = np.array(
                [spec.perturb.draw(_trial_rng(spec.seed, cell_idx, trial))
                 for trial in range(n_t)]).T
            cell_gamma0, cell_gains, cell_offsets, chain = _trial_lanes(
                spec.gait_for(amp, xi), spec.morphology, spec.mode,
                math.pi + jitter, gain_factor)
            gamma0.append(cell_gamma0)
            gains.append(cell_gains)
            offsets.append(cell_offsets)

    dt = (TWO_PI / spec.drive_frequency) / spec.steps_per_cycle
    n_intervals = spec.cycles_per_trial * spec.steps_per_cycle
    marks, _, failures = _integrate(
        landscape.denergy, np.concatenate(gains), np.concatenate(gamma0),
        spec.drive_frequency, dt, n_intervals, spec.mu,
        phase_offsets=np.concatenate(offsets), kappa=spec.kappa, chain=chain,
        steps_per_cycle=spec.steps_per_cycle, record_full=False)
    rolls = ((marks[-1] - marks[0]).reshape(-1, chain).mean(axis=1)
             / (TWO_PI * spec.cycles_per_trial))
    trial_rolls = rolls.reshape(n_a, n_x, n_t)

    errors: list[str] = []
    if failures:
        import logging  # loaded only here: importing it adds to start-up
        for trial_idx, reason in sorted(failures.items()):
            cell_idx, trial = divmod(trial_idx, n_t)
            a_idx, x_idx = divmod(cell_idx, n_x)
            errors.append(f"cell({a_idx},{x_idx}) trial {trial}: {reason}")
            logging.getLogger("selfright").warning("%s", errors[-1])
    p_sr = np.array([[np.nan if np.isnan(cell).any() else estimate_psr(cell)
                      for cell in row] for row in trial_rolls])
    return BehaviorDiagram(amplitudes=np.asarray(spec.amplitudes),
                           xis=np.asarray(spec.xis),
                           trial_rolls=trial_rolls, p_sr=p_sr,
                           errors=tuple(errors), spec=spec)


def _fmt(x: float) -> str:
    return format(x, ".17g")


def write_diagram_csv(diagram: BehaviorDiagram, path, meta: dict) -> None:
    """One row per trial plus a summary row per cell.

    Trial rows leave p_sr empty; the summary row (trial column 'summary')
    carries the cell's mean rolls per cycle and P_sr.
    """
    lines = ["# " + " ".join(f"{k}={v}" for k, v in sorted(meta.items()))]
    lines.append("A_rad,xi,trial,rolls_per_cycle,p_sr")
    mean_rolls = diagram.mean_rolls
    for a_idx, amp in enumerate(diagram.amplitudes):
        for x_idx, xi in enumerate(diagram.xis):
            for trial in range(diagram.trial_rolls.shape[2]):
                rolls = diagram.trial_rolls[a_idx, x_idx, trial]
                lines.append(f"{_fmt(amp)},{_fmt(xi)},{trial},{_fmt(rolls)},")
            lines.append(f"{_fmt(amp)},{_fmt(xi)},summary,"
                         f"{_fmt(mean_rolls[a_idx, x_idx])},"
                         f"{_fmt(diagram.p_sr[a_idx, x_idx])}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def diagram_to_dict(diagram: BehaviorDiagram, meta: dict) -> dict:
    spec = diagram.spec
    return {
        "meta": dict(sorted(meta.items())),
        "calibration": {"mu": spec.mu, "kappa": spec.kappa,
                        "drive_frequency": spec.drive_frequency,
                        "steps_per_cycle": spec.steps_per_cycle,
                        "resolution": spec.resolution},
        "protocol": {"trials_per_cell": spec.trials_per_cell,
                     "cycles_per_trial": spec.cycles_per_trial,
                     "seed": spec.seed, "mode": spec.mode},
        "amplitudes": list(diagram.amplitudes),
        "xis": list(diagram.xis),
        "p_sr": [[None if np.isnan(v) else v for v in row]
                 for row in diagram.p_sr],
        "trial_rolls": [[[None if np.isnan(v) else v for v in cell]
                         for cell in row] for row in diagram.trial_rolls],
        "errors": list(diagram.errors),
    }


def write_diagram_json(diagram: BehaviorDiagram, path, meta: dict) -> None:
    with open(path, "w") as fh:
        json.dump(diagram_to_dict(diagram, meta), fh, indent=1, sort_keys=True)
        fh.write("\n")
