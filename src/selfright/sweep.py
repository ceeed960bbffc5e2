"""Behavior-diagram engine: (amplitude x spatial-frequency) sweeps.

Each grid cell runs seeded Monte-Carlo trials of the quasi-static roll
simulation from the inverted pose and reports P_sr, the self-righting
probability estimated as mean roll displacement per cycle over 2*pi.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .config import RollSettings, RunConfig, SidewindSettings
from .errors import ConfigError
from .gait import GaitParams
from .rollmodel import _run_trials
# Kept importable from this module: bench/tracer.py wraps them here.
from .rollmodel import (_integrate, drive_gain,  # noqa: F401
                        energy_landscape, simulate_roll)

# P_sr values this close to an endpoint collapse onto it, so exact-binary
# claims are testable without float fuzz.
ENDPOINT_SNAP = 1e-12


def cell_gait(cfg: RunConfig, amplitude: float, xi: float) -> GaitParams:
    """cfg's gait with both wave amplitudes and the spatial frequency set."""
    return replace(cfg.gait, amplitude_lateral=amplitude,
                   amplitude_vertical=amplitude, spatial_frequency=xi)


def provenance_config(cfg: RunConfig) -> RunConfig:
    """cfg with the settings no sweep reads at their defaults.

    Every cell sets both gait amplitudes and xi; the roll solver reads no
    landscape resolution, and no sweep the lateral wave's phase or the
    sidewinding section. A sweep's outputs hash this config.
    """
    gait = GaitParams()
    return replace(cfg, gait=replace(cell_gait(cfg, gait.amplitude_lateral,
                                               gait.spatial_frequency),
                                     lateral_phase=gait.lateral_phase),
                   roll=replace(cfg.roll,
                                resolution=RollSettings().resolution),
                   sidewinding=SidewindSettings())


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
    config: RunConfig


def estimate_psr(trial_rolls: np.ndarray) -> float | np.ndarray:
    """P_sr of each cell: mean rolls per cycle over the last (trial) axis,
    clamped to [0, 1]; NaN where a trial is NaN. One cell's trials (a 1-D
    array) give a float, a grid of cells an array of their P_sr, each
    bitwise the value its cell gives alone."""
    # Contiguous (and at least 1-D), so the mean sums each cell's trials
    # as one row, pairwise.
    rolls = np.ascontiguousarray(trial_rolls, dtype=float)
    if rolls.shape[-1] == 0:
        raise ConfigError("estimate_psr needs at least one trial")
    p = np.clip(rolls.mean(axis=-1), 0.0, 1.0)
    p = np.where(p > 1.0 - ENDPOINT_SNAP, 1.0,
                 np.where(p < ENDPOINT_SNAP, 0.0, p))
    return float(p) if p.ndim == 0 else p


def binariness(diagram: BehaviorDiagram) -> float:
    """Fraction of cells with P_sr strictly inside (0.2, 0.8)."""
    p = diagram.p_sr
    inside = (p > 0.2) & (p < 0.8)
    return float(np.count_nonzero(inside)) / p.size


def run_sweep(cfg: RunConfig) -> BehaviorDiagram:
    """Run cfg's grid sweep; deterministic for a given config and seed.

    Each cell's gait is cfg.gait with the cell's amplitude and xi
    (cell_gait). Trials start inverted (gamma = pi, plus the seeded
    jitter), and trial t of cell a_idx * len(xis) + x_idx draws from
    stream (seed, cell, t). All trials run through _run_trials as lanes of
    one integration: one lane per lumped trial, one per module for a
    segmented trial. A lane does not depend on its batch mates, so each
    trial equals simulate_roll on the same stream bitwise. A trial that
    fails to integrate reads NaN, as does its cell's P_sr; its error is
    listed in errors and logged to the "selfright" logger. A trial span
    or a lane count over MAX_RESOLUTION is a ConfigError, raised before
    anything is drawn or marched.
    """
    sw, roll = cfg.sweep, cfg.roll
    n_a, n_x, n_t = len(sw.amplitudes), len(sw.xis), sw.trials_per_cell
    gaits = [cell_gait(cfg, amp, xi) for amp in sw.amplitudes
             for xi in sw.xis]
    _, rolls, failures, _ = _run_trials(
        gaits, cfg.morphology, cfg.mode, sw.cycles_per_trial,
        roll.steps_per_cycle, sw.perturbation(),
        (cfg.seed, range(n_a * n_x), range(n_t)), math.pi, roll.mu,
        roll.kappa)
    trial_rolls = rolls.reshape(n_a, n_x, n_t)

    errors: list[str] = []
    if failures:
        import logging  # loaded only here: importing it adds to start-up
        for trial_idx, reason in sorted(failures.items()):
            cell_idx, trial = divmod(trial_idx, n_t)
            a_idx, x_idx = divmod(cell_idx, n_x)
            errors.append(f"cell({a_idx},{x_idx}) trial {trial}: {reason}")
            logging.getLogger("selfright").warning("%s", errors[-1])
    return BehaviorDiagram(amplitudes=np.asarray(sw.amplitudes),
                           xis=np.asarray(sw.xis),
                           trial_rolls=trial_rolls,
                           p_sr=estimate_psr(trial_rolls),
                           errors=tuple(errors), config=cfg)

