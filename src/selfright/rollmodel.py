"""Roll-angle energy landscape and quasi-static roll integration.

The body's transverse silhouette determines a potential energy U(gamma)
over the roll angle; static legs carve two wells (upright and inverted)
separated by a barrier. Gait waves apply a phase-tracking drive torque.
Quasi-static integration (first order, no inertia) turns commanded roll
phases into roll trajectories, in a lumped mode (one shared gamma) or a
segmented mode (per-module gamma with torsional neighbor coupling).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, GeometryError, IntegrationError
from .gait import TWO_PI, GaitParams, coherence
from .kinematics import Morphology, wave_height_slope

GRAVITY = 9.80665

# Mobility of the quasi-static roll dynamics, rad/s per N*m.
MU_DEFAULT = 5.0

# Torsional neighbor coupling for segmented mode, N*m/rad. Stiff enough to
# keep neighbor phases coherent, soft enough for the per-interval marching
# to converge; much stiffer couplings make the substep control thrash.
KAPPA_DEFAULT = 0.05

# Dimensionless calibration of the drive gain, fixed once so that the
# legged one-shot boundary falls between A = pi/8 and A = pi/6.
DRIVE_CALIBRATION = 0.5

# Drive frequency (rad/s) for simulation contexts. The model is
# quasi-static, so results depend on gait phase, not on wall-clock rate;
# keep the frequency well above the stall-rate threshold.
QUASI_STATIC_OMEGA = 1e-3

STEPS_PER_CYCLE = 256
MIN_STEPS_PER_CYCLE = 200

# Stall rule: commanded roll rate below this for a quarter of a cycle's
# worth of consecutive output intervals marks the trial stalled.
STALL_RATE = 1e-4

# Substep marching constants. CAP bounds the roll advance of a single
# substep; a sign flip of the rate halves the working cap, two calm
# substeps grow it again. CAP_KICK re-arms parked lanes at interval start
# without polluting the stall signal. MOVE_FLOOR treats sub-nanoradian
# substeps as equilibrated so flat landscapes cost one substep.
CAP = math.pi / 128
CAP_KICK = CAP / 64
MOVE_FLOOR = 1e-9
SUBSTEP_GUARD = 8192

DEFAULT_RESOLUTION = 1024


@dataclass(frozen=True)
class EnergyLandscape:
    """Sampled potential energy over one roll revolution.

    energy and denergy are sampled on gamma_samples, a uniform grid on
    [0, 2*pi). minima holds the roll angles of the stable configurations;
    barrier is the highest rise of U along the easier rolling path from
    gamma = pi back to gamma = 0.
    """

    gamma_samples: np.ndarray
    energy: np.ndarray
    denergy: np.ndarray
    minima: tuple[float, ...]
    barrier: float

    @property
    def resolution(self) -> int:
        return len(self.gamma_samples)

    @staticmethod
    def from_energy(gamma_samples: np.ndarray, energy: np.ndarray) -> "EnergyLandscape":
        """Build a landscape from raw samples (synthetic landscapes, tests)."""
        gamma_samples = np.asarray(gamma_samples, dtype=float)
        energy = np.asarray(energy, dtype=float)
        if gamma_samples.shape != energy.shape or gamma_samples.ndim != 1:
            raise ConfigError("gamma_samples and energy must be equal-length vectors")
        res = len(gamma_samples)
        denergy = (np.roll(energy, -1) - np.roll(energy, 1)) * (res / (2.0 * TWO_PI))
        minima = _find_minima(energy)
        barrier = _path_barrier(energy)
        return EnergyLandscape(gamma_samples=gamma_samples, energy=energy,
                               denergy=denergy,
                               minima=tuple(gamma_samples[i] for i in minima),
                               barrier=barrier)


def _find_minima(energy: np.ndarray) -> list[int]:
    """Indices of strict local minima, plateau-aware and circular.

    Equal-valued runs count as one candidate; a run is a minimum when both
    neighboring runs sit strictly higher. Flat landscapes have no minima.
    """
    res = len(energy)
    span = float(energy.max() - energy.min())
    if span <= 0.0:
        return []
    tol = 1e-9 * span

    # Group circularly into runs of (near-)equal value.
    runs: list[list[int]] = []
    start = 0
    # Rotate so index 0 starts a fresh run, keeping the wrap-around plateau whole.
    while start < res and abs(energy[start - 1] - energy[start]) <= tol:
        start += 1
    if start == res:
        return []
    order = [(start + k) % res for k in range(res)]
    current = [order[0]]
    for idx in order[1:]:
        if abs(energy[idx] - energy[current[0]]) <= tol:
            current.append(idx)
        else:
            runs.append(current)
            current = [idx]
    runs.append(current)

    minima: list[int] = []
    for k, run in enumerate(runs):
        prev_val = energy[runs[k - 1][0]]
        next_val = energy[runs[(k + 1) % len(runs)][0]]
        val = energy[run[0]]
        if val < prev_val - tol and val < next_val - tol:
            minima.append(run[len(run) // 2])
    return sorted(minima)


def _path_barrier(energy: np.ndarray) -> float:
    """Highest rise of U - U(pi) along the easier path from pi to 0."""
    res = len(energy)
    mid = res // 2
    u_pi = energy[mid]
    down_path = energy[:mid + 1]          # gamma decreasing pi -> 0
    up_path = energy[mid:]                # gamma increasing pi -> 2*pi (= 0)
    barrier = min(float(down_path.max()), float(up_path.max())) - float(u_pi)
    return max(barrier, 0.0)


def support_height(morph: Morphology, gamma: np.ndarray | float) -> np.ndarray | float:
    """Height of the section axis above the floor when resting at roll gamma.

    The silhouette rests on whichever point reaches lowest: the disc bottom
    (always r) or a leg tip once it swings below the disc.
    """
    if morph.body_radius <= 0:
        raise GeometryError("body_radius must be positive")
    r = morph.body_radius
    if morph.leg_length <= 0:
        if np.isscalar(gamma):
            return r
        return np.full_like(np.asarray(gamma, dtype=float), r)
    tip = r + morph.leg_length
    a = morph.leg_angle
    g = np.asarray(gamma, dtype=float)
    tip1_y = tip * np.sin(g - a)
    tip2_y = -tip * np.sin(g + a)
    h = np.maximum(r, np.maximum(-tip1_y, -tip2_y))
    return float(h) if np.isscalar(gamma) else h


def energy_landscape(morph: Morphology, resolution: int = DEFAULT_RESOLUTION) -> EnergyLandscape:
    """Potential energy of the whole body over one roll revolution.

    U(gamma) = M*m*g*h(gamma) with h the axis height of the resting
    silhouette; module mass is lumped on the axis (the thin legs carry no
    modeled mass), so the axis height is the center-of-mass height.
    """
    if resolution < 64:
        raise ConfigError("landscape resolution must be >= 64")
    gamma = np.arange(resolution) * (TWO_PI / resolution)
    height = support_height(morph, gamma)
    energy = morph.total_mass * GRAVITY * np.asarray(height, dtype=float)
    return EnergyLandscape.from_energy(gamma, energy)


def stable_configurations(landscape: EnergyLandscape) -> list[float]:
    """Roll angles of the landscape's strict local minima, sorted ascending."""
    idx = _find_minima(landscape.energy)
    return sorted(float(landscape.gamma_samples[i]) for i in idx)


@functools.lru_cache(maxsize=32)
def _cached_slope(morph: Morphology, n_lat: int) -> float:
    return wave_height_slope(morph, n_lat)


def _drive_gain_base(params: GaitParams, morph: Morphology) -> float:
    """Drive gain without the coherence factor.

    Proportional to the vertical wave's lifting moment: linearized wave
    height times half the body weight.
    """
    if params.amplitude_vertical == 0.0:
        return 0.0
    slope = _cached_slope(morph, params.num_lateral_joints)
    return (morph.total_mass * GRAVITY
            * (slope * params.amplitude_vertical / 2.0)
            * DRIVE_CALIBRATION)


def drive_gain(params: GaitParams, morph: Morphology) -> float:
    """Peak drive torque G of the phase-tracking roll drive.

    The coherence-free gain times the phase coherence of the staggered
    segment commands.
    """
    return (_drive_gain_base(params, morph)
            * coherence(params.spatial_frequency, params.num_lateral_joints))


def roll_drive(params: GaitParams, morph: Morphology, t: float, gamma: float) -> float:
    """Drive torque at time t and roll gamma: G*sin(phi_cmd(t) - gamma)."""
    g = drive_gain(params, morph)
    return g * math.sin(params.temporal_frequency * t - gamma)


@dataclass(frozen=True)
class PerturbationSpec:
    """Seeded trial-to-trial variability: initial-roll jitter and gain noise."""

    gamma_jitter: float = 0.2
    gain_noise: float = 0.1

    @staticmethod
    def none() -> "PerturbationSpec":
        return PerturbationSpec(gamma_jitter=0.0, gain_noise=0.0)

    def draw(self, rng: np.random.Generator | None) -> tuple[float, float]:
        """One trial's initial-roll jitter and drive-gain factor.

        The jitter is drawn first, then the gain noise, each uniform in
        +-width. A zero width draws nothing, so an all-zero spec needs no
        rng and a zero jitter leaves the gain draw first in the stream.
        """
        def uniform(width: float) -> float:
            if width <= 0:
                return 0.0
            if rng is None:
                raise ConfigError("perturbation requires an explicit rng")
            return rng.uniform(-width, width)

        return uniform(self.gamma_jitter), 1.0 + uniform(self.gain_noise)


@dataclass(frozen=True)
class RollState:
    """Roll angle (unwrapped, accumulating over revolutions) at a time."""

    gamma: float | np.ndarray
    time: float = 0.0


@dataclass(frozen=True)
class RollTrajectory:
    """Recorded roll trajectory of one trial.

    gammas has shape (steps+1,) in lumped mode or (steps+1, M) in
    segmented mode. delta_gamma_per_cycle averages over modules in
    segmented mode; its length is the number of completed full cycles.
    """

    times: np.ndarray
    gammas: np.ndarray
    cycles: float
    delta_gamma_per_cycle: np.ndarray
    stalled: bool
    mode: str

    @property
    def states(self) -> list[RollState]:
        return [RollState(gamma=g if np.ndim(g) else float(g), time=float(t))
                for t, g in zip(self.times, self.gammas)]

    @property
    def delta_gamma_total(self) -> float:
        start = self.gammas[0]
        end = self.gammas[-1]
        return float(np.mean(end - start))


@dataclass(frozen=True)
class TrialOutcome:
    self_righted: bool
    rolls_per_cycle: float
    stalled: bool


def _slope_at(denergy: np.ndarray, gamma: np.ndarray) -> np.ndarray:
    """Linear interpolation of the landscape slope at unwrapped angles."""
    res = len(denergy)
    x = gamma * (res / TWO_PI)
    floor = np.floor(x)
    i0 = floor.astype(np.int64)
    frac = x - floor
    lo = denergy.take(i0, mode="wrap")
    hi = denergy.take(i0 + 1, mode="wrap")
    return lo * (1.0 - frac) + hi * frac


def _march_interval(gam: np.ndarray, cap_cur: np.ndarray, lanes: np.ndarray,
                    phi1: np.ndarray, gains: np.ndarray, bias: np.ndarray,
                    denergy: np.ndarray, mu: float, dt_len: float
                    ) -> dict[int, str]:
    """Advance the lanes listed in `lanes` through one output interval.

    Lanes march independently with adaptive substeps: each substep moves
    at the current rate, bounded by the working cap and clipped so gamma
    never advances past the interval-end command phase. An interval ends
    for a lane when its time is consumed, it rides the command clip, or
    it has equilibrated; the lane then leaves the working set, so its
    state and cap stop changing and no lane depends on its batch mates.

    gam, cap_cur, phi1, gains and bias (the coupling torque) hold every
    lane; gam and cap_cur are updated in place. Returns the lanes that
    failed (substep guard exhausted, or a non-finite state) with the
    reason.
    """
    failures: dict[int, str] = {}
    g, phi, gain, bias = gam[lanes], phi1[lanes], gains[lanes], bias[lanes]
    cap = np.clip(cap_cur[lanes], CAP_KICK, CAP)
    remaining = np.full(len(lanes), dt_len)
    prev_sign = calm = np.zeros(len(lanes))  # rebound below, not written
    for _ in range(SUBSTEP_GUARD):
        if not lanes.size:
            break
        rate = mu * (gain * np.sin(phi - g) - _slope_at(denergy, g) + bias)
        sign = np.sign(rate)
        flip = (sign * prev_sign) < 0
        calm = np.where(flip, 0.0, calm + 1)
        cap = np.where(flip, cap * 0.5,
                       np.where(calm >= 2, np.minimum(CAP, cap * 1.5), cap))
        prev_sign = sign
        # A zero rate takes the whole remaining time and does not move.
        dt_sub = np.minimum(remaining,
                            cap / np.maximum(np.abs(rate), 1e-300))
        proposed = g + rate * dt_sub
        hi = np.maximum(g, phi)
        clipped = proposed > hi
        new = np.where(clipped, hi, proposed)
        done = clipped | (np.abs(new - g) < MOVE_FLOOR)
        g = new
        remaining = np.where(done, 0.0, remaining - dt_sub)
        finite = np.isfinite(g)
        going = (remaining > 0) & finite
        if not going.all():
            gam[lanes], cap_cur[lanes] = g, cap
            if not finite.all():
                failures.update(dict.fromkeys(lanes[~finite].tolist(),
                                              "non-finite roll state"))
            if not going.any():
                break
            lanes, g, phi, gain, bias, cap, remaining, prev_sign, calm = (
                a[going] for a in (lanes, g, phi, gain, bias, cap, remaining,
                                   prev_sign, calm))
    else:
        gam[lanes], cap_cur[lanes] = g, cap
        failures.update(dict.fromkeys(lanes.tolist(),
                                      "substep budget exceeded"))
    return failures


def _integrate(denergy: np.ndarray, gains: np.ndarray, gamma0: np.ndarray,
               omega: float, dt: float, n_intervals: int, mu: float,
               phase_offsets: np.ndarray,
               kappa: float = 0.0,
               chain: int = 1,
               steps_per_cycle: int = STEPS_PER_CYCLE,
               record_full: bool = True):
    """March all lanes through n_intervals output intervals.

    Lanes come in consecutive chains of `chain` lanes, one chain per
    trial. Command phase per lane: gamma0 + omega*t - phase_offset,
    referenced to each lane's initial roll. With chain > 1 and kappa > 0
    each chain is torsionally coupled: the spring acts per module pair,
    so its specific effect on a lane is kappa*chain. The coupling bias is
    frozen over each interval (operator splitting), which keeps
    identical-state chains exactly equal to the lumped trajectory.

    A lane's result depends on its own chain only. A lane that exhausts
    the substep guard or turns non-finite fails its whole chain: the
    chain stops marching and reads NaN from that interval on.

    Returns (records, stalled, failures): records holds lane states at
    every interval boundary when record_full, else only at whole-cycle
    boundaries; failures maps each failed chain's index to the error of
    its first failed lane.
    """
    lanes = len(gamma0)
    gam = np.asarray(gamma0, dtype=float).copy()
    cap_cur = np.full(lanes, CAP)
    quiet = np.zeros(lanes, dtype=int)
    quiet_needed = max(1, steps_per_cycle // 4)
    stalled = np.zeros(lanes, dtype=bool)
    live = np.arange(lanes)
    dead = np.zeros(lanes // chain, dtype=bool)
    failures: dict[int, str] = {}

    if record_full:
        records = np.empty((n_intervals + 1, lanes))
    else:
        n_marks = n_intervals // steps_per_cycle
        records = np.empty((n_marks + 1, lanes))
    records[0] = gam

    gamma_ref = gam.copy()
    bias = np.zeros(lanes)
    for n in range(n_intervals):
        phi1 = gamma_ref + omega * (n + 1) * dt - phase_offsets
        if kappa > 0.0 and chain > 1:
            g = gam.reshape(-1, chain)
            lap = np.empty_like(g)
            lap[:, 1:-1] = g[:, :-2] - 2.0 * g[:, 1:-1] + g[:, 2:]
            lap[:, 0] = g[:, 1] - g[:, 0]
            lap[:, -1] = g[:, -2] - g[:, -1]
            bias = (kappa * chain) * lap.ravel()

        before = gam.copy()
        failed = _march_interval(gam, cap_cur, live, phi1, gains, bias,
                                 denergy, mu, dt)
        if failed:
            for lane, reason in sorted(failed.items()):
                failures.setdefault(lane // chain,
                                    f"{reason} in output interval {n}")
            dead[list(failures)] = True
            gam[np.repeat(dead, chain)] = np.nan
            live = np.flatnonzero(~np.repeat(dead, chain))

        interval_rate = np.abs(gam - before) / dt
        quiet = np.where(interval_rate < STALL_RATE, quiet + 1, 0)
        stalled |= quiet >= quiet_needed

        if record_full:
            records[n + 1] = gam
        elif (n + 1) % steps_per_cycle == 0:
            records[(n + 1) // steps_per_cycle] = gam
    return records, stalled, failures


def _trial_lanes(params: GaitParams, morph: Morphology, mode: str,
                 gamma_starts, gain_factors
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Lanes of trials that share one gait, ready for _integrate.

    gamma_starts and gain_factors hold one value per trial. Returns the
    per-lane initial roll, drive gain and command phase offset, and the
    chain length: one lane per lumped trial, one per module for a
    segmented trial.
    """
    gamma_starts = np.asarray(gamma_starts, dtype=float)
    gain_factors = np.asarray(gain_factors, dtype=float)
    if mode == "lumped":
        return (gamma_starts, drive_gain(params, morph) * gain_factors,
                np.zeros(len(gamma_starts)), 1)
    # Each lane runs the body's specific dynamics at its own staggered
    # phase: drive and slope stay whole-body (per-module torque and
    # inertia scale down together, so the specific rate is unchanged),
    # which makes an in-phase chain reduce to the lumped trajectory
    # bitwise. No coherence factor here, the stagger is explicit.
    m = morph.num_modules
    offsets = TWO_PI * params.spatial_frequency * np.arange(m) / (m - 1)
    return (np.repeat(gamma_starts, m),
            np.repeat(_drive_gain_base(params, morph) * gain_factors, m),
            np.tile(offsets, len(gamma_starts)), m)


def simulate_roll(params: GaitParams, morph: Morphology, cycles: float = 1.0,
                  init: RollState | None = None,
                  perturb: PerturbationSpec | None = None,
                  mode: str = "lumped",
                  rng: np.random.Generator | None = None,
                  *,
                  mu: float = MU_DEFAULT,
                  kappa: float = KAPPA_DEFAULT,
                  steps_per_cycle: int = STEPS_PER_CYCLE,
                  resolution: int = DEFAULT_RESOLUTION,
                  landscape: EnergyLandscape | None = None) -> RollTrajectory:
    """Integrate the quasi-static roll response to the commanded gait.

    The commanded roll phase ramps from the trial's initial roll:
    phi_cmd(t) = gamma_start + omega*t. Fractional cycles are allowed
    (a half cycle is the one-shot righting maneuver); per-cycle roll
    displacements are reported for completed full cycles.

    Segmented mode evolves one roll angle per module, staggering each
    module's command phase across the body by the gait's total phase span
    and coupling neighbors with a torsional spring kappa. Raises
    IntegrationError when any module fails to integrate.
    """
    if cycles <= 0:
        raise ConfigError("cycles must be positive")
    if steps_per_cycle < MIN_STEPS_PER_CYCLE:
        raise ConfigError(f"steps_per_cycle must be >= {MIN_STEPS_PER_CYCLE}")
    if mode not in ("lumped", "segmented"):
        raise ConfigError(f"unknown mode {mode!r}")

    if landscape is None:
        landscape = energy_landscape(morph, resolution)
    if init is None:
        init = RollState(gamma=0.0, time=0.0)

    jitter, gain_factor = (perturb or PerturbationSpec.none()).draw(rng)
    gamma0, gains, offsets, chain = _trial_lanes(
        params, morph, mode, [float(np.mean(init.gamma)) + jitter],
        [gain_factor])
    if mode == "segmented" and np.ndim(init.gamma) == 1:
        gamma0 = np.asarray(init.gamma, dtype=float).copy()
        if len(gamma0) != chain:
            raise ConfigError("segmented init needs one gamma per module")

    dt = (TWO_PI / params.temporal_frequency) / steps_per_cycle
    n_intervals = max(1, round(cycles * steps_per_cycle))
    records, stalled, failures = _integrate(
        landscape.denergy, gains, gamma0, params.temporal_frequency, dt,
        n_intervals, mu, phase_offsets=offsets, kappa=kappa, chain=chain,
        steps_per_cycle=steps_per_cycle, record_full=True)
    if failures:
        raise IntegrationError(failures[0])

    times = init.time + dt * np.arange(n_intervals + 1)
    full_cycles = int(n_intervals // steps_per_cycle)
    marks = records[::steps_per_cycle][:full_cycles + 1]
    per_cycle = np.diff(marks.mean(axis=1))

    gammas = records[:, 0] if mode == "lumped" else records
    # A segmented body counts as stalled only when every module went quiet.
    return RollTrajectory(times=times, gammas=gammas, cycles=cycles,
                          delta_gamma_per_cycle=per_cycle,
                          stalled=bool(stalled.all()), mode=mode)


def classify_trial(traj: RollTrajectory) -> TrialOutcome:
    """Outcome of one trial: righting success and mean rolls per cycle."""
    if len(traj.delta_gamma_per_cycle) > 0:
        mean_delta = float(np.mean(traj.delta_gamma_per_cycle))
    else:
        mean_delta = traj.delta_gamma_total / traj.cycles
    return TrialOutcome(self_righted=mean_delta >= math.pi,
                        rolls_per_cycle=mean_delta / TWO_PI,
                        stalled=traj.stalled)
