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

from .errors import ConfigError, IntegrationError
from .gait import MAX_RESOLUTION, TWO_PI, GaitParams, coherence
from .kinematics import GRAVITY, Morphology, cross_section, wave_height_slope

# Mobility of the quasi-static roll dynamics, rad/s per N*m.
MU_DEFAULT = 5.0

# Torsional neighbor coupling for segmented mode, N*m/rad. Weak: on the
# default sweep grid every cell that is finite at this value lies within
# 0.0124 of its value at kappa = 0, and the modules right in the order of
# their command stagger. Much stiffer couplings, held fixed over an output
# interval, leave staggered lanes no root and roll them a whole turn.
KAPPA_DEFAULT = 0.05

# Dimensionless calibration of the drive gain, fixed once so that the
# legged one-shot boundary falls between A = pi/8 and A = pi/6.
DRIVE_CALIBRATION = 0.5

STEPS_PER_CYCLE = 256
MIN_STEPS_PER_CYCLE = 200

# Stall rule: a roll below this fraction of the command step omega*dt in
# each of a quarter cycle's consecutive output intervals marks the trial
# stalled.
STALL_STEP = 0.1

DEFAULT_RESOLUTION = 1024
# Largest (output intervals + 1) x lanes a trial records at every interval
# (simulate_roll): 128 MB of roll states. It admits the span cap on the
# default 10-module segmented body.
MAX_RECORDS = 16 * MAX_RESOLUTION


@dataclass(frozen=True)
class EnergyLandscape:
    """Potential energy over one roll revolution.

    energy and denergy are sampled on gamma_samples, a uniform grid on
    [0, 2*pi). minima (sorted, in [0, 2*pi)) holds the roll angles of the
    stable configurations and barrier the highest rise of U along the
    easier rolling path from gamma = pi back to gamma = 0; both are read
    off the piece table, so they do not depend on the sampling.
    """

    gamma_samples: np.ndarray
    energy: np.ndarray
    denergy: np.ndarray
    minima: tuple[float, ...]
    barrier: float

    @property
    def resolution(self) -> int:
        return len(self.gamma_samples)


def _support_lines(morph: Morphology) -> np.ndarray:
    """Support candidates as rows (p, q, h0), each at height
    p*cos(gamma) + q*sin(gamma) + h0: the disc bottom at r, then one row
    per leg tip (y, z) of the cross-section. Rolled by gamma, a tip sits
    y*sin(gamma) + z*cos(gamma) above the axis, so resting on it puts the
    axis at minus that."""
    r, tips = cross_section(morph)
    return np.array([(0.0, 0.0, r)] + [(-z, -y, 0.0) for y, z in tips])


def _heights(lines: np.ndarray, gamma) -> np.ndarray:
    return np.array([p * np.cos(gamma) + q * np.sin(gamma) + h0
                     for p, q, h0 in lines])


def support_height(morph: Morphology, gamma: np.ndarray | float) -> np.ndarray | float:
    """Height of the section axis above the floor when resting at roll gamma.

    The silhouette rests on whichever point reaches lowest: the disc bottom
    (always r) or a leg tip once it swings below the disc.
    """
    h = _heights(_support_lines(morph), np.asarray(gamma, dtype=float)).max(0)
    return float(h) if np.isscalar(gamma) else h


@functools.lru_cache(maxsize=32)
def support_pieces(morph: Morphology) -> tuple[np.ndarray, np.ndarray]:
    """Kinks and slopes of the potential U = M*m*g*support_height.

    On each piece where one support candidate is the max,
    U' = c*cos(gamma) + s*sin(gamma). Returns (edges, slopes): edges holds
    the kinks of one turn, sorted in [0, 2*pi), after the last one a turn
    down (-inf, inf without kinks); slopes[j] is (c, s) between edges[j]
    and edges[j + 1], repeating every turn.
    """
    lines = _support_lines(morph)
    edges = np.array([-np.inf, np.inf])
    if len(lines) > 1:
        # Each tip stands level with the disc at two angles, the two tips
        # with each other at 0 and pi. (sorted(set()), not np.unique, whose
        # first call imports numpy.ma: 15-30 ms of start-up.)
        r, a = morph.body_radius, morph.leg_angle
        s = math.asin(r / (r + morph.leg_length))
        cuts = np.array(sorted(set(np.mod([a - s, a + math.pi + s, s - a,
                                           math.pi - s - a, 0.0, math.pi],
                                          TWO_PI).tolist())))
        top = _heights(lines, (cuts + np.append(cuts[1:], cuts[0] + TWO_PI))
                       / 2.0).argmax(0)
        kink = top != np.roll(top, 1)
        if kink.any():
            edges = np.append(cuts[kink][-1] - TWO_PI, cuts[kink])
            lines = lines[np.roll(top[kink], 1)]
        else:  # legs too short to reach below the disc in floats
            lines = lines[:1]
    weight = morph.total_mass * GRAVITY
    slopes = weight * np.column_stack([lines[:, 1], -lines[:, 0]])
    edges.flags.writeable = slopes.flags.writeable = False  # cached
    return edges, slopes


def _tops(edges: np.ndarray, slopes: np.ndarray) -> np.ndarray:
    """Local maxima of U on a piece table: each piece's U'' < 0 root of U',
    if inside the piece. U is a max of sinusoids, so every kink is convex
    and none is a maximum; a flat piece (every kink-free table) has none."""
    if np.isinf(edges[0]):
        return np.empty(0)
    lo, hi = edges[:-1], edges[1:]
    c, s = slopes.T
    top = lo + np.mod(np.arctan2(s, c) + math.pi / 2.0 - lo, TWO_PI)
    return top[((c != 0.0) | (s != 0.0)) & (top < hi)]


def _wells(morph: Morphology) -> tuple[tuple[float, ...], float]:
    """Minima and barrier of U, read off the piece table.

    U is a max of sinusoids, so every kink is convex: a minimum is the
    middle of a flat piece, a piece's interior root of U' with U'' > 0, or
    a kink where U' turns from negative to positive. On each path from pi
    to 0, U peaks at a kink, at a piece's interior maximum or at an end.
    """
    edges, slopes = support_pieces(morph)
    if np.isinf(edges[0]):
        return (), 0.0  # a limbless body: one flat piece
    lo, hi = edges[:-1], edges[1:]
    c, s = slopes.T
    flat = (c == 0.0) & (s == 0.0)
    # U'' > 0 half a turn before the top (_tops), if inside the piece.
    bottom = lo + np.mod(np.arctan2(s, c) - math.pi / 2.0 - lo, TWO_PI)
    # U' just below and just above each kink lo.
    left = np.roll(c * np.cos(hi) + s * np.sin(hi), 1)
    right = c * np.cos(lo) + s * np.sin(lo)

    def turn(g):
        # Kinks are reduced mod 2*pi, so a flat piece straddling 0 can put
        # its middle a rounding below 0. Adding a turn first folds that
        # onto 0 (np.mod of a tiny negative would give 2*pi itself).
        return np.mod(g + TWO_PI, TWO_PI)

    minima = np.sort(turn(np.concatenate([
        (lo + hi)[flat] / 2.0, bottom[~flat & (bottom < hi)],
        lo[(left < 0.0) & (right > 0.0)]])))
    peaks = np.append(turn(np.append(lo, _tops(edges, slopes))),
                      [0.0, math.pi])
    u = morph.total_mass * GRAVITY * support_height(morph, peaks)
    down = u[peaks <= math.pi].max()
    up = u[(peaks >= math.pi) | (peaks == 0.0)].max()
    return tuple(minima.tolist()), float(min(down, up) - u[-1])


def energy_landscape(morph: Morphology, resolution: int = DEFAULT_RESOLUTION) -> EnergyLandscape:
    """Potential energy of the whole body over one roll revolution.

    U(gamma) = M*m*g*h(gamma) with h the axis height of the resting
    silhouette; module mass is lumped on the axis (the thin legs carry no
    modeled mass), so the axis height is the center-of-mass height.
    resolution only sets the samples: energy, and denergy as U' of the
    support piece each sample lies on (at a kink, of the piece that
    starts there). Minima and barrier come from the piece table.
    """
    if not 64 <= resolution <= MAX_RESOLUTION:
        raise ConfigError(
            f"landscape resolution must be in [64, {MAX_RESOLUTION}]")
    gamma = np.arange(resolution) * (TWO_PI / resolution)
    height = support_height(morph, gamma)
    energy = morph.total_mass * GRAVITY * np.asarray(height, dtype=float)
    edges, slopes = support_pieces(morph)
    c, s = slopes[np.searchsorted(edges[1:], gamma, side="right")
                  % len(slopes)].T
    minima, barrier = _wells(morph)
    # + 0.0 reports a flat piece's -0.0 products as 0.0.
    return EnergyLandscape(gamma_samples=gamma, energy=energy,
                           denergy=c * np.cos(gamma) + s * np.sin(gamma) + 0.0,
                           minima=minima, barrier=barrier)


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


@dataclass(frozen=True)
class PerturbationSpec:
    """Seeded trial-to-trial variability: initial-roll jitter and gain noise."""

    gamma_jitter: float = 0.2
    gain_noise: float = 0.1

    def __post_init__(self) -> None:
        # A draw spans 2 * width, which must stay finite.
        if not (0 <= 2 * self.gamma_jitter < math.inf
                and 0 <= 2 * self.gain_noise < math.inf):
            raise ConfigError("gamma_jitter and gain_noise must be >= 0, "
                              "with 2 * width finite")

    def draw_trials(self, seed: int | None, cells, trials
                    ) -> tuple[np.ndarray, np.ndarray]:
        """Initial-roll jitter and drive-gain factor of every trial
        (cell, t), cell in cells and t in trials, in one array pass.

        Element [i, j] of each (len(cells), len(trials)) array is drawn,
        bitwise, from trial (cells[i], trials[j])'s own stream,
        Generator(PCG64(SeedSequence(entropy=seed, spawn_key=(cell, t)))),
        run as array arithmetic (selfright.streams): the jitter first, then
        the gain noise, each Generator.uniform in +-width. A zero width
        draws nothing, so a zero jitter leaves the gain draw first in the
        stream and an all-zero spec needs no seed (None).
        """
        n_draws = (self.gamma_jitter > 0) + (self.gain_noise > 0)
        doubles = iter(())
        if n_draws:
            if seed is None:
                raise ConfigError("perturbation requires an explicit stream")
            # Imported only here: loading it would add to every start-up.
            from .streams import spawned_doubles
            doubles = iter(spawned_doubles(seed, cells, trials, n_draws))

        def uniform(width: float) -> np.ndarray:
            if width == 0:
                return np.zeros((len(cells), len(trials)))
            # Generator.uniform(low, high): low + (high - low) * double
            return -width + (width - -width) * next(doubles)

        return uniform(self.gamma_jitter), 1.0 + uniform(self.gain_noise)


@dataclass(frozen=True)
class RollTrajectory:
    """Recorded roll trajectory of one trial.

    gammas has shape (steps+1,) in lumped mode or (steps+1, M) in
    segmented mode. cycles is the span integrated, in whole output
    intervals, and rolls_per_cycle the trial's roll over it in turns per
    cycle, averaged over modules: the figure a sweep reports per trial.
    righting_intervals holds per module (one in lumped mode) the first
    output interval n >= 1 that ends past the first local maximum of U
    strictly above its start; None if none does, or U has no maximum.
    """

    times: np.ndarray
    gammas: np.ndarray
    cycles: float
    rolls_per_cycle: float
    stalled: bool
    mode: str
    righting_intervals: tuple[int | None, ...]

    @property
    def delta_gamma_total(self) -> float:
        start = self.gammas[0]
        end = self.gammas[-1]
        return float(np.mean(end - start))

    @property
    def self_righted(self) -> bool:
        """At least half a turn per cycle: the trial left its well."""
        return self.rolls_per_cycle >= 0.5


def _angle_terms(g, phi, gain, bias):
    """The parts of the rate at g that no piece changes: sin(g), cos(g),
    the drive b + G*sin(phi - g) and its -d/dg, G*cos(phi - g). With no
    bias (None) the drive is G*sin(phi - g)."""
    lag = phi - g
    drive = gain * np.sin(lag)
    if bias is not None:
        drive = bias + drive
    return np.sin(g), np.cos(g), drive, gain * np.cos(lag)


def _rate(terms, c, s):
    """Specific roll rate r = b + G*sin(phi - g) - U'(g) from the angle
    terms, with U'(g) = c*cos(g) + s*sin(g) on each lane's piece."""
    sin_g, cos_g, drive, _ = terms
    return drive - c * cos_g - s * sin_g


def _rates(terms, c, s):
    """The rate r and its -dr/dg on the pieces (c, s)."""
    sin_g, cos_g, _, pull = terms
    return _rate(terms, c, s), pull - c * sin_g + s * cos_g


def _flat_factors(gain, bias, tau: float):
    """The factors of the flat solve that depend on the gain G, the bias b
    and tau alone: (cf + a, cf - a, sf, 2*G, whole) with a = sf*G, from
    k**2 = G**2 - b**2 (_march_interval). a is tanh(k*tau)*(G/k) for a
    locked lane, so that without bias (None, computed as b = 0) G/k is
    +-1 and a is +-1 wherever tanh(k*tau) is: the repeller's cf - a is
    then exactly 0. whole marks the drifting lanes with k*tau >= pi (None
    if there are none)."""
    k2 = gain * gain if bias is None else gain * gain - bias * bias
    k = np.sqrt(np.abs(k2))
    kt = k * tau
    sf, cf, whole = np.tanh(kt), 1.0, None
    if bias is not None:
        drift = k2 < 0
        if np.count_nonzero(drift):
            sf = np.where(drift, np.sin(kt), sf)
            cf = np.where(drift, np.cos(kt), 1.0)
            whole = drift & (kt >= math.pi)
    zero = k2 == 0
    a = np.where(zero, tau * gain, sf * (gain / k))
    return cf + a, cf - a, np.where(zero, tau, sf / k), gain + gain, whole


def _flat_solve(g, phi, bias, factors):
    """End states of lanes on a flat table over one output interval, in
    half-angle form (_march_interval)."""
    p, q, sf, g2, whole = factors
    u = np.tan(0.5 * (phi - g))
    uu = u * u
    num = sf * (g2 * u if bias is None else bias * uu + g2 * u + bias)
    out = np.minimum(g + 2.0 * np.arctan2(num, p + q * uu),
                     np.maximum(g, phi))
    if bias is None:
        return out
    # A lane at rest (num 0) stays, whatever the sign of the denominator;
    # a drifting lane with k*tau >= pi has turned a whole turn: capped
    # heading up (b > 0), failed heading down.
    out = np.where(num != 0, out, g)
    if whole is None:
        return out
    return np.where(whole, np.where(bias > 0, np.maximum(g, phi), -np.inf),
                    out)


def _march_interval(gam: np.ndarray, piece: np.ndarray, turn: np.ndarray,
                    phi1: np.ndarray, gains: np.ndarray,
                    bias: np.ndarray | None, tables, mu: float, dt_len: float,
                    *, rest: list | None = None, interval: int = 0,
                    flat: tuple | None = None
                    ) -> tuple[np.ndarray, list[np.ndarray]]:
    """Advance every lane through one output interval.

    With phi1 and the coupling torque b = bias fixed, a lane on one piece
    obeys Adler's equation dg/dt = mu*r, r = b + G*sin(phi1 - g) - U'(g).
    With r' = -dr/dg and k**2 = r'**2 + r*(r - 2*b), constant on the
    piece, it turns in a time 2*tau/mu by 2*atan2(sf*r, cf + sf*r'):
    (cf, sf) is (1, tanh(k*tau)/k) when locked, (cos(k*tau), sin(k*tau)/k)
    with k = sqrt(-k**2) when drifting, and (1, tau) at k = 0. With no
    bias (None, an uncoupled batch) k**2 = r'**2 + r**2 >= 0: every lane
    is locked, so the drift terms are skipped. A lane stops where this
    flow passes phi1 (never passed upward) or a kink; U' jumps up across a
    kink, so the lane goes on along the next piece if its rate keeps its
    sign there, and rests otherwise.

    A lane that starts on the kink it heads for (one that rested or
    arrived there before) is settled before the first pass's flow: its
    rate on the next piece comes from the same angle terms. If that rate
    keeps its sign, the lane switches to the next piece in place and the
    first pass marches it along that piece; otherwise it rests, held on
    the kink. Only lanes that reach a kink from inside a piece are
    gathered for a kink pass. When rest is a list and some lane settles,
    the marcher appends (lanes, drive, r, r_next) for the lanes held on a
    kink: their indices, their drive G*sin(phi1 - g) and their rates on
    their piece and on the next one.

    A table without kinks (edges (-inf, inf), every limbless body) is
    flat: support_pieces gives all-zero slopes exactly when it has no
    kink, so r = b + G*sin(lag), r' = G*cos(lag), k**2 = G**2 - b**2, and
    no lane reaches a kink. Such a table is solved in one closed form per
    lane (_flat_solve), in the half angle u = tan(lag/2), lag = phi1 - g:
    the flow above multiplied through by 1 + u**2, the lane turns by
    2*atan2(sf*(b*u**2 + 2*G*u + b), (cf + a) + (cf - a)*u**2), a = sf*G,
    and ends at min(g + turned, max(g, phi1)). It needs no sine or cosine
    of the lag, and at the repeller (lag = pi without bias, where
    cf + sf*r' cancels) it is exact: cf - a is 0 wherever tanh(k*tau)
    rounds to 1. The factors that depend only on gains and bias
    (_flat_factors) can be passed as flat; a drifting lane with
    k*tau >= pi has turned a whole turn and is capped heading up or fails
    heading down. Piece and turn are not written.

    tables is (edges, c, s) of the piece table; whether edges[0] is
    finite is the one switch between the two solves. piece and turn hold
    each lane's piece index and whole turns; they are updated in place for
    the lanes that go on to another piece; gam itself is left unchanged.
    A lane that starts NaN (a failed chain) marches as NaN. Returns the
    lane states at the interval's end and the indices of the lanes that
    failed in it (a whole turn rolled, or turned non-finite from a finite
    start). A march takes at most len(cs) + 1 passes: a lane goes on only
    along its heading, a piece per kink pass, and fails a whole turn past
    its start. Needing more than len(cs) + 2 raises IntegrationError.
    """
    edges, cs, ss = tables
    n = len(cs)
    g = start = gam
    phi, gain, b, j, t = phi1, gains, bias, piece, turn
    tau = 0.5 * mu * dt_len
    lanes, failed = None, []
    if math.isinf(edges[0]):
        out = _flat_solve(g, phi, b, flat or _flat_factors(gain, b, tau))
        bad = ~(np.abs(out - start) <= TWO_PI)
        if np.count_nonzero(bad):
            bad &= ~np.isnan(start)
            if np.count_nonzero(bad):
                failed.append(bad.nonzero()[0])
        return out, failed
    terms = _angle_terms(g, phi, gain, b)
    r, slope = _rates(terms, cs[j], ss[j])
    for _ in range(n + 2):
        up = r > 0
        edge = edges[j + up] + TWO_PI * t
        capped = held = up & (phi < edge)
        settle = (edge == g) & ~capped if lanes is None else False
        if np.count_nonzero(settle):
            # A lane on the kink it heads for meets the next piece at g
            # itself: it goes on along that piece if its rate keeps its
            # sign there, and rests otherwise. Going on takes no time.
            j_next = j + np.where(up, 1, -1)
            r_next = _rate(terms, cs.take(j_next, mode="wrap"),
                           ss.take(j_next, mode="wrap"))
            keeps = r_next * r > 0
            if rest is not None:
                on_kink = (settle & ~keeps).nonzero()[0]
                rest.append((on_kink, terms[2][on_kink], r[on_kink],
                             r_next[on_kink]))
            sw = (settle & keeps).nonzero()[0]
            if sw.size:
                j_next, up_sw = j_next[sw], up[sw]
                on = j_next % n
                piece[sw], turn[sw] = on, t[sw] + j_next // n
                r[sw], slope[sw] = _rates([v[sw] for v in terms],
                                          cs[on], ss[on])
                edge[sw] = edges[on + up_sw] + TWO_PI * turn[sw]
                capped[sw] = up_sw & (phi[sw] < edge[sw])
            held = capped | (settle & ~keeps)
        end = np.where(capped, np.maximum(g, phi), edge)
        if b is None:
            k2 = slope * slope + r * r
            k, drift = np.sqrt(k2), None
        else:
            k2 = slope * slope + r * (r - 2.0 * b)
            drift = k2 < 0
            k = np.sqrt(np.abs(k2))
            if not np.count_nonzero(drift):
                drift = None
        kt = k * tau
        sf, cf = np.tanh(kt), 1.0
        if drift is not None:
            sf = np.where(drift, np.sin(kt), sf)
            cf = np.where(drift, np.cos(kt), 1.0)
        sf = np.where(k2 == 0, tau, sf / k)
        turned = 2.0 * np.arctan2(sf * r, cf + sf * slope)
        hit = (turned - (end - g)) * r > 0
        if drift is not None:
            # A drifting lane with k*tau >= pi has turned a whole turn.
            hit |= drift & (kt >= math.pi)
        g_end = np.where(hit, end, np.where(r != 0, g + turned, g))
        if lanes is None:
            out = g_end
        else:
            out[lanes] = g_end
        bad = ~(np.abs(g_end - start) <= TWO_PI)
        if np.count_nonzero(bad):
            bad &= ~np.isnan(start)
            if np.count_nonzero(bad):
                failed.append(bad.nonzero()[0] if lanes is None
                              else lanes[bad])
        go = (hit & ~(held | bad)).nonzero()[0]
        if not go.size:
            return out, failed
        j_next = j[go] + np.where(up[go], 1, -1)
        on = j_next % n
        r_next, slope_next = _rates(
            _angle_terms(end[go], phi[go], gain[go],
                         None if b is None else b[go]), cs[on], ss[on])
        keep = r_next * r[go] > 0
        if not keep.all():
            go, j_next, on, r_next, slope_next = (
                v[keep] for v in (go, j_next, on, r_next, slope_next))
            if not go.size:
                return out, failed
        # Time to the kink: the flow relation solved for tau (none for
        # a lane that rounding left at or past the kink).
        dist = end[go] - g[go]
        dist = np.where((dist > 0) == up[go], dist, 0.0)
        half, kn = np.sin(dist / 2.0), k[go]
        p = r[go] * np.cos(dist / 2.0) - slope[go] * half
        arc = np.arctanh(kn * half / p)
        if drift is not None:
            arc = np.where(drift[go],
                           np.mod(np.arctan2(kn * half, p), math.pi), arc)
        t_hit = np.where(k2[go] == 0, half / p, arc / kn)
        if lanes is not None:
            tau = tau[go]
        tau = tau - np.fmax(np.fmin(t_hit, tau), 0.0)
        lanes = go if lanes is None else lanes[go]
        g, phi, gain, start = (v[go] for v in (end, phi, gain, start))
        if b is not None:
            b = b[go]
        r, slope = r_next, slope_next
        j, t = on, t[go] + j_next // n
        piece[lanes], turn[lanes] = j, t
    raise IntegrationError(f"roll march ran out of its {n + 2} passes in "
                           f"output interval {interval}")


# Output intervals per block of an uncoupled batch: lanes park and wake
# only at block boundaries, and a block marches its awake lanes on
# compacted arrays.
BLOCK = 16

# A rest span keeps the drive this fraction of the torques and angles
# involved inside the band that holds a lane on its kink: far above the
# rounding of the rates and of the command phase.
REST_MARGIN = 1e-9


def _rest_span(lag, gain, drive, rates, step, margin):
    """Output intervals after this one for which a lane held on a kink
    stays held, each interval adding step > 0 to its lag = phi - g.

    rates are the lane's rates on its piece and on the next one, from
    the drive D = gain*sin(lag). On a convex kink the piece below has the
    larger rate, so the kink's one-sided slopes are D - max(rates) and
    D - min(rates): the lane stays held (Adler-locked on the kink) while
    G*sin(lag) stays between them. The band is narrowed by margin on each
    side and the span ends before sin(lag) can first leave it, in closed
    form. A lane that does not start 2*margin inside the band, or has
    gain <= 0, gets 0. Inputs are arrays of held lanes.
    """
    low, high = np.fmin(*rates), np.fmax(*rates)
    lo = (drive - high + margin) / gain
    hi = (drive - low - margin) / gain
    x = np.mod(lag + math.pi / 2.0, TWO_PI) - math.pi / 2.0  # [-pi/2, 3pi/2)
    # sin first reaches hi on a rising branch, lo on a falling one.
    rise = np.where(hi < 1.0, np.arcsin(np.fmin(hi, 1.0)), np.inf)
    fall = np.where(lo > -1.0, math.pi - np.arcsin(np.fmax(lo, -1.0)),
                    np.inf)
    leave = np.fmin(np.where(x < rise, rise, rise + TWO_PI), fall)
    inside = (gain > 0.0) & (low < -2.0 * margin) & (high > 2.0 * margin)
    return np.where(inside, np.ceil((leave - x) / step) - 1.0, 0.0)


def _integrate(pieces, gains: np.ndarray, gamma0: np.ndarray,
               omega: float, dt: float, n_intervals: int, mu: float,
               phase_offsets: np.ndarray,
               kappa: float = 0.0,
               chain: int = 1,
               stride: int = 1):
    """March all lanes through n_intervals output intervals.

    pieces is the landscape's piece table (support_pieces). Lanes come in
    consecutive chains of `chain` lanes, one chain per trial. Command
    phase per lane: gamma0 + omega*t - phase_offset, referenced to each
    lane's initial roll. With chain > 1 and kappa > 0 each chain is
    torsionally coupled: the spring acts per module pair, so its specific
    effect on a lane is kappa*chain. The coupling bias is frozen over
    each interval (operator splitting), which keeps identical-state
    chains exactly equal to the lumped trajectory.

    Each lane's piece and whole turns are located once, from gamma0, and
    then carried from interval to interval. A lane's result depends on
    its own chain only. A lane that rolls more than a whole turn in one
    interval, or turns non-finite, fails its whole chain: the chain reads
    NaN from then on and marches as NaN.

    Intervals run in blocks of BLOCK. In an uncoupled batch (lumped lanes,
    or kappa = 0 chains) a lane depends on nothing but itself, and a lane
    held on a kink at a block's last interval (not capped, gain > 0) is
    parked for the whole blocks of its rest span (_rest_span): while its
    drive stays strictly between the kink's one-sided slopes, the marcher
    returns its roll, piece and turn unchanged, so a parked lane keeps
    exactly the bits it would be marched to. Each block marches only the
    awake lanes; a block with none calls no march. Coupled chains are
    never parked.

    Returns (records, failures): records holds the lane states at every
    stride-th interval boundary, starting with gamma0; failures maps each
    failed chain's index to the error of its first failed lane.
    """
    edges, slopes = pieces
    tables = (edges, *np.ascontiguousarray(slopes.T))
    gam = np.asarray(gamma0, dtype=float).copy()
    records = np.empty((n_intervals // stride + 1, len(gam)))
    records[0] = gam

    turn, angle = np.divmod(gam, TWO_PI)
    piece = np.searchsorted(edges[1:], angle, side="right")
    turn, piece = turn + piece // len(slopes), piece % len(slopes)
    # A chain that starts NaN fails before it marches.
    failures = {lane // chain: "non-finite roll state in output interval 0"
                for lane in np.flatnonzero(np.isnan(gam)).tolist()}
    gam.reshape(-1, chain)[list(failures)] = np.nan

    gamma_ref = gam.copy()
    coupled = kappa > 0.0 and chain > 1
    step = omega * dt
    # Only lanes held on a kink park, and only in an uncoupled batch.
    parks = not coupled and np.isfinite(edges[0]) and step > 0.0
    reach = float(np.abs(slopes).sum(axis=1).max())  # bounds every |U'|
    wake = np.zeros(len(gam), dtype=np.int64)  # first interval to march
    # All-zero offsets (every lumped batch) are not subtracted: the phase
    # before them is never -0.0 (omega*dt > 0), so x - 0.0 is x bitwise.
    shifted = phase_offsets.any()
    # Zero-padded twists: the Laplacian of a chain is one difference.
    twist = np.zeros((len(gam) // chain, chain + 1)) if coupled else None
    bias = None  # an uncoupled chain carries no bias
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # A flat table never parks, so its lanes stay in place: without
        # bias its solve's gain-only factors are computed once, here.
        flat = (_flat_factors(gains, None, 0.5 * mu * dt)
                if np.isinf(edges[0]) and not coupled else None)
        for first in range(0, n_intervals, BLOCK):
            last = min(first + BLOCK, n_intervals)
            awake = (wake <= first).nonzero()[0]
            # With every lane awake, views (no copies) of the lane arrays.
            at = slice(None) if awake.size == len(gam) else awake
            g, p, t, gain, ref = (v[at] for v in (
                gam, piece, turn, gains, gamma_ref))
            off = phase_offsets[at] if shifted else None
            rest = None
            for n in range(first, last):
                if g.size:
                    phi1 = ref + omega * (n + 1) * dt
                    if off is not None:
                        phi1 -= off
                    if coupled:
                        by_chain = g.reshape(-1, chain)
                        np.subtract(by_chain[:, 1:], by_chain[:, :-1],
                                    out=twist[:, 1:-1])
                        bias = (kappa * chain) * (twist[:, 1:]
                                                  - twist[:, :-1]).ravel()
                    if parks and n == last - 1:
                        rest = []
                    g, failed = _march_interval(g, p, t, phi1, gain, bias,
                                                tables, mu, dt, rest=rest,
                                                interval=n, flat=flat)
                    if failed:
                        lanes = np.sort(np.concatenate(failed))
                        for i, lane in zip(lanes.tolist(),
                                           awake[lanes].tolist()):
                            failures.setdefault(
                                lane // chain,
                                ("non-finite roll state" if math.isnan(g[i])
                                 else "rolled more than a whole turn")
                                + f" in output interval {n}")
                        # gam holds the block's start, where a lane of a
                        # chain failed before is NaN already.
                        gam.reshape(-1, chain)[list(failures)] = np.nan
                        g[np.isnan(gam[at])] = np.nan
                if (n + 1) % stride == 0:
                    row = records[(n + 1) // stride]
                    row[:] = gam
                    row[at] = g
            gam[at], piece[at], turn[at] = g, p, t
            if rest:
                # Park the lanes held at the block's last interval for the
                # whole blocks of their rest span. The margin covers the
                # rounding of the rates and of the lag, whose size grows
                # to at most |g| + |phi1| + step * left.
                held, drive, r, r_next = rest[0]
                g, phi1, gain = g[held], phi1[held], gain[held]
                left = n_intervals - last
                margin = REST_MARGIN * (reach + gain * (
                    1.0 + np.abs(g) + np.abs(phi1) + step * left))
                span = np.fmin(_rest_span(phi1 - g, gain, drive, (r, r_next),
                                          step, margin), left)
                parked = span >= BLOCK
                wake[awake[held[parked]]] = (last + BLOCK
                                             * (span[parked] // BLOCK))
    return records, failures


def check_calibration(mu: float, kappa: float, steps_per_cycle: int) -> None:
    """Raise ConfigError unless 0 < mu < inf, 0 <= kappa < inf and
    steps_per_cycle >= MIN_STEPS_PER_CYCLE."""
    if not 0 < mu < math.inf:
        raise ConfigError("mu must be positive and finite")
    if not 0 <= kappa < math.inf:
        raise ConfigError("kappa must be >= 0 and finite")
    if steps_per_cycle < MIN_STEPS_PER_CYCLE:
        raise ConfigError(f"steps_per_cycle must be >= {MIN_STEPS_PER_CYCLE}")


def _trial_lanes(params: GaitParams, morph: Morphology, mode: str,
                 gamma_starts, gain_factors
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Lanes of trials that share one gait, ready for _integrate.

    gamma_starts and gain_factors hold one value per trial. Returns the
    per-lane initial roll, drive gain and command phase offset: one lane
    per lumped trial, one per module for a segmented trial.
    """
    gamma_starts = np.asarray(gamma_starts, dtype=float)
    gain_factors = np.asarray(gain_factors, dtype=float)
    if mode == "lumped":
        return (gamma_starts, drive_gain(params, morph) * gain_factors,
                np.zeros(len(gamma_starts)))
    # Each lane runs the body's specific dynamics at its own staggered
    # phase: drive and slope stay whole-body (per-module torque and
    # inertia scale down together, so the specific rate is unchanged),
    # which makes an in-phase chain reduce to the lumped trajectory
    # bitwise. No coherence factor here, the stagger is explicit.
    m = morph.num_modules
    offsets = TWO_PI * params.spatial_frequency * np.arange(m) / (m - 1)
    return (np.repeat(gamma_starts, m),
            np.repeat(_drive_gain_base(params, morph) * gain_factors, m),
            np.tile(offsets, len(gamma_starts)))


def _run_trials(gaits, morph: Morphology, mode: str, cycles: float,
                steps_per_cycle: int, perturb: PerturbationSpec, stream,
                gamma0: float, mu: float, kappa: float,
                every_interval: bool = False):
    """Integrate a batch of trials and reduce each to its rolls per cycle.

    stream is (seed, cells, trials): the batch runs trial (cell, t) for
    cell in cells, with gait gaits[i] for cells[i], and t in trials. Each
    trial starts at gamma0 plus the jitter drawn from its own stream
    (PerturbationSpec.draw_trials) and spans cycles rounded to whole
    output intervals, at least one and at most MAX_RESOLUTION; the batch
    has at most MAX_RESOLUTION lanes, and records at every interval at
    most MAX_RECORDS roll states. All are checked before anything is
    drawn or built. All gaits share one drive frequency.

    Returns (records, rolls, failures, dt): records as _integrate gives
    them, at every interval if every_interval, else at the start and the
    end only; rolls[k] is trial k's mean over its lanes of
    (end - start) / (2*pi * cycles integrated), NaN for a failed trial;
    failures maps a failed trial's index to its error; dt is the output
    interval.
    """
    if not 0 < cycles < math.inf:
        raise ConfigError("cycles must be positive and finite")
    # The min keeps a span too large to round (an inf product) over the cap.
    n_intervals = round(min(cycles * steps_per_cycle, MAX_RESOLUTION + 1))
    if not 1 <= n_intervals <= MAX_RESOLUTION:
        raise ConfigError(f"cycles must span at least one and at most "
                          f"{MAX_RESOLUTION} output intervals "
                          f"({steps_per_cycle} per cycle)")
    if mode not in ("lumped", "segmented"):
        raise ConfigError(f"unknown mode {mode!r}")
    seed, cells, trials = stream
    chain = 1 if mode == "lumped" else morph.num_modules
    n_lanes = len(cells) * len(trials) * chain
    if n_lanes > MAX_RESOLUTION:
        raise ConfigError(f"a batch must have at most {MAX_RESOLUTION} lanes "
                          f"(cells x trials x lanes per trial), got {n_lanes}")
    if every_interval and (n_intervals + 1) * n_lanes > MAX_RECORDS:
        raise ConfigError(f"a trial must record at most {MAX_RECORDS} roll "
                          f"states ((output intervals + 1) x lanes), got "
                          f"{(n_intervals + 1) * n_lanes}")

    jitter, gain_factor = perturb.draw_trials(seed, cells, trials)
    starts, gains, offsets = map(np.concatenate, zip(*(
        _trial_lanes(gait, morph, mode, gamma0 + j, f)
        for gait, j, f in zip(gaits, jitter, gain_factor))))
    omega = gaits[0].temporal_frequency
    dt = (TWO_PI / omega) / steps_per_cycle
    records, failures = _integrate(
        support_pieces(morph), gains, starts, omega, dt, n_intervals, mu,
        phase_offsets=offsets, kappa=kappa, chain=chain,
        stride=1 if every_interval else n_intervals)
    rolls = ((records[-1] - records[0]).reshape(-1, chain).mean(axis=1)
             / (TWO_PI * (n_intervals / steps_per_cycle)))
    return records, rolls, failures, dt


def _stalled(records: np.ndarray, step: float, run: int) -> np.ndarray:
    """Per-lane stall flag: the lane moved less than step between each of
    run consecutive pairs of records."""
    quiet = np.abs(np.diff(records, axis=0)) < step
    count = np.pad(np.cumsum(quiet, axis=0), ((1, 0), (0, 0)))
    return (count[run:] - count[:-run] == run).any(axis=0)


def simulate_roll(params: GaitParams, morph: Morphology, cycles: float = 1.0,
                  gamma0: float = 0.0,
                  perturb: PerturbationSpec | None = None,
                  mode: str = "lumped",
                  stream: tuple[int, int, int] | None = None,
                  *,
                  mu: float = MU_DEFAULT,
                  kappa: float = KAPPA_DEFAULT,
                  steps_per_cycle: int = STEPS_PER_CYCLE) -> RollTrajectory:
    """Integrate the quasi-static roll response to the commanded gait.

    gamma0 is the initial roll (one value, unwrapped, accumulating over
    revolutions). The commanded roll phase ramps from the trial's initial
    roll: phi_cmd(t) = gamma_start + omega*t, with times starting at 0.
    Fractional cycles are allowed (a half cycle is the one-shot righting
    maneuver) and round to whole output intervals (_run_trials' span
    rule); a run that would record more than MAX_RECORDS roll states
    (intervals + 1 per lane) is a ConfigError. perturb draws from stream =
    (seed, cell, t), the stream of trial t of cell `cell` in a sweep of
    that seed; a nonzero perturbation needs one. So a sweep trial,
    replayed here with its cell's gait, gamma0 = pi and cycles_per_trial,
    gives its rolls per cycle bitwise.

    Segmented mode evolves one roll angle per module, staggering each
    module's command phase across the body by the gait's total phase span
    and coupling neighbors with a torsional spring kappa. Raises
    IntegrationError when any module fails to integrate.
    """
    check_calibration(mu, kappa, steps_per_cycle)
    if np.ndim(gamma0) or not math.isfinite(gamma0):
        raise ConfigError("gamma0 must be finite and one value")
    seed, cell, trial = stream or (None, 0, 0)
    if stream is not None and not (seed >= 0 and 0 <= cell < 2**32
                                   and 0 <= trial < 2**32):
        raise ConfigError("stream must be (seed, cell, trial) with seed >= 0 "
                          "and cell and trial in [0, 2**32)")
    records, rolls, failures, dt = _run_trials(
        [params], morph, mode, cycles, steps_per_cycle,
        perturb or PerturbationSpec(gamma_jitter=0.0, gain_noise=0.0),
        (seed, [cell], [trial]), float(gamma0), mu, kappa,
        every_interval=True)
    if failures:
        raise IntegrationError(failures[0])

    n_intervals = len(records) - 1
    stalled = _stalled(records, STALL_STEP * params.temporal_frequency * dt,
                       max(1, steps_per_cycle // 4))
    # The first interval ending past the first maximum above each start.
    top = records[0] + TWO_PI - np.mod(
        records[0] - _tops(*support_pieces(morph))[:, None], TWO_PI)
    past = records[1:] > top.min(axis=0, initial=np.inf)
    righting = tuple(np.where(past.any(0), past.argmax(0) + 1, None).tolist())
    # A segmented body counts as stalled only when every module went quiet.
    return RollTrajectory(times=dt * np.arange(n_intervals + 1),
                          gammas=records[:, 0] if mode == "lumped" else records,
                          cycles=n_intervals / steps_per_cycle,
                          rolls_per_cycle=float(rolls[0]),
                          stalled=bool(stalled.all()), mode=mode,
                          righting_intervals=righting)
