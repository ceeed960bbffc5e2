"""Shared fixtures and independent oracles for the test suite.

The oracles here deliberately avoid the package's own geometry and
series code: closed-form trigonometry for the wave equations, a
Dirichlet-kernel form for phase coherence, a brute-force polygon-vertex
sampler for support heights, a 2D polyline walk for the planar chain,
a per-pose loop for the module frames, a per-step loop for the
sidewinding trace, a roll marcher that relocates every lane's piece in
each output interval and compacts its working set, and fine RK4 steps of
the coupled chain's flow, its coupling never frozen. Frozen constants
were produced by these oracles and pinned so regressions surface as
value changes, not just property violations.
"""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from selfright import (Morphology, center_of_mass, contact_set,
                       energy_landscape, forward_kinematics, joint_vector,
                       support_height)
from selfright.gait import TWO_PI
from selfright.rollmodel import STALL_STEP, STEPS_PER_CYCLE

GRAVITY = 9.80665

# Values pinned from the independent oracles below (and, for the
# simulation figures, from converged runs at the default calibration).
FROZEN = {
    "lateral_spot": 0.746958041185389,       # pi/4 * sin(0.6*pi)
    "vertical_spot": 0.020067965928164896,   # pi/9 * cos(1.0 + 1.2*pi)
    "wave_height_pi6": 0.3878460969082653,   # peak height span, A_v=pi/6
    "drive_gain_pi4": 2.3106374697206244,    # G at A=pi/4, xi=0, default body
    "barrier_default": 1.0787315000000002,   # J, L=0.11 (equals M*m*g*L)
    "sidewind_band": 0.6583043664919204,     # BL/cyc, xi=0.6, Av=pi/9, Al=pi/3
    "sidewind_xi12": 0.592787821822322,      # BL/cyc, xi=1.2, same amplitudes
    "sidewind_xi0": 0.32062884831074906,     # BL/cyc, xi=0 quadrature rolling gait
}

settings.register_profile(
    "suite",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


def oracle_lateral(amp, omega, xi, n, t, i, phase=0.0):
    """Direct evaluation of the lateral wave equation."""
    return amp * math.sin(omega * t + 2.0 * math.pi * xi * i / n + phase)


def oracle_vertical(amp, omega, xi, n, t, i):
    """Direct evaluation of the vertical wave equation."""
    return amp * math.cos(omega * t + 2.0 * math.pi * xi * i / n)


def oracle_coherence(xi, n=4):
    """Closed form of |sum_{i=1..n} exp(j*2*pi*xi*i/n)| / n.

    The geometric sum collapses to a Dirichlet kernel; when xi is a
    multiple of n every phase is a whole turn and the factor is 1.
    """
    theta = 2.0 * math.pi * xi / n
    denom = math.sin(theta / 2.0)
    if abs(denom) < 1e-15:
        return 1.0
    return abs(math.sin(n * theta / 2.0) / denom) / n


def oracle_silhouette_points(morph, n_disc=4096):
    """Dense transverse outline: sampled body circle plus leg tips."""
    ths = np.arange(n_disc) * (2.0 * math.pi / n_disc)
    pts = np.column_stack([morph.body_radius * np.cos(ths),
                           morph.body_radius * np.sin(ths)])
    if morph.leg_length > 0:
        tip = morph.body_radius + morph.leg_length
        for h in (-morph.leg_angle, math.pi + morph.leg_angle):
            pts = np.vstack([pts, [tip * math.cos(h), tip * math.sin(h)]])
    return pts


def oracle_support_heights(morph, gammas, n_disc=4096):
    """Axis height above the floor by brute force over outline points.

    Rotating point (x, y) by gamma puts it at height x*sin(gamma) +
    y*cos(gamma) relative to the axis; resting on the floor, the axis
    sits at minus the lowest point.
    """
    pts = oracle_silhouette_points(morph, n_disc)
    gam = np.atleast_1d(np.asarray(gammas, dtype=float))
    heights = np.outer(np.sin(gam), pts[:, 0]) + np.outer(np.cos(gam), pts[:, 1])
    return -heights.min(axis=1)


def oracle_barrier(morph, n_gamma=4096, n_disc=4096):
    """Escape barrier from the inverted rest angle, brute force.

    Cheapest path from gamma=pi to gamma=0 over the sampled landscape:
    the smaller of the two directional path maxima, minus U(pi).
    """
    gam = np.arange(n_gamma) * (2.0 * math.pi / n_gamma)
    energy = morph.total_mass * GRAVITY * oracle_support_heights(
        morph, gam, n_disc)
    mid = n_gamma // 2
    down = energy[:mid + 1].max()
    up = energy[mid:].max()
    return min(down, up) - energy[mid]


def oracle_planar_chain(num_modules, link_length, theta):
    """Module origins when every lateral joint bends by theta.

    Vertical joints at zero keep the chain in the xy plane; each even
    chain joint adds theta to the heading after the link it follows.
    """
    pos = [(0.0, 0.0)]
    heading = 0.0
    x = y = 0.0
    for j in range(1, num_modules):
        x += link_length * math.cos(heading)
        y += link_length * math.sin(heading)
        if j % 2 == 0:
            heading += theta
        pos.append((x, y))
    return np.array(pos)


def oracle_chain_frames(morph, vertical, lateral):
    """Module frames of one posture, one joint at a time.

    The reference for the batched forward kinematics: each joint turns
    two axes of the frame, by the same products in the same order, so
    results agree bitwise.
    """
    pos = np.zeros(3)
    x, y, z = np.eye(3)
    positions, orientations = [pos], [np.eye(3)]
    for j in range(1, morph.num_modules):
        pos = pos + morph.link_length * x
        angle = vertical[(j - 1) // 2] if j % 2 == 1 else lateral[j // 2 - 1]
        c, s = math.cos(angle), math.sin(angle)
        if j % 2 == 1:
            x, z = c * x - s * z, s * x + c * z
        else:
            x, y = c * x + s * y, c * y - s * x
        positions.append(pos)
        orientations.append(np.column_stack((x, y, z)))
    return np.array(positions), np.array(orientations)


def rotation_chain_frames(morph, vertical, lateral):
    """Module frames of one posture as a chain of 3x3 rotation matrices:
    frame k+1 is frame k times the joint's rotation, and sits one link
    along frame k's first column. An independent check of the axis turns;
    matrix products round differently, so it agrees to a few ulp."""
    step = np.array([morph.link_length, 0.0, 0.0])
    pos, ori = np.zeros(3), np.eye(3)
    positions, orientations = [pos], [ori]
    for j in range(1, morph.num_modules):
        angle = vertical[(j - 1) // 2] if j % 2 == 1 else lateral[j // 2 - 1]
        c, s = math.cos(angle), math.sin(angle)
        if j % 2 == 1:  # about y
            rot = np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])
        else:  # about z
            rot = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
        pos = pos + ori @ step
        ori = ori @ rot
        positions.append(pos)
        orientations.append(ori)
    return np.array(positions), np.array(orientations)


def is_orthonormal(orientations, tol=1e-9):
    """Whether every 3x3 matrix of the (..., 3, 3) stack is a proper
    rotation."""
    r = orientations
    return bool(np.abs(r @ np.swapaxes(r, -1, -2) - np.eye(3)).max() <= tol
                and np.abs(np.linalg.det(r) - 1.0).max() <= tol)


def oracle_trace(params, morph, cycles, samples_per_cycle, contact_tol):
    """The sidewinding trace, one step fit and one 2x2 pose product at a time.

    The reference for the batched trace: it shares the package's frames
    and contact masks, fits each step's anchors on their own and chains
    the rotation matrices over every step of every cycle. The shapes are
    the first cycle's S + 1 (t = 0 .. one period): sample c*S + k of
    cycle c has shape k, the trace's last sample shape S, and step k of
    every cycle maps shape k + 1 onto shape k. Returns the report's fields
    as a dict and the world path of the body-frame origin.
    """
    n_samples = cycles * samples_per_cycle
    times = (2.0 * math.pi / params.temporal_frequency
             * np.arange(samples_per_cycle + 1) / samples_per_cycle)
    frames = forward_kinematics(morph, joint_vector(params, times))
    origins = frames.position[..., :2]
    coms = center_of_mass(frames, morph)[:, :2]
    contacts = contact_set(frames, morph, contact_tol)
    shape = [n % samples_per_cycle for n in range(n_samples)]
    shape.append(samples_per_cycle)
    rot, trans, heading = np.eye(2), np.zeros(2), 0.0
    com_world, base_world, axes = [coms[0]], [origins[0][0]], []
    ax0 = origins[0][-1] - origins[0][0]
    axes.append(ax0 / np.linalg.norm(ax0))
    for n in range(n_samples):
        k = shape[n]
        anchors = contacts[k] & contacts[k + 1]
        if not anchors.any():
            anchors = contacts[k] | contacts[k + 1]
        moved, still = origins[k + 1][anchors], origins[k][anchors]
        mb, sb = moved.mean(axis=0), still.mean(axis=0)
        theta = 0.0
        if len(moved) > 1:
            mc, sc = moved - mb, still - sb
            theta = math.atan2(
                float((mc[:, 0] * sc[:, 1] - mc[:, 1] * sc[:, 0]).sum()),
                float((mc[:, 0] * sc[:, 0] + mc[:, 1] * sc[:, 1]).sum()))
        c, s = math.cos(theta), math.sin(theta)
        step_rot = np.array([[c, -s], [s, c]])
        trans = rot @ (sb - step_rot @ mb) + trans
        rot = rot @ step_rot
        heading += theta
        j = shape[n + 1]
        com_world.append(rot @ coms[j] + trans)
        base_world.append(rot @ origins[j][0] + trans)
        ax = origins[j][-1] - origins[j][0]
        axes.append(rot @ (ax / np.linalg.norm(ax)))
    mean_axis = np.mean(axes, axis=0)
    mean_axis = mean_axis / np.linalg.norm(mean_axis)
    net = com_world[-1] - com_world[0]
    axial = float(net @ mean_axis)
    scale = morph.body_length * cycles
    fields = {
        "lateral_displacement":
            float(np.linalg.norm(net - axial * mean_axis)) / scale,
        "contact_fraction":
            float(np.mean(contacts[shape].sum(axis=1))) / morph.num_modules,
        "signed_lateral":
            float(mean_axis[0] * net[1] - mean_axis[1] * net[0]) / scale,
        "axial_drift": axial / scale,
        "net_xy": (float(net[0]), float(net[1])),
        "heading_per_cycle_rad": heading / cycles,
    }
    return fields, np.array(base_world)


def oracle_rates(g, phi, gain, bias, slopes):
    """Specific roll rate r = bias + G*sin(phi - g) - U'(g), and -dr/dg."""
    c, s = slopes.T
    sin_g, cos_g, lag = np.sin(g), np.cos(g), phi - g
    return (bias + gain * np.sin(lag) - c * cos_g - s * sin_g,
            gain * np.cos(lag) - c * sin_g + s * cos_g)


def chain_energy(morph, gamma, phi, gains, kappa=0.0, chain=1):
    """Energy E of each chain of `chain` consecutive lanes (by default
    each lane alone): the sum over its lanes of
    M*m*g*support_height(gamma) - G*cos(phi - gamma), plus the coupling
    (kappa*M/2) * sum_k (gamma_{k+1} - gamma_k)**2 with M = chain.

    With the command phases phi held fixed, lane k's specific roll rate
    b_k + G*sin(phi_k - gamma_k) - U'(gamma_k), with the coupling torque
    b_k = kappa*M*(gamma_{k+1} - 2*gamma_k + gamma_{k-1}) (a chain's end
    has one neighbour), is -dE/dgamma_k: the exact flow over an output
    interval can only lower E, whatever the body, gains or start. A chain
    of one lane has no coupling term, and its E is the lane's, bitwise.
    """
    lanes = (morph.total_mass * GRAVITY * support_height(morph, gamma)
             - gains * np.cos(phi - gamma)).reshape(-1, chain)
    twist = np.diff(np.reshape(gamma, (-1, chain)), axis=1)
    return lanes.sum(axis=1) + (kappa * chain / 2.0) * (twist * twist).sum(
        axis=1)


def oracle_flat_march(g, phi, gain, b, tau):
    """End states of lanes on a flat table (U' = 0) after a time 2*tau/mu
    of the Adler flow with phi, the gain G and the bias b fixed.

    In the half angle u = tan((phi - g)/2) the rate is
    (b*u**2 + 2*G*u + b) / (1 + u**2), and a lane turns by
    2*atan2(sf*(b*u**2 + 2*G*u + b), (cf + a) + (cf - a)*u**2) with
    a = sf*G, taken as tanh(k*tau)*(G/k) when locked, k**2 = G**2 - b**2:
    (cf, sf) is (1, tanh(k*tau)/k) locked, (cos(k*tau), sin(k*tau)/k)
    drifting (k = sqrt(b**2 - G**2)) and (1, tau) at k = 0. A lane at rest
    stays; heading up it never passes phi; a drifting lane with
    k*tau >= pi has turned a whole turn (capped heading up, -inf down).
    """
    k2 = gain * gain - b * b
    drift = k2 < 0
    k = np.sqrt(np.abs(k2))
    kt = k * tau
    tk = np.where(drift, np.sin(kt), np.tanh(kt))
    cf = np.where(drift, np.cos(kt), 1.0)
    a = np.where(k2 == 0, tau * gain, tk * (gain / k))
    sf = np.where(k2 == 0, tau, tk / k)
    u = np.tan(0.5 * (phi - g))
    uu = u * u
    num = sf * (b * uu + (gain + gain) * u + b)
    turned = 2.0 * np.arctan2(num, (cf + a) + (cf - a) * uu)
    top = np.maximum(g, phi)
    g_end = np.where(num != 0, np.minimum(g + turned, top), g)
    return np.where(drift & (kt >= math.pi),
                    np.where(b > 0, top, -np.inf), g_end)


def oracle_march(gam: np.ndarray, lanes: np.ndarray, phi1: np.ndarray,
                 gains: np.ndarray, bias: np.ndarray, pieces, mu: float,
                 dt_len: float) -> dict[int, str]:
    """Advance the lanes listed in `lanes` through one output interval,
    locating each lane's piece afresh and compacting the working set to
    the lanes still moving after every kink.

    With phi1 and the coupling torque b = bias fixed, a lane on one piece
    obeys Adler's equation dg/dt = mu*r, r = b + G*sin(phi1 - g) - U'(g).
    With r' = -dr/dg and k**2 = r'**2 + r*(r - 2*b), constant on the
    piece, it turns in a time 2*tau/mu by 2*atan2(sf*r, cf + sf*r'):
    (cf, sf) is (1, tanh(k*tau)/k) when locked, (cos(k*tau), sin(k*tau)/k)
    with k = sqrt(-k**2) when drifting, and (1, tau) at k = 0. A lane stops
    where this flow passes phi1 (never passed upward) or a kink; U' jumps
    up across a kink, so the lane goes on along the next piece if its rate
    keeps its sign there, and rests otherwise. gam is updated in place.
    Returns the failed lanes (a whole turn rolled, or non-finite).

    A table without kinks is flat (U' = 0): there the flow is solved in
    the half angle u = tan((phi1 - g)/2), multiplied through by 1 + u**2,
    with k**2 = G**2 - b**2 and a = tanh(k*tau)*(G/k) when locked.
    """
    edges, slopes = pieces
    n = len(slopes)
    failures: dict[int, str] = {}
    g, phi, gain, b = (v[lanes] for v in (gam, phi1, gains, bias))
    if np.isinf(edges[0]):
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            g_end = oracle_flat_march(g, phi, gain, b, 0.5 * mu * dt_len)
        gam[lanes] = g_end
        bad = ~(np.abs(g_end - g) <= TWO_PI) & ~np.isnan(g)
        return {lane: ("non-finite roll state" if math.isnan(x)
                       else "rolled more than a whole turn")
                for lane, x in zip(lanes[bad].tolist(), g_end[bad].tolist())}
    turn, angle = np.divmod(g, TWO_PI)
    j = np.searchsorted(edges[1:], angle, side="right")
    turn, j = turn + j // n, j % n
    start, tau = g, np.full(len(lanes), 0.5 * mu * dt_len)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        while lanes.size:
            r, slope = oracle_rates(g, phi, gain, b, slopes[j])
            up, moving = r > 0, r != 0
            edge = np.where(up, edges[j + 1], edges[j]) + TWO_PI * turn
            capped = up & (phi < edge)
            end = np.where(capped, np.maximum(g, phi), edge)
            k2 = slope * slope + r * (r - 2.0 * b)
            drift = k2 < 0
            k = np.sqrt(np.abs(k2))
            kt = k * tau
            sf, cf, whole = np.tanh(kt), 1.0, False
            if drift.any():
                sf = np.where(drift, np.sin(kt), sf)
                cf = np.where(drift, np.cos(kt), 1.0)
                # A drifting lane with k*tau >= pi has turned a whole turn.
                whole = drift & (kt >= math.pi)
            sf = np.where(k2 == 0, tau, sf / k)
            turned = 2.0 * np.arctan2(sf * r, cf + sf * slope)
            hit = ((turned - (end - g)) * r > 0) | whole
            g_end = np.where(hit, end, np.where(moving, g + turned, g))
            bad = ~(np.abs(g_end - start) <= TWO_PI)
            gam[lanes] = g_end
            for lane, x in zip(lanes[bad].tolist(), g_end[bad].tolist()):
                failures[lane] = ("non-finite roll state" if math.isnan(x)
                                  else "rolled more than a whole turn")
            nxt = np.flatnonzero(hit & ~capped & ~bad)
            if not nxt.size:
                break
            j_next = j[nxt] + np.where(up[nxt], 1, -1)
            r_next, _ = oracle_rates(end[nxt], phi[nxt], gain[nxt], b[nxt],
                               slopes[j_next % n])
            keep = r_next * r[nxt] > 0
            nxt, j_next = nxt[keep], j_next[keep]
            # Time to the kink: the flow relation solved for tau (none for
            # a lane that rounding left at or past the kink).
            dist = end[nxt] - g[nxt]
            dist = np.where((dist > 0) == up[nxt], dist, 0.0)
            half, kn = np.sin(dist / 2.0), k[nxt]
            p = r[nxt] * np.cos(dist / 2.0) - slope[nxt] * half
            t_hit = np.where(
                k2[nxt] == 0, half / p,
                np.where(drift[nxt],
                         np.mod(np.arctan2(kn * half, p), math.pi),
                         np.arctanh(kn * half / p)) / kn)
            tau = tau[nxt] - np.fmax(np.fmin(t_hit, tau[nxt]), 0.0)
            lanes, g, phi, gain, b, start = (
                v[nxt] for v in (lanes, g_end, phi, gain, b, start))
            turn, j = turn[nxt] + j_next // n, j_next % n
    return failures


def oracle_integrate(pieces, gains: np.ndarray, gamma0: np.ndarray,
                     omega: float, dt: float, n_intervals: int, mu: float,
                     phase_offsets: np.ndarray,
                     kappa: float = 0.0,
                     chain: int = 1,
                     steps_per_cycle: int = STEPS_PER_CYCLE,
                     record_full: bool = True):
    """March all lanes through n_intervals output intervals, one
    oracle_march per interval over the lanes of chains still live.

    pieces is the landscape's piece table (support_pieces). Lanes come in
    consecutive chains of `chain` lanes, one chain per trial. Command
    phase per lane: gamma0 + omega*t - phase_offset, referenced to each
    lane's initial roll. With chain > 1 and kappa > 0 each chain is
    torsionally coupled: the spring acts per module pair, so its specific
    effect on a lane is kappa*chain. The coupling bias is frozen over
    each interval (operator splitting), which keeps identical-state
    chains exactly equal to the lumped trajectory.

    A lane's result depends on its own chain only. A lane that rolls more
    than a whole turn in one interval, or turns non-finite, fails its
    whole chain: the chain stops marching and reads NaN from then on. A
    lane that moves less than a tenth of a command step, omega*dt, in
    each of a quarter cycle's consecutive intervals is stalled.

    Returns (records, stalled, failures): records holds lane states at
    every interval boundary when record_full, else only at whole-cycle
    boundaries; failures maps each failed chain's index to the error of
    its first failed lane.
    """
    lanes = len(gamma0)
    gam = np.asarray(gamma0, dtype=float).copy()
    quiet = np.zeros(lanes, dtype=int)
    quiet_needed = max(1, steps_per_cycle // 4)
    stalled = np.zeros(lanes, dtype=bool)
    live = np.arange(lanes)
    dead = np.zeros(lanes // chain, dtype=bool)
    failures: dict[int, str] = {}

    stride = 1 if record_full else steps_per_cycle
    records = np.empty((n_intervals // stride + 1, lanes))
    records[0] = gam

    gamma_ref = gam.copy()
    bias = np.zeros(lanes)
    for n in range(n_intervals):
        phi1 = gamma_ref + omega * (n + 1) * dt - phase_offsets
        if kappa > 0.0 and chain > 1:
            twist = np.diff(gam.reshape(-1, chain), axis=1)
            lap = np.diff(np.pad(twist, ((0, 0), (1, 1))), axis=1)
            bias = (kappa * chain) * lap.ravel()

        before = gam.copy()
        failed = oracle_march(gam, live, phi1, gains, bias, pieces, mu, dt)
        if failed:
            for lane, reason in sorted(failed.items()):
                failures.setdefault(lane // chain,
                                    f"{reason} in output interval {n}")
            dead[list(failures)] = True
            gam[np.repeat(dead, chain)] = np.nan
            live = np.flatnonzero(~np.repeat(dead, chain))

        quiet = np.where(np.abs(gam - before) < STALL_STEP * omega * dt,
                         quiet + 1, 0)
        stalled |= quiet >= quiet_needed

        if (n + 1) % stride == 0:
            records[(n + 1) // stride] = gam
    return records, stalled, failures


def reference_flow(gains: np.ndarray, gamma0: np.ndarray, omega: float,
                   dt: float, n_intervals: int, mu: float,
                   phase_offsets: np.ndarray, kappa, chain: int,
                   steps: int):
    """End states of coupled chains of a flat body (U' = 0) under the flow
    itself, the model _integrate approximates by freezing the coupling
    torque b over each output interval.

    Lanes come in consecutive chains of `chain` lanes, with kappa one value
    or one per chain, and command phases as _integrate's. Each interval
    takes `steps` classical RK4 steps of dg/dt = mu*(b(g) + G*sin(phi1 - g)),
    with b = kappa*chain*(g_{k+1} - 2*g_k + g_{k-1}) (a chain's end has one
    neighbour) re-evaluated at every stage, phi1 held at the interval's
    end, and the cap g <- min(g, max(g_start, phi1)) after every step. A
    step that maps the state onto itself bitwise ends the interval, since
    every later step would too. A chain with a lane that rolls more than a
    whole turn in one interval, or turns non-finite, fails: it reads NaN
    from then on. Returns (end states, failed-chain mask).
    """
    gam = np.array(gamma0, dtype=float).reshape(-1, chain)
    offsets = np.reshape(phase_offsets, gam.shape)
    drive = mu * np.reshape(gains, gam.shape)
    lap = np.eye(chain, k=1) + np.eye(chain, k=-1) - 2.0 * np.eye(chain)
    lap[0, 0] = lap[-1, -1] = -1.0
    spring = (mu * chain) * np.broadcast_to(kappa, len(gam))[:, None]
    h = dt / steps
    failed = np.zeros(len(gam), dtype=bool)
    gamma_ref = gam.copy()
    with np.errstate(invalid="ignore"):
        for n in range(n_intervals):
            phi1 = gamma_ref + omega * (n + 1) * dt - offsets
            start = gam.copy()
            top = np.maximum(start, phi1)

            def rate(x):
                return drive * np.sin(phi1 - x) + spring * (x @ lap)

            for _ in range(steps):
                k1 = rate(gam)
                k2 = rate(gam + (0.5 * h) * k1)
                k3 = rate(gam + (0.5 * h) * k2)
                k4 = rate(gam + h * k3)
                new = np.minimum(
                    gam + (h / 6.0) * (k1 + k4 + 2.0 * (k2 + k3)), top)
                if np.array_equal(new, gam, equal_nan=True):
                    break
                gam = new
            failed |= ~(np.abs(gam - start) <= TWO_PI).all(axis=1)
            gam[failed] = np.nan
    return gam.ravel(), failed


@pytest.fixture(scope="session")
def default_morph():
    return Morphology()


@pytest.fixture(scope="session")
def limbless_morph():
    return Morphology().limbless()


@pytest.fixture(scope="session")
def default_landscape(default_morph):
    return energy_landscape(default_morph, 1024)


@pytest.fixture(scope="session")
def limbless_landscape(limbless_morph):
    return energy_landscape(limbless_morph, 1024)
