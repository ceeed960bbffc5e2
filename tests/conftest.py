"""Shared fixtures and independent oracles for the test suite.

The oracles here deliberately avoid the package's own geometry and
series code: closed-form trigonometry for the wave equations, a
Dirichlet-kernel form for phase coherence, a brute-force polygon-vertex
sampler for support heights, a 2D polyline walk for the planar chain,
a per-pose loop for the module frames, and a per-step loop for the
sidewinding trace. Frozen constants were
produced by these oracles and pinned so regressions surface as value
changes, not just property violations.
"""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from selfright import (Morphology, center_of_mass, contact_set,
                       energy_landscape, forward_kinematics, joint_vector)

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
    """Module frames of one posture, one joint and one 3x3 matrix at a time.

    The reference for the batched forward kinematics: the same products
    in the same order, so results agree bitwise.
    """
    step = np.array([morph.link_length, 0.0, 0.0])
    pos, ori = np.zeros(3), np.eye(3)
    positions, orientations = [pos], [ori]
    for j in range(1, morph.num_modules):
        angle = vertical[(j - 1) // 2] if j % 2 == 1 else lateral[j // 2 - 1]
        c, s = math.cos(angle), math.sin(angle)
        if j % 2 == 1:
            rot = np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])
        else:
            rot = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
        pos = pos + ori @ step
        ori = ori @ rot
        positions.append(pos)
        orientations.append(ori)
    return np.array(positions), np.array(orientations)


def oracle_trace(params, morph, cycles, samples_per_cycle, contact_tol):
    """The sidewinding trace, one step fit and one 2x2 pose product at a time.

    The reference for the batched trace: it shares the package's frames
    and contact masks, fits each step's anchors on their own and chains
    the rotation matrices. Returns the report's fields as a dict and the
    world path of the body-frame origin.
    """
    n_samples = cycles * samples_per_cycle
    times = (2.0 * math.pi / params.temporal_frequency
             * np.arange(n_samples + 1) / samples_per_cycle)
    frames = forward_kinematics(morph, joint_vector(params, times))
    origins = frames.position[..., :2]
    coms = center_of_mass(frames, morph)[:, :2]
    contacts = contact_set(frames, morph, contact_tol)
    rot, trans, heading = np.eye(2), np.zeros(2), 0.0
    com_world, base_world, axes = [coms[0]], [origins[0][0]], []
    ax0 = origins[0][-1] - origins[0][0]
    axes.append(ax0 / np.linalg.norm(ax0))
    for n in range(n_samples):
        anchors = contacts[n] & contacts[n + 1]
        if not anchors.any():
            anchors = contacts[n] | contacts[n + 1]
        moved, still = origins[n + 1][anchors], origins[n][anchors]
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
        com_world.append(rot @ coms[n + 1] + trans)
        base_world.append(rot @ origins[n + 1][0] + trans)
        ax = origins[n + 1][-1] - origins[n + 1][0]
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
            float(np.mean(contacts.sum(axis=1))) / morph.num_modules,
        "signed_lateral":
            float(mean_axis[0] * net[1] - mean_axis[1] * net[0]) / scale,
        "axial_drift": axial / scale,
        "net_xy": (float(net[0]), float(net[1])),
        "heading_per_cycle_rad": heading / cycles,
    }
    return fields, np.array(base_world)


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
