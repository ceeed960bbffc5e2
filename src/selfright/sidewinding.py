"""Kinematic lateral-displacement estimator for sidewinding gaits.

Trials that do not self-right can still translate: the vertical wave lifts
part of the body while the lateral wave reshapes it, and the grounded
segments act as anchors. This module samples the gait, treats the contact
set as anchored between consecutive samples (no slip), fits the planar
rigid motion that keeps the anchors still, and accumulates the body's net
lateral displacement per cycle. The gait is periodic, so only one cycle is
sampled: its steps are fitted in one batch and composed into the cycle's
rigid motion g_cycle, and N cycles are its powers (the holonomy of the
closed shape loop; Hatton & Choset, IJRR 2011). Planar points, turns and
shifts are complex numbers x + iy, so a turn is one product.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ContactError
from .gait import TWO_PI, GaitParams, joint_vector
from .kinematics import (FramePose, Morphology, center_of_mass, cross_section,
                         forward_kinematics)
from .rollmodel import MAX_RESOLUTION

# Modules whose lowest silhouette point is within this height (m) of the
# lowest point of the whole body count as grounded. Acts as the effective
# settling depth of the rigid no-slip contact model.
DEFAULT_CONTACT_TOL = 0.01

DEFAULT_SAMPLES_PER_CYCLE = 128


@dataclass(frozen=True)
class DisplacementReport:
    """Net displacement of one sidewinding run, in body lengths per cycle,
    and the body's heading change per cycle in radians."""

    lateral_displacement: float
    contact_fraction: float
    signed_lateral: float
    axial_drift: float
    net_xy: tuple[float, float]
    heading_per_cycle_rad: float
    cycles: int
    samples_per_cycle: int


def contact_set(frames: FramePose, morph: Morphology,
                tol: float = DEFAULT_CONTACT_TOL) -> np.ndarray:
    """Mask of the modules whose lowest silhouette point reaches within tol
    of the floor.

    frames stacks module frames as forward_kinematics returns them; the
    mask has one entry per frame. The floor height is the minimum over the
    modules of each sample, so for tol >= 0 the lowest module of every
    sample is in contact by definition.
    """
    if tol < 0:
        raise ContactError("contact tolerance must be >= 0")
    lows = _module_low_points(frames, morph)
    contacts = lows - lows.min(axis=-1, keepdims=True) <= tol
    if not contacts.any(axis=-1).all():
        raise ContactError("empty contact set")
    return contacts


def _module_low_points(frames: FramePose, morph: Morphology) -> np.ndarray:
    """World height of each module silhouette's lowest point.

    A local transverse offset (y, z) sits R21*y + R22*z above the module
    origin, so the disc of radius r reaches r*hypot(R21, R22) below it and
    each leg tip of the cross-section sits where its offset puts it.
    """
    r, tips = cross_section(morph)
    r21 = frames.orientation[..., 2, 1]
    r22 = frames.orientation[..., 2, 2]
    z = frames.position[..., 2]
    lows = z - r * np.hypot(r21, r22)
    for y, z_tip in tips:
        lows = np.minimum(lows, z + (r21 * y + r22 * z_tip))
    return lows


def _fit_planar(moved: np.ndarray, still: np.ndarray,
                anchors: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Least-squares planar rotation+translation mapping moved onto still.

    Fits every step of the (steps, modules) stacks of complex points
    x + iy at once, on the points its row of the (steps, modules) anchor
    mask selects, and returns each step's theta and complex shift t with
    still = e^(i*theta) * moved + t. One anchor cannot determine a
    rotation, so a single anchor fits with theta = 0.
    """
    w = anchors.astype(float)
    count = w.sum(axis=1)
    mb = (w * moved).sum(axis=1) / count
    sb = (w * still).sum(axis=1) / count
    # conj(a) * b holds a . b as its real part and a x b as its imaginary,
    # so the summed products point at the best-fit turn.
    corr = (w * np.conj(moved - mb[:, None])
            * (still - sb[:, None])).sum(axis=1)
    theta = np.where(count > 1, np.angle(corr), 0.0)
    return theta, sb - np.exp(1j * theta) * mb


def displacement_trajectory(params: GaitParams, morph: Morphology,
                            cycles: int = 1,
                            samples_per_cycle: int = DEFAULT_SAMPLES_PER_CYCLE,
                            contact_tol: float = DEFAULT_CONTACT_TOL,
                            ) -> tuple[DisplacementReport, np.ndarray]:
    """Net lateral translation of the body under the anchored-contact
    model, and the world path of the body-frame origin.

    Samples one cycle of the gait, S = samples_per_cycle steps from t = 0
    to one period; between consecutive samples the shared contact modules
    (falling back to the union of both samples' contacts when the sets
    are disjoint) are held fixed in the world, and the planar rigid motion
    of the body accumulates into the cycle's rigid motion g_cycle. The
    anchor choice is the same in both directions of a step, so a gait that
    retraces its shapes (a reciprocal standing wave) returns to its start.
    Every cycle repeats those shapes and steps: sample c*S + k of cycle c
    takes shape k, posed by g_cycle^c, and the trace ends on shape S at
    c = cycles - 1. The report holds the magnitude of the center-of-mass displacement
    perpendicular to the mean body axis over all cycles * S + 1 samples,
    normalized by body length and cycle count, and g_cycle's turn as the
    heading per cycle. The path has one (x, y) row per sample, starting at
    the origin's initial position.
    """
    if cycles < 1:
        raise ConfigError("cycles must be >= 1")
    if samples_per_cycle < 8:
        raise ConfigError("samples_per_cycle must be >= 8")
    n_samples = cycles * samples_per_cycle
    # Bounds the composed path's N*S + 1 samples and, with N = 1, the
    # one cycle's kinematics, which allocates per module-sample.
    module_samples = (n_samples + 1) * morph.num_modules
    if module_samples > MAX_RESOLUTION:
        raise ConfigError(f"(cycles * samples_per_cycle + 1) * num_modules "
                          f"must be <= {MAX_RESOLUTION}, got {module_samples}")

    period = TWO_PI / params.temporal_frequency
    times = period * np.arange(samples_per_cycle + 1) / samples_per_cycle
    frames = forward_kinematics(morph, joint_vector(params, times))
    # Planar points as complex numbers x + iy: a turn by theta is a
    # product with e^(i*theta).
    origins = frames.position[..., 0] + 1j * frames.position[..., 1]
    com = center_of_mass(frames, morph)
    coms = com[:, 0] + 1j * com[:, 1]
    contacts = contact_set(frames, morph, contact_tol)
    # Disjoint sets fall back to their union, so the step n -> n+1 and its
    # reverse use the same anchors and their fits are inverses.
    shared = contacts[:-1] & contacts[1:]
    anchors = np.where(shared.any(axis=1, keepdims=True), shared,
                       contacts[:-1] | contacts[1:])

    # Step n maps sample n+1's body frame onto sample n's, so the body's
    # world pose (turn, shift) at sample n composes steps 0..n-1.
    theta, step = _fit_planar(origins[1:], origins[:-1], anchors)
    heading = np.cumsum(np.concatenate([[0.0], theta]))
    turn = np.exp(1j * heading)
    shift = np.concatenate([[0j], np.cumsum(turn[:-1] * step)])
    # g_cycle = (e^(iH), T), so cycle c starts at g_cycle^c: turned by
    # e^(icH) and shifted by the sum over j < c of e^(ijH) * T.
    turns = np.exp(1j * heading[-1] * np.arange(cycles))
    shifts = np.concatenate([[0j], np.cumsum(turns[:-1] * shift[-1])])

    # Cycle c's rows 0..S-1 are samples c*S.., then the last cycle's row S.
    base = turns[:, None] * (turn * origins[:, 0] + shift) + shifts[:, None]
    base = np.append(base[:, :-1], base[-1, -1])
    ax = origins[:, -1] - origins[:, 0]
    axes = turns[:, None] * (turn * (ax / np.abs(ax)))
    mean_axis = np.append(axes[:, :-1], axes[-1, -1]).mean()
    mean_axis /= np.abs(mean_axis)
    net = turns[-1] * (turn[-1] * coms[-1] + shift[-1]) + shifts[-1] - coms[0]
    # Axial drift and the lateral part signed by the axis-left direction.
    along = np.conj(mean_axis) * net

    scale = morph.body_length * cycles
    lateral = float(along.imag) / scale
    counts = contacts.sum(axis=1)
    in_contact = cycles * int(counts[:-1].sum()) + int(counts[-1])
    frac = in_contact / (n_samples + 1) / morph.num_modules
    report = DisplacementReport(
        lateral_displacement=abs(lateral),
        contact_fraction=frac,
        signed_lateral=lateral,
        axial_drift=float(along.real) / scale,
        net_xy=(float(net.real), float(net.imag)),
        heading_per_cycle_rad=float(heading[-1]),
        cycles=cycles,
        samples_per_cycle=samples_per_cycle)
    return report, np.column_stack([base.real, base.imag])


def lateral_displacement(params: GaitParams, morph: Morphology,
                         cycles: int = 1,
                         samples_per_cycle: int = DEFAULT_SAMPLES_PER_CYCLE,
                         contact_tol: float = DEFAULT_CONTACT_TOL) -> DisplacementReport:
    """The report of displacement_trajectory, without the path."""
    report, _ = displacement_trajectory(params, morph, cycles,
                                        samples_per_cycle, contact_tol)
    return report
