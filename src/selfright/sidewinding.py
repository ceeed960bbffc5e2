"""Kinematic lateral-displacement estimator for sidewinding gaits.

Trials that do not self-right can still translate: the vertical wave lifts
part of the body while the lateral wave reshapes it, and the grounded
segments act as anchors. This module samples the gait, treats the contact
set as anchored between consecutive samples (no slip), fits the planar
rigid motion that keeps the anchors still, and accumulates the body's net
lateral displacement per cycle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ContactError
from .gait import TWO_PI, GaitParams, joint_vector
from .kinematics import (FramePose, Morphology, center_of_mass, cross_section,
                         forward_kinematics)

# Modules whose lowest silhouette point is within this height (m) of the
# lowest point of the whole body count as grounded. Acts as the effective
# settling depth of the rigid no-slip contact model.
DEFAULT_CONTACT_TOL = 0.01

DEFAULT_SAMPLES_PER_CYCLE = 128


@dataclass(frozen=True)
class DisplacementReport:
    """Net displacement of one sidewinding run, in body lengths per cycle."""

    lateral_displacement: float
    contact_fraction: float
    signed_lateral: float
    axial_drift: float
    net_xy: tuple[float, float]
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


def _fit_planar(moved: np.ndarray, still: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Least-squares planar rotation+translation mapping moved onto still.

    One anchor cannot determine a rotation, so a single point fits as a
    pure translation.
    """
    mb = moved.mean(axis=0)
    sb = still.mean(axis=0)
    if len(moved) == 1:
        theta = 0.0
    else:
        mc = moved - mb
        sc = still - sb
        sxx = float((mc[:, 0] * sc[:, 0] + mc[:, 1] * sc[:, 1]).sum())
        sxy = float((mc[:, 0] * sc[:, 1] - mc[:, 1] * sc[:, 0]).sum())
        theta = math.atan2(sxy, sxx)
    c, s = math.cos(theta), math.sin(theta)
    rot = np.array([[c, -s], [s, c]])
    trans = sb - rot @ mb
    return rot, trans


def _trace(params: GaitParams, morph: Morphology, cycles: int,
           samples_per_cycle: int,
           contact_tol: float) -> tuple[DisplacementReport, np.ndarray]:
    if cycles < 1:
        raise ConfigError("cycles must be >= 1")
    if samples_per_cycle < 8:
        raise ConfigError("samples_per_cycle must be >= 8")

    n_samples = cycles * samples_per_cycle
    period = TWO_PI / params.temporal_frequency
    times = period * np.arange(n_samples + 1) / samples_per_cycle
    frames = forward_kinematics(morph, joint_vector(params, times))
    origins = frames.position[..., :2]
    coms = center_of_mass(frames, morph)[:, :2]
    contacts = contact_set(frames, morph, contact_tol)
    # Disjoint sets fall back to their union, so the step n -> n+1 and its
    # reverse use the same anchors and their fits are inverses.
    shared = contacts[:-1] & contacts[1:]
    anchors = np.where(shared.any(axis=1, keepdims=True), shared,
                       contacts[:-1] | contacts[1:])

    # Accumulated planar pose of the body frame: world = rot @ body + trans.
    rot = np.eye(2)
    trans = np.zeros(2)
    com_world = [coms[0].copy()]
    base_world = [origins[0][0].copy()]
    axes = []
    ax0 = origins[0][-1] - origins[0][0]
    axes.append(ax0 / np.linalg.norm(ax0))
    for n in range(n_samples):
        step_rot, step_trans = _fit_planar(origins[n + 1][anchors[n]],
                                           origins[n][anchors[n]])
        trans = rot @ step_trans + trans
        rot = rot @ step_rot
        com_world.append(rot @ coms[n + 1] + trans)
        base_world.append(rot @ origins[n + 1][0] + trans)
        ax = origins[n + 1][-1] - origins[n + 1][0]
        axes.append(rot @ (ax / np.linalg.norm(ax)))

    mean_axis = np.mean(axes, axis=0)
    mean_axis = mean_axis / np.linalg.norm(mean_axis)
    net = com_world[-1] - com_world[0]
    axial = float(net @ mean_axis)
    perp_vec = net - axial * mean_axis
    # Scalar lateral component, signed by the axis-left direction.
    signed = float(mean_axis[0] * net[1] - mean_axis[1] * net[0])

    scale = morph.body_length * cycles
    frac = float(np.mean(contacts.sum(axis=1))) / morph.num_modules
    report = DisplacementReport(
        lateral_displacement=float(np.linalg.norm(perp_vec)) / scale,
        contact_fraction=frac,
        signed_lateral=signed / scale,
        axial_drift=axial / scale,
        net_xy=(float(net[0]), float(net[1])),
        cycles=cycles,
        samples_per_cycle=samples_per_cycle)
    return report, np.array(base_world)


def lateral_displacement(params: GaitParams, morph: Morphology,
                         cycles: int = 1,
                         samples_per_cycle: int = DEFAULT_SAMPLES_PER_CYCLE,
                         contact_tol: float = DEFAULT_CONTACT_TOL) -> DisplacementReport:
    """Net lateral translation of the body under the anchored-contact model.

    Samples the gait over whole cycles; between consecutive samples the
    shared contact modules (falling back to the union of both samples'
    contacts when the sets are disjoint) are held fixed in the world, and
    the planar rigid motion of the body accumulates. The anchor choice is
    the same in both directions of a step, so a gait that retraces its
    shapes (a reciprocal standing wave) returns to its start. Reports the
    magnitude of the center-of-mass displacement perpendicular to the
    mean body axis, normalized by body length and cycle count.
    """
    report, _ = _trace(params, morph, cycles, samples_per_cycle, contact_tol)
    return report


def displacement_trajectory(params: GaitParams, morph: Morphology,
                            cycles: int = 1,
                            samples_per_cycle: int = DEFAULT_SAMPLES_PER_CYCLE,
                            contact_tol: float = DEFAULT_CONTACT_TOL,
                            ) -> tuple[DisplacementReport, np.ndarray]:
    """As lateral_displacement, plus the world path of the body-frame origin.

    The path has one (x, y) row per sample, starting at the origin's
    initial position.
    """
    return _trace(params, morph, cycles, samples_per_cycle, contact_tol)
