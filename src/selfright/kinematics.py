"""Forward kinematics and body geometry of the alternating-axis chain.

A body of M modules is joined by M-1 single-axis joints that alternate
vertical (pitch, odd joint numbers) and lateral (yaw, even joint numbers)
along the chain. Module cross-sections are discs of radius r; optional
static legs extend the transverse silhouette.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, GeometryError
from .gait import GaitParams, JointAngles, joint_vector

# Number of disc vertices in the cross-section polygon. Chord error at
# r = 3 cm is below 0.1 mm, well under the contact tolerances in use.
DISC_VERTICES = 64

# Half-width (m) of the thin triangles standing in for the leg plates.
LEG_HALF_WIDTH = 0.001


@dataclass(frozen=True)
class Morphology:
    """Geometry and mass of the body. leg_length = 0 is the limbless body."""

    num_modules: int = 10
    link_length: float = 0.06
    body_radius: float = 0.03
    leg_length: float = 0.11
    leg_angle: float = 0.0
    module_mass: float = 0.1

    def __post_init__(self) -> None:
        if self.num_modules < 2:
            raise DimensionError("num_modules must be >= 2")
        if self.link_length < 0 or self.body_radius < 0 or self.leg_length < 0:
            raise GeometryError("lengths must be >= 0")
        if self.module_mass <= 0:
            raise GeometryError("module_mass must be positive")

    @property
    def num_joints(self) -> int:
        return self.num_modules - 1

    @property
    def num_vertical_joints(self) -> int:
        # Odd joint numbers 1, 3, ... are vertical.
        return (self.num_joints + 1) // 2

    @property
    def num_lateral_joints(self) -> int:
        return self.num_joints // 2

    @property
    def body_length(self) -> float:
        return self.num_modules * self.link_length

    @property
    def total_mass(self) -> float:
        return self.num_modules * self.module_mass

    def limbless(self) -> "Morphology":
        return dataclasses.replace(self, leg_length=0.0)


@dataclass(frozen=True)
class FramePose:
    """Position and orientation of one module frame."""

    position: np.ndarray
    orientation: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "position", np.asarray(self.position, dtype=float))
        object.__setattr__(self, "orientation", np.asarray(self.orientation, dtype=float))
        if self.position.shape != (3,) or self.orientation.shape != (3, 3):
            raise DimensionError("FramePose needs a 3-vector and a 3x3 matrix")

    @staticmethod
    def identity() -> "FramePose":
        return FramePose(position=np.zeros(3), orientation=np.eye(3))

    def is_orthonormal(self, tol: float = 1e-9) -> bool:
        r = self.orientation
        return (np.abs(r @ r.T - np.eye(3)).max() <= tol
                and abs(np.linalg.det(r) - 1.0) <= tol)


def _rot_y(angle: float) -> np.ndarray:
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])


def _rot_z(angle: float) -> np.ndarray:
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def forward_kinematics(morph: Morphology, angles: JointAngles,
                       base: FramePose | None = None) -> list[FramePose]:
    """Module frames of the chain under the given joint angles.

    Module k+1 sits one link_length along module k's local x axis; the
    joint between them rotates about module k's local y (vertical joint,
    positive pitches the head down) or z (lateral joint) axis.
    """
    if base is None:
        base = FramePose.identity()
    n_vert = morph.num_vertical_joints
    n_lat = morph.num_lateral_joints
    if len(angles.vertical) != n_vert or len(angles.lateral) != n_lat:
        raise DimensionError(
            f"need {n_vert} vertical / {n_lat} lateral angles, "
            f"got {len(angles.vertical)} / {len(angles.lateral)}")

    step = np.array([morph.link_length, 0.0, 0.0])
    pos = base.position.copy()
    ori = base.orientation.copy()
    poses = [FramePose(position=pos, orientation=ori)]
    for j in range(1, morph.num_joints + 1):
        if j % 2 == 1:
            rot = _rot_y(angles.vertical[(j - 1) // 2])
        else:
            rot = _rot_z(angles.lateral[j // 2 - 1])
        pos = pos + ori @ step
        ori = ori @ rot
        poses.append(FramePose(position=pos, orientation=ori))
    return poses


def center_of_mass(poses: list[FramePose], morph: Morphology) -> np.ndarray:
    """Mass-weighted mean of module midpoints (uniform masses: plain mean)."""
    if not poses:
        raise DimensionError("center_of_mass needs at least one pose")
    half_step = np.array([morph.link_length / 2.0, 0.0, 0.0])
    mids = np.array([p.position + p.orientation @ half_step for p in poses])
    return mids.mean(axis=0)


def cross_section(morph: Morphology, gamma: float) -> np.ndarray:
    """Transverse silhouette of one module at roll angle gamma.

    Returns an (n, 2) vertex array of a simple polygon: the body disc as a
    regular polygon with two thin leg triangles spliced into its boundary,
    everything rotated rigidly by gamma.
    """
    r = morph.body_radius
    if r <= 0:
        raise GeometryError("body_radius must be positive for a cross-section")

    disc_angles = np.arange(DISC_VERTICES) * (2.0 * math.pi / DISC_VERTICES)
    if morph.leg_length <= 0:
        verts = np.column_stack([r * np.cos(disc_angles), r * np.sin(disc_angles)])
    else:
        tip = r + morph.leg_length
        # Angular half-span of the leg base on the disc boundary.
        half = math.atan2(LEG_HALF_WIDTH, r)
        leg_headings = [-morph.leg_angle, math.pi + morph.leg_angle]
        # The silhouette is star-shaped around the axis, so sorting samples
        # by polar angle yields a simple polygon: disc vertices outside the
        # leg spans plus a (base, tip, base) wedge per leg.
        samples: list[tuple[float, float]] = []
        for th in disc_angles:
            if not any(_ang_dist(th, h) <= half for h in leg_headings):
                samples.append((th, r))
        for h in leg_headings:
            samples.append((h - half, r))
            samples.append((h, tip))
            samples.append((h + half, r))
        samples.sort(key=lambda ar: math.fmod(ar[0] + 2.0 * math.pi, 2.0 * math.pi))
        verts = np.array([(rad * math.cos(th), rad * math.sin(th))
                          for th, rad in samples])

    c, s = math.cos(gamma), math.sin(gamma)
    rot = np.array([[c, -s], [s, c]])
    return verts @ rot.T


def _ang_dist(a: float, b: float) -> float:
    d = math.fmod(a - b, 2.0 * math.pi)
    if d < -math.pi:
        d += 2.0 * math.pi
    elif d > math.pi:
        d -= 2.0 * math.pi
    return abs(d)


def polygon_area(verts: np.ndarray) -> float:
    """Shoelace area of a simple polygon."""
    x, y = verts[:, 0], verts[:, 1]
    return 0.5 * abs(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1)))


def body_wave_height(morph: Morphology, params: GaitParams, t: float) -> float:
    """Height span (max minus min) of module origins at time t, base flat."""
    angles = joint_vector(params, t)
    poses = forward_kinematics(morph, angles)
    z = np.array([p.position[2] for p in poses])
    return float(z.max() - z.min())


def wave_height_slope(morph: Morphology, num_lateral_joints: int = 4) -> float:
    """Small-amplitude slope of the peak wave height in A_vert.

    Measured at the in-phase wave's height peak (t = 0, xi = 0); used to
    linearize the roll-drive gain in the vertical amplitude.
    """
    eps = 1e-6
    params = GaitParams(amplitude_lateral=0.0, amplitude_vertical=eps,
                        temporal_frequency=1.0, spatial_frequency=0.0,
                        num_lateral_joints=num_lateral_joints)
    return body_wave_height(morph, params, 0.0) / eps
