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

# Standard gravity, m/s^2.
GRAVITY = 9.80665


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
        if not all(0 <= x < math.inf for x in (
                self.link_length, self.body_radius, self.leg_length)):
            raise GeometryError("lengths must be finite and >= 0")
        if not math.isfinite(self.leg_angle):
            raise GeometryError("leg_angle must be finite")
        if self.body_radius <= 0:
            raise GeometryError("body_radius must be positive")
        if not 0 < self.module_mass < math.inf:
            raise GeometryError("module_mass must be positive and finite")
        # Each field is finite, but the scales built from them must be too:
        # the body's length, and its weight times its farthest reach, which
        # bounds the barrier and every slope of the roll landscape. A module
        # count past the float range overflows as they are built.
        try:
            length = self.body_length
            weight_reach = self.total_mass * GRAVITY * (
                length + self.body_radius + self.leg_length)
        except OverflowError:
            length = weight_reach = math.inf
        if not math.isfinite(length):
            raise GeometryError(
                f"num_modules * link_length must be finite, got "
                f"num_modules={self.num_modules}, "
                f"link_length={self.link_length}")
        if not math.isfinite(weight_reach):
            raise GeometryError(
                f"total_mass * g * (body_length + body_radius + leg_length) "
                f"must be finite, got module_mass={self.module_mass}, "
                f"link_length={self.link_length}, "
                f"body_radius={self.body_radius}, "
                f"leg_length={self.leg_length}")

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
    """Positions and orientations of one frame or of a stack of frames.

    position has shape (..., 3) and orientation (..., 3, 3) over the same
    leading axes.
    """

    position: np.ndarray
    orientation: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "position", np.asarray(self.position, dtype=float))
        object.__setattr__(self, "orientation", np.asarray(self.orientation, dtype=float))
        if (self.position.shape[-1:] != (3,)
                or self.orientation.shape != self.position.shape + (3,)):
            raise DimensionError(
                "FramePose needs (..., 3) positions and (..., 3, 3) orientations")


def _rotation(angle: np.ndarray, a: int, b: int) -> np.ndarray:
    """Rotations by angle (any shape) that turn axis a toward axis b."""
    c, s = np.cos(angle), np.sin(angle)
    rot = np.broadcast_to(np.eye(3), c.shape + (3, 3)).copy()
    rot[..., a, a] = c
    rot[..., a, b] = -s
    rot[..., b, a] = s
    rot[..., b, b] = c
    return rot


def forward_kinematics(morph: Morphology, angles: JointAngles) -> FramePose:
    """Module frames of the chain under the given joint angles.

    Module k+1 sits one link_length along module k's local x axis; the
    joint between them rotates about module k's local y (vertical joint,
    positive pitches the head down) or z (lateral joint) axis. Leading
    axes of the angle arrays are samples: the result stacks the module
    frames on the axis after them, (..., M, 3) positions and
    (..., M, 3, 3) orientations. Every sample starts from the world
    frame: module 0 at the origin, axes aligned.
    """
    n_vert = morph.num_vertical_joints
    n_lat = morph.num_lateral_joints
    if (angles.vertical.shape[-1:] != (n_vert,)
            or angles.lateral.shape[-1:] != (n_lat,)):
        raise DimensionError(
            f"need {n_vert} vertical / {n_lat} lateral angles, "
            f"got {angles.vertical.shape[-1:]} / {angles.lateral.shape[-1:]}")

    batch = angles.vertical.shape[:-1]
    step = np.array([morph.link_length, 0.0, 0.0])
    pos = np.zeros(batch + (3,))
    ori = np.broadcast_to(np.eye(3), batch + (3, 3))
    positions, orientations = [pos], [ori]
    for j in range(1, morph.num_joints + 1):
        if j % 2 == 1:
            rot = _rotation(angles.vertical[..., (j - 1) // 2], 2, 0)
        else:
            rot = _rotation(angles.lateral[..., j // 2 - 1], 0, 1)
        pos = pos + ori @ step
        ori = ori @ rot
        positions.append(pos)
        orientations.append(ori)
    return FramePose(position=np.stack(positions, axis=-2),
                     orientation=np.stack(orientations, axis=-3))


def center_of_mass(frames: FramePose, morph: Morphology) -> np.ndarray:
    """Mass-weighted mean of module midpoints (uniform masses: plain mean).

    frames stacks the module frames on its last leading axis, as
    forward_kinematics returns them; the result keeps any axes before it.
    """
    if frames.position.ndim < 2 or not frames.position.shape[-2]:
        raise DimensionError("center_of_mass needs at least one module frame")
    half_step = np.array([morph.link_length / 2.0, 0.0, 0.0])
    mids = frames.position + frames.orientation @ half_step
    return mids.mean(axis=-2)


def cross_section(morph: Morphology) -> tuple[float, np.ndarray]:
    """Transverse silhouette of one module in its local (y, z) plane.

    The outline is the body disc of radius r around the axis plus, on a
    legged body, two leg tips at r + L from it: one at heading -a, the
    other its mirror image under y -> -y. Returns (r, tips) with one (y, z)
    row per tip; a limbless body has none.
    """
    r = morph.body_radius
    if morph.leg_length <= 0:
        return r, np.empty((0, 2))
    tip, a = r + morph.leg_length, morph.leg_angle
    y, z = tip * math.cos(a), -tip * math.sin(a)
    return r, np.array([(y, z), (-y, z)])


def body_wave_height(morph: Morphology, params: GaitParams, t: float) -> float:
    """Height span (max minus min) of module origins at time t, base flat."""
    z = forward_kinematics(morph, joint_vector(params, t)).position[:, 2]
    return float(z.max() - z.min())


def wave_height_slope(morph: Morphology, num_lateral_joints: int = 4) -> float:
    """Small-amplitude slope of the peak wave height in A_vert.

    Measured at the in-phase wave's height peak (t = 0, xi = 0); used to
    linearize the roll-drive gain in the vertical amplitude.
    """
    eps = 1e-6
    params = GaitParams(amplitude_lateral=0.0, amplitude_vertical=eps,
                        num_lateral_joints=num_lateral_joints)
    return body_wave_height(morph, params, 0.0) / eps
