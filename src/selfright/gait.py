"""Two-wave gait generation for an alternating-axis joint chain.

The gait commands N lateral joints and N+1 vertical joints with sinusoids
sharing one temporal frequency and one spatial frequency:

    alpha_lat(t, i)  = A_l * sin(w*t + 2*pi*xi*i/N + lateral_phase)
    alpha_vert(t, i) = A_v * cos(w*t + 2*pi*xi*i/N)

xi = 0 degenerates to the in-phase rolling gait (every joint of an axis
shares one angle); xi > 0 staggers the wave along the body.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError

TWO_PI = 2.0 * math.pi

# Largest sample count of any per-sample array a command allocates:
# landscape samples, a trial's output intervals, gait samples or
# sidewinding module-samples ((cycles x samples + 1) x modules, which
# bounds both the one traced cycle's kinematics and the composed path).
# 2**20 samples already make a 60 MB energy.csv; the cap turns a larger
# request into a ConfigError before numpy tries to allocate it.
MAX_RESOLUTION = 2**20

# Servo-realistic joint limit; also keeps the kinematic chain from
# self-intersecting at full curl.
MAX_AMPLITUDE = math.pi / 2

# Default drive frequency, rad/s. The roll model is quasi-static: a lane
# relaxes toward its command at the rate mu*G (about 10 /s at the default
# gait), so its results depend on gait phase alone only while the drive is
# far slower. At a tenth of this frequency the default sweep grids move by
# at most 1.2e-5; at 1 rad/s, by up to 0.98.
QUASI_STATIC_OMEGA = 1e-3


@dataclass(frozen=True)
class GaitParams:
    """Parameters of the two-wave gait.

    lateral_phase shifts the lateral wave only; pi flips the handedness of
    the gait (mirror locomotion) without touching the vertical wave.
    """

    amplitude_lateral: float = math.pi / 4
    amplitude_vertical: float = math.pi / 4
    temporal_frequency: float = QUASI_STATIC_OMEGA
    spatial_frequency: float = 0.0
    num_lateral_joints: int = 4
    lateral_phase: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.amplitude_lateral <= MAX_AMPLITUDE:
            raise ConfigError(
                f"amplitude_lateral {self.amplitude_lateral} outside [0, pi/2]")
        if not 0.0 <= self.amplitude_vertical <= MAX_AMPLITUDE:
            raise ConfigError(
                f"amplitude_vertical {self.amplitude_vertical} outside [0, pi/2]")
        if not 0.0 < self.temporal_frequency < math.inf:
            raise ConfigError("temporal_frequency must be positive and finite")
        # Sample times are period * k before any division, with
        # k <= MAX_RESOLUTION (gait rows, sidewinding rows).
        if not math.isfinite(self.period * MAX_RESOLUTION):
            raise ConfigError(
                f"temporal_frequency must give a finite period "
                f"2*pi/temporal_frequency times {MAX_RESOLUTION} samples, "
                f"got {self.temporal_frequency}")
        # Every phase built from xi is 2*pi*xi*i / n with i <= n: i <= N + 1
        # for the joints, N for coherence and 2N + 1 for the last module's
        # offset on a body that fits the gait (rollmodel._trial_lanes).
        if not (0.0 <= self.spatial_frequency and math.isfinite(
                TWO_PI * self.spatial_frequency
                * (2 * self.num_lateral_joints + 1))):
            raise ConfigError(
                f"spatial_frequency must be finite and >= 0, with "
                f"2*pi*xi*(2*num_lateral_joints + 1) finite, got "
                f"{self.spatial_frequency}")
        if not math.isfinite(self.lateral_phase):
            raise ConfigError("lateral_phase must be finite")
        if self.num_lateral_joints < 1:
            raise ConfigError("num_lateral_joints must be >= 1")

    @property
    def num_vertical_joints(self) -> int:
        return self.num_lateral_joints + 1

    @property
    def period(self) -> float:
        return TWO_PI / self.temporal_frequency


@dataclass(frozen=True)
class JointAngles:
    """Joint angles of both waves at one instant or at a batch of instants.

    lateral and vertical have the joints on their last axis; any leading
    axes index the samples.
    """

    lateral: np.ndarray
    vertical: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "lateral", np.asarray(self.lateral, dtype=float))
        object.__setattr__(self, "vertical", np.asarray(self.vertical, dtype=float))


def _wave_phase(params: GaitParams, t, i):
    # Both waves share the 2*pi*xi*i/N spatial lag with N = lateral count.
    return (params.temporal_frequency * t
            + TWO_PI * params.spatial_frequency * i / params.num_lateral_joints)


def lateral_angle(params: GaitParams, t: float, i: int) -> float:
    """Lateral joint angle, joints indexed 1..N."""
    if not 1 <= i <= params.num_lateral_joints:
        raise IndexError(f"lateral joint index {i} outside 1..{params.num_lateral_joints}")
    return params.amplitude_lateral * math.sin(
        _wave_phase(params, t, i) + params.lateral_phase)


def vertical_angle(params: GaitParams, t: float, i: int) -> float:
    """Vertical joint angle, joints indexed 1..N+1."""
    if not 1 <= i <= params.num_vertical_joints:
        raise IndexError(f"vertical joint index {i} outside 1..{params.num_vertical_joints}")
    return params.amplitude_vertical * math.cos(_wave_phase(params, t, i))


def joint_vector(params: GaitParams, t: float | np.ndarray) -> JointAngles:
    """All joint angles at time t, a scalar or an array of sample times.

    The angle arrays have t's shape plus a trailing joint axis. They follow
    lateral_angle and vertical_angle operation by operation, so batch and
    scalar evaluations agree bitwise.
    """
    t = np.asarray(t, dtype=float)
    phase = _wave_phase(params, t[..., None],
                        np.arange(1, params.num_vertical_joints + 1))
    lat = params.amplitude_lateral * np.sin(
        phase[..., :params.num_lateral_joints] + params.lateral_phase)
    vert = params.amplitude_vertical * np.cos(phase)
    return JointAngles(lateral=lat, vertical=vert)


def coherence(xi: float, num_lateral_joints: int = 4) -> float:
    """Phase-coherence factor of the staggered segment roll commands.

    C(xi) = |sum_{i=1..N} exp(j*2*pi*xi*i/N)| / N. Equals 1 when all
    segments push in phase (xi = 0) and decays as the commands fan out.
    """
    n = num_lateral_joints
    if n < 1:
        raise ConfigError("num_lateral_joints must be >= 1")
    total = sum(cmath.exp(1j * TWO_PI * xi * i / n) for i in range(1, n + 1))
    return abs(total) / n
