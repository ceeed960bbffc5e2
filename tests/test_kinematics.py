"""Chain kinematics and cross-section geometry tests."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from selfright import (DimensionError, FramePose, GaitParams, GeometryError,
                       JointAngles, Morphology, body_wave_height,
                       center_of_mass, cross_section, forward_kinematics,
                       joint_vector, wave_height_slope)

from conftest import (FROZEN, is_orthonormal, oracle_chain_frames,
                      oracle_planar_chain)

MORPH = Morphology()

angle_arrays = st.lists(
    st.floats(min_value=-math.pi / 2, max_value=math.pi / 2),
    min_size=9, max_size=9)


def make_angles(values):
    vert = np.asarray(values[:5])
    lat = np.asarray(values[5:])
    return JointAngles(lateral=lat, vertical=vert)


def test_zero_angles_colinear():
    poses = forward_kinematics(MORPH, make_angles([0.0] * 9))
    for k, (pos, ori) in enumerate(zip(poses.position, poses.orientation)):
        assert np.allclose(pos, [k * MORPH.link_length, 0.0, 0.0], atol=1e-15)
        assert np.allclose(ori, np.eye(3), atol=1e-15)


@pytest.mark.parametrize("theta", [0.2, -0.35, 1.1])
def test_planar_chain_matches_closed_form(theta):
    """All lateral joints at theta trace a constant-turn polyline."""
    angles = JointAngles(lateral=np.full(4, theta), vertical=np.zeros(5))
    poses = forward_kinematics(MORPH, angles)
    expected = oracle_planar_chain(MORPH.num_modules, MORPH.link_length, theta)
    xy = poses.position[:, :2]
    z = poses.position[:, 2]
    assert np.allclose(xy, expected, atol=1e-12)
    assert np.allclose(z, 0.0, atol=1e-15)
    # total heading change: one theta per lateral joint
    head = poses.orientation[-1] @ np.array([1.0, 0.0, 0.0])
    total = math.atan2(head[1], head[0])
    wrapped = (4 * theta + math.pi) % (2 * math.pi) - math.pi
    assert total == pytest.approx(wrapped, abs=1e-12)


@given(values=angle_arrays)
def test_chain_length_conserved(values):
    poses = forward_kinematics(MORPH, make_angles(values))
    pts = poses.position
    steps = np.linalg.norm(np.diff(pts, axis=0), axis=1)
    assert np.allclose(steps, MORPH.link_length, atol=1e-12)
    total = steps.sum()
    assert total == pytest.approx((MORPH.num_modules - 1) * MORPH.link_length,
                                  abs=1e-12)


@given(values=angle_arrays)
def test_orientations_orthonormal(values):
    poses = forward_kinematics(MORPH, make_angles(values))
    assert is_orthonormal(poses.orientation, 1e-9)


def test_orthonormality_bulk():
    """Stress the drift bound over ten thousand random evaluations."""
    rng = np.random.default_rng(7)
    for _ in range(10_000 // MORPH.num_modules):
        values = rng.uniform(-math.pi / 2, math.pi / 2, 9)
        poses = forward_kinematics(MORPH, make_angles(values))
        assert is_orthonormal(poses.orientation, 1e-9)


def test_com_single_module():
    morph = Morphology(num_modules=2, link_length=1.0)
    com = center_of_mass(FramePose(position=np.zeros((1, 3)),
                                   orientation=np.eye(3)[None]), morph)
    assert np.allclose(com, [0.5, 0.0, 0.0], atol=1e-15)


def test_com_straight_chain():
    poses = forward_kinematics(MORPH, make_angles([0.0] * 9))
    com = center_of_mass(poses, MORPH)
    assert np.allclose(com, [MORPH.body_length / 2, 0.0, 0.0], atol=1e-12)


def test_com_right_angle_pair():
    """Two modules bent 90 degrees at the single (vertical) joint."""
    morph = Morphology(num_modules=2, link_length=1.0)
    angles = JointAngles(lateral=np.zeros(0), vertical=np.array([math.pi / 2]))
    poses = forward_kinematics(morph, angles)
    com = center_of_mass(poses, morph)
    # midpoints (0.5, 0, 0) and (1, 0, -0.5): positive pitch dives the head
    assert np.allclose(com, [0.75, 0.0, -0.25], atol=1e-12)


def test_com_empty_raises():
    with pytest.raises(DimensionError):
        center_of_mass(FramePose(position=np.zeros((0, 3)),
                                 orientation=np.zeros((0, 3, 3))), MORPH)


def test_fk_size_mismatch():
    with pytest.raises(DimensionError):
        forward_kinematics(MORPH, JointAngles(lateral=np.zeros(3),
                                              vertical=np.zeros(5)))


@pytest.mark.parametrize("xi", [0.0, 0.6, 1.2])
@pytest.mark.parametrize("lateral_phase", [0.0, math.pi / 2])
def test_fk_batch_matches_single_samples(xi, lateral_phase):
    """Frames and centre of mass of a sampled gait cycle, computed as one
    batch, equal the single-sample evaluations and the per-pose loop
    bitwise."""
    gait = GaitParams(amplitude_lateral=math.pi / 3,
                      amplitude_vertical=math.pi / 9, temporal_frequency=1e-3,
                      spatial_frequency=xi, lateral_phase=lateral_phase)
    times = gait.period * np.arange(4 * 128 + 1) / 128
    batch = forward_kinematics(MORPH, joint_vector(gait, times))
    coms = center_of_mass(batch, MORPH)
    assert batch.position.shape == (len(times), MORPH.num_modules, 3)
    for k, t in enumerate(times.tolist()):
        angles = joint_vector(gait, t)
        one = forward_kinematics(MORPH, angles)
        assert one.position.tobytes() == batch.position[k].tobytes()
        assert one.orientation.tobytes() == batch.orientation[k].tobytes()
        assert center_of_mass(one, MORPH).tobytes() == coms[k].tobytes()
        pos, ori = oracle_chain_frames(MORPH, angles.vertical, angles.lateral)
        assert pos.tobytes() == batch.position[k].tobytes()
        assert ori.tobytes() == batch.orientation[k].tobytes()


def test_morphology_validation():
    with pytest.raises(DimensionError):
        Morphology(num_modules=1)
    with pytest.raises(GeometryError):
        Morphology(link_length=-0.1)
    with pytest.raises(GeometryError):
        Morphology(module_mass=0.0)


@pytest.mark.parametrize("name, message", [
    ("link_length", "lengths"), ("body_radius", "lengths"),
    ("leg_length", "lengths"), ("leg_angle", "leg_angle"),
    ("module_mass", "module_mass")])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_morphology_rejects_non_finite(name, message, value):
    with pytest.raises(GeometryError, match=message):
        Morphology(**{name: value})


LENGTH = r"num_modules \* link_length must be finite"
WEIGHT_REACH = (r"total_mass \* g \* \(body_length \+ body_radius "
                r"\+ leg_length\) must be finite")


@pytest.mark.parametrize("name, value, message", [
    ("link_length", 1e308, LENGTH), ("num_modules", 10**400, LENGTH),
    ("module_mass", 1e308, WEIGHT_REACH),
    ("leg_length", 1.7e308, WEIGHT_REACH),
    ("leg_length", 1e308, WEIGHT_REACH),
    ("body_radius", 1e308, WEIGHT_REACH),
    ("link_length", 1e307, WEIGHT_REACH)])
def test_morphology_rejects_scales_that_overflow(name, value, message):
    """Each field is finite, but the body's length or its weight times its
    reach is not, so the roll landscape's barrier and slopes would be."""
    with pytest.raises(GeometryError, match=message):
        Morphology(**{name: value})


def test_limbless_cross_section_is_circle():
    r, tips = cross_section(MORPH.limbless())
    assert r == MORPH.body_radius
    assert tips.shape == (0, 2)


def test_cross_section_extent():
    r, tips = cross_section(MORPH)
    tip = MORPH.body_radius + MORPH.leg_length
    assert np.hypot(tips[:, 0], tips[:, 1]) == pytest.approx([tip, tip],
                                                             abs=1e-15)
    extent = max(r, tips[:, 0].max()) - min(-r, tips[:, 0].min())
    assert extent == pytest.approx(2 * tip, abs=1e-12)


@pytest.mark.parametrize("leg_angle", [0.0, 0.3])
def test_cross_section_half_turn_mirrors(leg_angle):
    """The tips mirror under y -> -y, so a half turn (y, z) -> (-y, -z)
    flips the outline across the floor (z -> -z)."""
    morph = replace(MORPH, leg_angle=leg_angle)
    _, tips = cross_section(morph)
    assert tips[1].tolist() == [-tips[0, 0], tips[0, 1]]
    assert tips[0].tolist() == pytest.approx(
        [(morph.body_radius + morph.leg_length) * math.cos(-leg_angle),
         (morph.body_radius + morph.leg_length) * math.sin(-leg_angle)],
        abs=1e-15)
    half_turn = sorted(map(tuple, (-tips).tolist()))
    flipped = sorted(map(tuple, (tips * [1.0, -1.0]).tolist()))
    assert half_turn == flipped


def test_cross_section_needs_radius():
    """A body without a radius has no cross-section; Morphology rejects
    it, so every body that constructs has one."""
    for radius in (0.0, -0.0):
        with pytest.raises(GeometryError,
                           match="body_radius must be positive"):
            cross_section(replace(MORPH, body_radius=radius))


def test_wave_height_zero_without_vertical_wave():
    p = GaitParams(amplitude_lateral=math.pi / 4, amplitude_vertical=0.0,
                   temporal_frequency=1.0)
    assert body_wave_height(MORPH, p, 0.37) == 0.0


def test_wave_height_peaks_at_cycle_start():
    p = GaitParams(temporal_frequency=1.0)
    peak = body_wave_height(MORPH, p, 0.0)
    assert peak > 0.0
    for t in np.linspace(0.0, 2 * math.pi, 33):
        assert body_wave_height(MORPH, p, t) <= peak + 1e-12


def test_wave_height_amplitude_ordering():
    big = GaitParams(amplitude_vertical=math.pi / 4, temporal_frequency=1.0)
    small = GaitParams(amplitude_vertical=math.pi / 12, temporal_frequency=1.0)
    assert (body_wave_height(MORPH, big, 0.0)
            > body_wave_height(MORPH, small, 0.0))
    mid = GaitParams(amplitude_lateral=0.0, amplitude_vertical=math.pi / 6,
                     temporal_frequency=1.0)
    assert body_wave_height(MORPH, mid, 0.0) == pytest.approx(
        FROZEN["wave_height_pi6"], rel=1e-12)


def test_wave_height_slope_linearization():
    assert wave_height_slope(MORPH) == pytest.approx(1.2, abs=1e-9)
