"""Anchored-contact sidewinding estimator tests."""

import math
from dataclasses import replace

import numpy as np
import pytest

from selfright import (ConfigError, ContactError, FramePose, GaitParams,
                       Morphology, contact_set,
                       displacement_trajectory, forward_kinematics,
                       joint_vector, lateral_displacement)
from selfright import sidewinding
from selfright.sidewinding import _module_low_points

from conftest import FROZEN, oracle_support_heights, oracle_trace

MORPH = Morphology()
OMEGA = 1e-3


def sidewinding_gait(xi=0.6, lateral_phase=0.0):
    """The two-amplitude gait of the displacement experiments."""
    return GaitParams(amplitude_lateral=math.pi / 3,
                      amplitude_vertical=math.pi / 9,
                      temporal_frequency=OMEGA, spatial_frequency=xi,
                      lateral_phase=lateral_phase)


def flat_poses():
    angles = joint_vector(GaitParams(amplitude_lateral=0.0,
                                     amplitude_vertical=0.0,
                                     temporal_frequency=OMEGA), 0.0)
    return forward_kinematics(MORPH, angles)


def contacts_of(poses, tol):
    """The modules in contact, from contact_set's mask of one posture."""
    return set(np.flatnonzero(contact_set(poses, MORPH, tol)).tolist())


def test_contact_straight_posture_touches_everywhere():
    contacts = contacts_of(flat_poses(), 0.002)
    assert contacts == set(range(MORPH.num_modules))


def test_contact_lifted_posture_is_proper_subset():
    angles = joint_vector(sidewinding_gait(), 0.0)
    poses = forward_kinematics(MORPH, angles)
    contacts = contacts_of(poses, 0.002)
    assert contacts
    assert len(contacts) < MORPH.num_modules


def test_contact_infinite_tolerance_takes_all():
    angles = joint_vector(sidewinding_gait(), 0.0)
    poses = forward_kinematics(MORPH, angles)
    assert contacts_of(poses, math.inf) == set(range(MORPH.num_modules))


def test_contact_rejects_negative_tolerance():
    with pytest.raises(ContactError):
        contact_set(flat_poses(), MORPH, -0.001)


@pytest.mark.parametrize("morph", [MORPH, MORPH.limbless(),
                                   replace(MORPH, leg_angle=0.3)])
def test_low_points_match_oracle(morph):
    """Closed-form module low points against the brute-force outline.

    A frame with rotation R puts the local transverse offset (y, z) at
    R21*y + R22*z = rho*(y*sin(g) + z*cos(g)) above its origin, with
    rho = hypot(R21, R22) and g = atan2(R21, R22): rho times the oracle's
    support height at roll g. The oracle's disc is a 4096-gon inscribed in
    the circle, so it can only come short, by at most
    r*(1 - cos(pi/4096)) = 8.8e-9 m at r = 3 cm; 1e-12 m covers rounding.
    """
    rng = np.random.default_rng(3)
    q, upper = np.linalg.qr(rng.normal(size=(500, 3, 3)))
    q *= np.sign(np.diagonal(upper, axis1=1, axis2=2))[:, None, :]
    q[np.linalg.det(q) < 0, :, 0] *= -1.0
    z = rng.uniform(-0.2, 0.2, 500)
    frames = FramePose(position=np.column_stack([np.zeros((500, 2)), z]),
                       orientation=q)
    depth = z - _module_low_points(frames, morph)
    rho = np.hypot(q[:, 2, 1], q[:, 2, 2])
    oracle = rho * oracle_support_heights(
        morph, np.arctan2(q[:, 2, 1], q[:, 2, 2]), n_disc=4096)
    gap = depth - oracle
    chord = morph.body_radius * (1.0 - math.cos(math.pi / 4096))
    assert gap.min() >= -1e-12
    assert gap.max() <= chord + 1e-12


def test_displacement_in_reported_band():
    report = lateral_displacement(sidewinding_gait(), MORPH)
    assert 0.2 <= report.lateral_displacement <= 0.7
    assert report.lateral_displacement == pytest.approx(
        FROZEN["sidewind_band"], rel=1e-12)
    assert 0.0 < report.contact_fraction <= 1.0


def test_higher_spatial_frequency_travels_less():
    fast = lateral_displacement(sidewinding_gait(xi=0.6), MORPH)
    slow = lateral_displacement(sidewinding_gait(xi=1.2), MORPH)
    assert fast.lateral_displacement > slow.lateral_displacement
    assert slow.lateral_displacement == pytest.approx(
        FROZEN["sidewind_xi12"], rel=1e-12)


def test_mirrored_gait_reverses_direction():
    """Flipping the lateral wave's sign mirrors the walk, same speed."""
    forward = lateral_displacement(sidewinding_gait(), MORPH)
    mirrored = lateral_displacement(sidewinding_gait(lateral_phase=math.pi),
                                    MORPH)
    assert mirrored.signed_lateral == pytest.approx(
        -forward.signed_lateral, abs=1e-6)
    assert mirrored.lateral_displacement == pytest.approx(
        forward.lateral_displacement, abs=1e-6)


def test_scale_invariance():
    """Uniform geometric scaling leaves body-lengths-per-cycle alone."""
    s = 2.5
    scaled = replace(MORPH, link_length=MORPH.link_length * s,
                     body_radius=MORPH.body_radius * s,
                     leg_length=MORPH.leg_length * s)
    base = lateral_displacement(sidewinding_gait(), MORPH, contact_tol=0.01)
    big = lateral_displacement(sidewinding_gait(), scaled,
                               contact_tol=0.01 * s)
    assert big.lateral_displacement == pytest.approx(
        base.lateral_displacement, abs=1e-9)


def test_no_lift_means_no_travel():
    grounded = GaitParams(amplitude_lateral=math.pi / 3,
                          amplitude_vertical=0.0,
                          temporal_frequency=OMEGA, spatial_frequency=0.6)
    report = lateral_displacement(grounded, MORPH)
    assert report.lateral_displacement == pytest.approx(0.0, abs=1e-9)


def test_validation():
    with pytest.raises(ConfigError):
        lateral_displacement(sidewinding_gait(), MORPH, cycles=0)
    with pytest.raises(ConfigError):
        lateral_displacement(sidewinding_gait(), MORPH, samples_per_cycle=4)


def test_sample_cap_counts_module_samples(monkeypatch):
    """The cap bounds (cycles * samples + 1) * modules, the module-samples
    of the whole trace: with it set to 2 cycles of 64 samples on the
    10-module body, those run and one more sample per cycle is an error."""
    monkeypatch.setattr(sidewinding, "MAX_RESOLUTION", (2 * 64 + 1) * 10)
    displacement_trajectory(sidewinding_gait(), MORPH, cycles=2,
                            samples_per_cycle=64)
    with pytest.raises(ConfigError, match=r"\* num_modules must be <= 1290, "
                                          r"got 1310"):
        displacement_trajectory(sidewinding_gait(), MORPH, cycles=2,
                                samples_per_cycle=65)


def test_trajectory_variant_agrees_with_report():
    cycles, samples = 2, 64
    report, path = displacement_trajectory(sidewinding_gait(), MORPH,
                                           cycles=cycles,
                                           samples_per_cycle=samples)
    direct = lateral_displacement(sidewinding_gait(), MORPH, cycles=cycles,
                                  samples_per_cycle=samples)
    assert report == direct
    assert path.shape == (cycles * samples + 1, 2)
    assert np.allclose(path[0], [0.0, 0.0], atol=1e-15)
    # the body actually goes somewhere
    assert np.linalg.norm(path[-1] - path[0]) > 0.01


def test_cycles_repeat_the_same_hop():
    """Each cycle repeats one maneuver, rotated by the accumulated turn.

    The hop distance between consecutive cycle marks is therefore a
    per-cycle constant even though the world path arcs. Each mark is the
    one cycle's motion turned and shifted by a few roundings, and the last
    one ends on the shape at t = one period, which rounds apart from the
    shape at t = 0 by a few ulp; 1e-12 of the hop allows far more than
    that.
    """
    _, path = displacement_trajectory(sidewinding_gait(), MORPH, cycles=3,
                                      samples_per_cycle=128)
    marks = path[::128]
    hops = np.linalg.norm(np.diff(marks, axis=0), axis=1)
    assert hops.max() - hops.min() <= 1e-12 * hops.mean()


@pytest.mark.parametrize("xi", [0.0, 0.6, 1.2])
@pytest.mark.parametrize("morph", [MORPH, MORPH.limbless(),
                                   replace(MORPH, leg_angle=0.3)])
def test_batched_trace_matches_oracle(morph, xi):
    """The one-cycle batched fit, composed over the cycles as powers of
    its rigid motion, against the per-step loop over every step of every
    cycle, both on the first cycle's shapes. Sums run in another order, so
    the bounds are absolute: the reciprocal wave's report fields are near
    0, where a relative bound means nothing."""
    for phase in (0.0, math.pi / 2):
        for tol in (0.01, 0.0, 0.002, 0.03):
            gait = sidewinding_gait(xi=xi, lateral_phase=phase)
            report, path = displacement_trajectory(
                gait, morph, cycles=4, samples_per_cycle=128, contact_tol=tol)
            fields, oracle_path = oracle_trace(gait, morph, 4, 128, tol)
            case = f"lateral_phase={phase} contact_tol={tol}"
            assert np.abs(path - oracle_path).max() <= 1e-12, case
            for name, want in fields.items():
                got = getattr(report, name)
                assert np.allclose(got, want, rtol=0.0, atol=1e-12), (
                    f"{case} {name}: {got} vs {want}")


def test_fit_planar_recovers_rigid_motion():
    """Points x + iy moved by a known rotation and translation fit back to
    it; a step with one anchor fits as a pure translation with theta
    exactly 0."""
    rng = np.random.default_rng(7)
    steps, modules = 200, 9
    x, y = rng.normal(size=(2, steps, modules))
    theta = rng.uniform(-3.0, 3.0, steps)
    trans = rng.normal(size=steps) + 1j * rng.normal(size=steps)
    c, s = np.cos(theta)[:, None], np.sin(theta)[:, None]
    moved = x + 1j * y
    still = (c * x - s * y) + 1j * (s * x + c * y) + trans[:, None]
    anchors = rng.random((steps, modules)) < 0.5
    anchors[:, :2] = True
    fit_theta, fit_trans = sidewinding._fit_planar(moved, still, anchors)
    assert np.abs(fit_theta - theta).max() <= 1e-12
    assert np.abs(fit_trans - trans).max() <= 1e-12

    single = np.zeros((steps, modules), dtype=bool)
    single[np.arange(steps), rng.integers(0, modules, steps)] = True
    fit_theta, fit_trans = sidewinding._fit_planar(moved, still, single)
    assert np.all(fit_theta == 0.0)
    expect = (still - moved)[single]
    assert np.abs(fit_trans - expect).max() <= 1e-12


def test_trace_fits_every_step_in_one_call(monkeypatch):
    """One trace makes one _fit_planar call, over the steps of one cycle,
    so a timer wrapped around that module attribute times the whole fit."""
    calls = []
    fit = sidewinding._fit_planar

    def counting(*args):
        calls.append(args)
        return fit(*args)

    monkeypatch.setattr(sidewinding, "_fit_planar", counting)
    displacement_trajectory(sidewinding_gait(), MORPH, cycles=2,
                            samples_per_cycle=64)
    assert len(calls) == 1
    assert calls[0][2].shape == (64, MORPH.num_modules)


@pytest.mark.parametrize("cycles", [1, 2, 4])
def test_one_cycle_of_kinematics_per_trace(monkeypatch, cycles):
    """A trace resolves the body's frames once, for one cycle's S + 1
    samples, however many cycles it composes."""
    calls = []
    fk = sidewinding.forward_kinematics

    def counting(morph, angles):
        calls.append(angles.lateral.shape[0])
        return fk(morph, angles)

    monkeypatch.setattr(sidewinding, "forward_kinematics", counting)
    _, path = displacement_trajectory(sidewinding_gait(), MORPH,
                                      cycles=cycles, samples_per_cycle=64)
    assert calls == [64 + 1]
    assert len(path) == cycles * 64 + 1


@pytest.mark.parametrize("xi", [0.0, 0.6, 1.2])
def test_cycle_marks_are_powers_of_one_cycle_motion(xi):
    """The path at each cycle mark is g_cycle^c applied to the start:
    g_cycle's turn H is the one-cycle report's heading and its shift T
    the one-cycle path's end (the body-frame origin starts at 0), and the
    powers are built here by 2x2 products. Absolute bound, as in the
    oracle test."""
    samples, cycles = 128, 4
    one, one_path = displacement_trajectory(
        sidewinding_gait(xi=xi), MORPH, cycles=1, samples_per_cycle=samples)
    _, path = displacement_trajectory(
        sidewinding_gait(xi=xi), MORPH, cycles=cycles,
        samples_per_cycle=samples)
    h, shift = one.heading_per_cycle_rad, one_path[-1]
    step_rot = np.array([[math.cos(h), -math.sin(h)],
                         [math.sin(h), math.cos(h)]])
    rot, trans, marks = np.eye(2), np.zeros(2), []
    for _ in range(cycles + 1):
        marks.append(trans)
        trans = rot @ shift + trans
        rot = rot @ step_rot
    assert np.abs(path[::samples] - np.array(marks)).max() <= 1e-12


@pytest.mark.parametrize("xi, degrees", [(0.0, -116.05), (0.6, -118.78),
                                         (1.2, -39.69)])
def test_heading_per_cycle_independent_of_cycles(xi, degrees):
    """Every cycle repeats the same shapes, so it turns the body by the same
    angle. The value still changes with samples_per_cycle (the per-cycle
    heading does not converge in samples under the thresholded contacts)."""
    one = lateral_displacement(sidewinding_gait(xi=xi), MORPH, cycles=1)
    four = lateral_displacement(sidewinding_gait(xi=xi), MORPH, cycles=4)
    assert four.heading_per_cycle_rad == pytest.approx(
        one.heading_per_cycle_rad, abs=1e-9)
    assert math.degrees(one.heading_per_cycle_rad) == pytest.approx(
        degrees, abs=0.005)
