"""Wave-equation unit tests: spot values, identities, and invariants."""

import math
import sys

import numpy as np
import pytest
from hypothesis import given, strategies as st

from selfright import (ConfigError, GaitParams, Morphology, coherence,
                       joint_vector, lateral_angle, vertical_angle)
from selfright.rollmodel import MAX_RESOLUTION, _trial_lanes

from conftest import FROZEN, oracle_coherence, oracle_lateral, oracle_vertical

amplitudes = st.floats(min_value=0.0, max_value=math.pi / 2)
omegas = st.floats(min_value=1e-3, max_value=10.0)
xis = st.floats(min_value=0.0, max_value=2.0)
times = st.floats(min_value=-100.0, max_value=100.0)
joint_counts = st.integers(min_value=1, max_value=8)


def make_params(amp, omega, xi, n, phase=0.0):
    return GaitParams(amplitude_lateral=amp, amplitude_vertical=amp,
                      temporal_frequency=omega, spatial_frequency=xi,
                      num_lateral_joints=n, lateral_phase=phase)


def test_spot_values_match_oracle():
    p = GaitParams(amplitude_lateral=math.pi / 4, temporal_frequency=1.0,
                   spatial_frequency=0.6, num_lateral_joints=4)
    assert lateral_angle(p, 0.0, 2) == pytest.approx(
        FROZEN["lateral_spot"], rel=1e-12)
    assert lateral_angle(p, 0.0, 2) == pytest.approx(
        oracle_lateral(math.pi / 4, 1.0, 0.6, 4, 0.0, 2), rel=1e-14)

    q = GaitParams(amplitude_vertical=math.pi / 9, temporal_frequency=1.0,
                   spatial_frequency=0.6, num_lateral_joints=4)
    assert vertical_angle(q, 1.0, 4) == pytest.approx(
        FROZEN["vertical_spot"], rel=1e-12)
    assert vertical_angle(q, 1.0, 4) == pytest.approx(
        oracle_vertical(math.pi / 9, 1.0, 0.6, 4, 1.0, 4), rel=1e-14)


def test_trivial_spot_values():
    p = GaitParams(amplitude_lateral=math.pi / 4, temporal_frequency=1.0)
    assert lateral_angle(p, 0.0, 1) == 0.0
    assert lateral_angle(p, math.pi / 2, 3) == pytest.approx(
        math.pi / 4, rel=1e-14)


@given(amp=amplitudes, omega=omegas, t=times, n=joint_counts,
       data=st.data())
def test_in_phase_wave_is_exact_special_case(amp, omega, t, n, data):
    """xi = 0 must reproduce the single-phase rolling wave bitwise."""
    i = data.draw(st.integers(min_value=1, max_value=n))
    p = make_params(amp, omega, 0.0, n)
    assert lateral_angle(p, t, i) == amp * math.sin(omega * t)
    assert vertical_angle(p, t, i) == amp * math.cos(omega * t)


@given(amp=amplitudes, omega=omegas, xi=xis, t=times, n=joint_counts,
       data=st.data())
def test_matches_direct_formula(amp, omega, xi, t, n, data):
    i = data.draw(st.integers(min_value=1, max_value=n))
    p = make_params(amp, omega, xi, n)
    assert lateral_angle(p, t, i) == pytest.approx(
        oracle_lateral(amp, omega, xi, n, t, i), abs=1e-12)
    assert vertical_angle(p, t, i) == pytest.approx(
        oracle_vertical(amp, omega, xi, n, t, i), abs=1e-12)


@given(amp=amplitudes, omega=omegas, xi=xis, t=times, n=joint_counts,
       data=st.data())
def test_quadrature_identity(amp, omega, xi, t, n, data):
    """Equal amplitudes: lateral^2 + vertical^2 = A^2 at every (t, i)."""
    i = data.draw(st.integers(min_value=1, max_value=n))
    p = make_params(amp, omega, xi, n)
    q = lateral_angle(p, t, i) ** 2 + vertical_angle(p, t, i) ** 2
    assert q == pytest.approx(amp * amp, abs=1e-12)


@given(amp=amplitudes, omega=omegas, xi=xis,
       t=st.floats(min_value=0.0, max_value=20.0),
       k=st.integers(min_value=-3, max_value=3))
def test_periodicity(amp, omega, xi, t, k):
    p = make_params(amp, omega, xi, 4)
    a = joint_vector(p, t)
    b = joint_vector(p, t + k * p.period)
    assert np.allclose(a.lateral, b.lateral, atol=1e-9)
    assert np.allclose(a.vertical, b.vertical, atol=1e-9)


@given(amp=amplitudes, omega=omegas, xi=xis,
       t=st.floats(min_value=0.0, max_value=20.0),
       n=st.integers(min_value=2, max_value=8), data=st.data())
def test_index_shift_equals_phase_shift(amp, omega, xi, t, n, data):
    i = data.draw(st.integers(min_value=1, max_value=n - 1))
    p = make_params(amp, omega, xi, n)
    shifted_t = t + 2.0 * math.pi * xi / (n * omega)
    assert lateral_angle(p, t, i + 1) == pytest.approx(
        lateral_angle(p, shifted_t, i), abs=1e-9)


@given(amp=amplitudes, omega=omegas, xi=xis, t=times)
def test_amplitude_bounds(amp, omega, xi, t):
    p = make_params(amp, omega, xi, 4)
    angles = joint_vector(p, t)
    assert np.abs(angles.lateral).max() <= amp + 1e-15
    assert np.abs(angles.vertical).max() <= amp + 1e-15


def test_joint_vector_matches_scalars():
    p = make_params(math.pi / 4, 1.0, 0.7, 4)
    angles = joint_vector(p, 2.5)
    assert len(angles.lateral) == 4
    assert len(angles.vertical) == 5
    for i in range(1, 5):
        assert angles.lateral[i - 1] == lateral_angle(p, 2.5, i)
    for i in range(1, 6):
        assert angles.vertical[i - 1] == vertical_angle(p, 2.5, i)


@pytest.mark.parametrize("xi", [0.0, 0.6, 1.2])
@pytest.mark.parametrize("lateral_phase", [0.0, math.pi / 2])
def test_joint_vector_batch_matches_scalars(xi, lateral_phase):
    """A batch of sample times gives bitwise the single-time vectors and
    the scalar evaluators' angles."""
    p = GaitParams(amplitude_lateral=math.pi / 3,
                   amplitude_vertical=math.pi / 9, temporal_frequency=1e-3,
                   spatial_frequency=xi, lateral_phase=lateral_phase)
    samples = p.period * np.arange(4 * 128 + 1) / 128
    batch = joint_vector(p, samples)
    assert batch.lateral.shape == (len(samples), 4)
    assert batch.vertical.shape == (len(samples), 5)
    for k, t in enumerate(samples.tolist()):
        one = joint_vector(p, t)
        assert one.lateral.tobytes() == batch.lateral[k].tobytes()
        assert one.vertical.tobytes() == batch.vertical[k].tobytes()
        assert batch.lateral[k].tolist() == [lateral_angle(p, t, i)
                                             for i in range(1, 5)]
        assert batch.vertical[k].tolist() == [vertical_angle(p, t, i)
                                              for i in range(1, 6)]


def test_in_phase_vector_has_identical_entries():
    p = make_params(math.pi / 4, 1.0, 0.0, 4)
    angles = joint_vector(p, 1.7)
    assert np.all(angles.lateral == angles.lateral[0])
    assert np.all(angles.vertical == angles.vertical[0])


def test_zero_amplitude_gives_zero_vectors():
    p = make_params(0.0, 1.0, 0.6, 4)
    angles = joint_vector(p, 3.1)
    assert np.all(angles.lateral == 0.0)
    assert np.all(angles.vertical == 0.0)


def test_param_validation():
    with pytest.raises(ConfigError):
        GaitParams(amplitude_lateral=math.pi / 2 + 0.01)
    with pytest.raises(ConfigError):
        GaitParams(amplitude_vertical=-0.1)
    with pytest.raises(ConfigError):
        GaitParams(temporal_frequency=0.0)
    with pytest.raises(ConfigError):
        GaitParams(spatial_frequency=-0.5)
    for name in ("temporal_frequency", "spatial_frequency", "lateral_phase"):
        for value in (math.inf, -math.inf, math.nan):
            with pytest.raises(ConfigError, match=name):
                GaitParams(**{name: value})
    with pytest.raises(ConfigError):
        GaitParams(num_lateral_joints=0)


def test_temporal_frequency_needs_finite_sample_times():
    """omega = 5e-324 and 6.3e-308 are positive and finite, but the period
    2*pi/omega (the first) or the last sample time period * MAX_RESOLUTION
    (the second) is not, and GaitParams names omega; at the smallest omega
    it takes, every sample time period * k, k <= MAX_RESOLUTION, is
    finite."""
    for omega in (5e-324, 6.3e-308):
        with pytest.raises(
                ConfigError,
                match="temporal_frequency must give a finite period"):
            GaitParams(temporal_frequency=omega)

    def last_time(omega):
        return 2.0 * math.pi / omega * MAX_RESOLUTION

    omega = 2.0 * math.pi * MAX_RESOLUTION / sys.float_info.max
    while math.isfinite(last_time(omega)):
        omega = math.nextafter(omega, 0.0)
    while not math.isfinite(last_time(omega)):
        omega = math.nextafter(omega, math.inf)
    with pytest.raises(ConfigError, match="temporal_frequency"):
        GaitParams(temporal_frequency=math.nextafter(omega, 0.0))
    period = GaitParams(temporal_frequency=omega).period
    assert np.isfinite(period * np.arange(MAX_RESOLUTION + 1)).all()


@pytest.mark.parametrize("n", [1, 4])
def test_largest_spatial_frequency_builds_finite_phases(n):
    """GaitParams takes xi only while 2*pi*xi*(2N + 1), the largest phase
    multiplier, is finite: at the largest such xi every joint angle, the
    coherence and the module offsets of a body that fits the gait are
    finite, and the next float up is rejected."""
    xi = math.nextafter(math.inf, 0.0) / (2.0 * math.pi * (2 * n + 1))
    while not math.isfinite(2.0 * math.pi * xi * (2 * n + 1)):
        xi = math.nextafter(xi, 0.0)
    while math.isfinite(2.0 * math.pi * math.nextafter(xi, math.inf)
                        * (2 * n + 1)):
        xi = math.nextafter(xi, math.inf)
    params = GaitParams(spatial_frequency=xi, num_lateral_joints=n)
    with pytest.raises(ConfigError, match="spatial_frequency"):
        GaitParams(spatial_frequency=math.nextafter(xi, math.inf),
                   num_lateral_joints=n)
    angles = joint_vector(params, np.array([0.0, 1.0]))
    assert np.isfinite(angles.lateral).all()
    assert np.isfinite(angles.vertical).all()
    assert math.isfinite(coherence(xi, n))
    morph = Morphology(num_modules=2 * n + 2)
    _, _, offsets = _trial_lanes(params, morph, "segmented", [0.0], [1.0])
    assert np.isfinite(offsets).all()


def test_joint_index_range():
    p = make_params(0.3, 1.0, 0.5, 4)
    with pytest.raises(IndexError):
        lateral_angle(p, 0.0, 0)
    with pytest.raises(IndexError):
        lateral_angle(p, 0.0, 5)
    with pytest.raises(IndexError):
        vertical_angle(p, 0.0, 6)
    vertical_angle(p, 0.0, 5)  # N+1 vertical joints exist


def test_coherence_endpoints():
    assert coherence(0.0) == 1.0
    assert coherence(1.0, 4) <= 1e-12
    assert coherence(4.0, 4) == pytest.approx(1.0, abs=1e-9)


@given(xi=st.floats(min_value=0.0, max_value=4.0),
       n=st.integers(min_value=1, max_value=8))
def test_coherence_matches_closed_form(xi, n):
    assert coherence(xi, n) == pytest.approx(
        oracle_coherence(xi, n), abs=1e-12)


def test_coherence_non_increasing_on_unit_interval():
    grid = np.linspace(0.0, 1.0, 101)
    vals = [coherence(x) for x in grid]
    diffs = np.diff(vals)
    assert (diffs <= 1e-12).all()
