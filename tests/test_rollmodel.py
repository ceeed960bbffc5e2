"""Roll-energy landscape and quasi-static integrator tests."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from selfright import (ConfigError, GaitParams, IntegrationError,
                       Morphology, PerturbationSpec, RollTrajectory,
                       RunConfig, coherence, drive_gain, energy_landscape,
                       run_sweep, simulate_roll, support_height)
from selfright import rollmodel
from selfright.rollmodel import (KAPPA_DEFAULT, MAX_RESOLUTION,
                                 MIN_STEPS_PER_CYCLE, MU_DEFAULT, STALL_STEP,
                                 STEPS_PER_CYCLE, _integrate, _stalled,
                                 _trial_lanes, support_pieces)
from selfright.config import RollSettings, SweepSettings
from selfright.sweep import cell_gait

from conftest import (FROZEN, GRAVITY, chain_energy, oracle_barrier,
                      oracle_integrate, oracle_march, oracle_rates,
                      oracle_support_heights)

MORPH = Morphology()
OMEGA = 1e-3
TWO_PI = 2.0 * math.pi


def quasi_static_gait(amplitude=math.pi / 4, xi=0.0):
    return GaitParams(amplitude_lateral=amplitude,
                      amplitude_vertical=amplitude,
                      temporal_frequency=OMEGA, spatial_frequency=xi)


def test_support_height_matches_polygon_oracle_on_grid():
    """Analytic support vs brute-force outline, commensurate angles."""
    gam = np.arange(4096) * (TWO_PI / 4096)
    for leg in (0.0, 0.01, 0.05, 0.11):
        morph = replace(MORPH, leg_length=leg)
        produced = support_height(morph, gam)
        assert np.abs(produced - oracle_support_heights(morph, gam)).max() \
            <= 1e-12


@given(gamma=st.floats(min_value=0.0, max_value=TWO_PI),
       leg=st.sampled_from([0.0, 0.03, 0.11]),
       leg_angle=st.sampled_from([0.0, 0.35]))
@settings(max_examples=60)
def test_support_height_matches_oracle_off_grid(gamma, leg, leg_angle):
    # off the commensurate grid the oracle's sampled circle sits up to
    # r*(1 - cos(pi/4096)) high, so allow that ripple
    morph = replace(MORPH, leg_length=leg, leg_angle=leg_angle)
    produced = support_height(morph, gamma)
    assert produced == pytest.approx(
        float(oracle_support_heights(morph, np.array([gamma]))[0]), abs=2e-8)


@given(gamma=st.floats(min_value=-10.0, max_value=10.0))
def test_support_height_periodic(gamma):
    assert support_height(MORPH, gamma) == pytest.approx(
        support_height(MORPH, gamma + TWO_PI), abs=1e-12)


@pytest.mark.parametrize("morph, n_kinks", [
    (MORPH, 4), (replace(MORPH, leg_length=0.03), 4),
    (replace(MORPH, leg_length=0.07), 4),
    # tips tilted below the disc at gamma = 0: the legs meet there
    (replace(MORPH, leg_angle=0.3), 3)])
def test_support_pieces_match_oracle(morph, n_kinks):
    """The piece table's slopes, integrated piece by piece, give the
    brute-force support heights, and each kink is a convex corner."""
    edges, slopes = support_pieces(morph)
    weight = morph.total_mass * GRAVITY
    assert len(edges) == len(slopes) + 1 == n_kinks + 1
    assert edges[0] == edges[-1] - TWO_PI
    assert np.all(np.diff(edges) > 0)
    for (lo, hi), (c, s) in zip(zip(edges[:-1], edges[1:]), slopes):
        gam = np.linspace(lo, hi, 257)
        rise = (c * (np.sin(gam) - math.sin(lo))
                - s * (np.cos(gam) - math.cos(lo)))
        oracle = oracle_support_heights(morph, gam)
        assert np.abs(rise - weight * (oracle - oracle[0])).max() \
            <= 2e-8 * weight
    # U' jumps up across every kink: the max of the candidates is convex.
    below = np.roll(slopes, 1, axis=0)
    jump = ((slopes[:, 0] - below[:, 0]) * np.cos(edges[:-1])
            + (slopes[:, 1] - below[:, 1]) * np.sin(edges[:-1]))
    assert np.all(jump > 0.1)


def test_support_pieces_limbless(limbless_morph):
    edges, slopes = support_pieces(limbless_morph)
    assert edges.tolist() == [-math.inf, math.inf]
    assert slopes.tolist() == [[0.0, 0.0]]


@pytest.mark.parametrize("leg_angle", [0.0, 0.3])
def test_legs_too_short_to_show_leave_the_limbless_table(limbless_morph,
                                                         leg_angle):
    """Legs so short (1e-59 m) that no tip reaches below the disc in
    floats leave no kink: the piece table is the limbless one, bitwise,
    and the landscape has no barrier."""
    morph = replace(MORPH, leg_length=1e-59, leg_angle=leg_angle)
    got, want = support_pieces(morph), support_pieces(limbless_morph)
    assert [v.tobytes() for v in got] == [v.tobytes() for v in want]
    assert energy_landscape(morph).barrier == 0.0


@settings(max_examples=500, deadline=None)
@given(leg=st.one_of(st.sampled_from([0.0, 5e-324, 1e-300, 1e-59]),
                     st.floats(0.0, 1e-12), st.floats(0.0, 10.0)),
       leg_angle=st.floats(-1e6, 1e6),
       radius=st.floats(1e-3, 1.0))
def test_support_pieces_slopes_are_zero_exactly_without_kinks(leg, leg_angle,
                                                              radius):
    """A piece table has all-zero slopes exactly when it has no kink
    (edges[0] infinite): the one switch _march_interval reads for its
    kink-free pass, whose rate is the drive alone. Legs from 0 through
    subnormal and tiny lengths to metres, at any angle, on any disc."""
    morph = replace(MORPH, leg_length=leg, leg_angle=leg_angle,
                    body_radius=radius)
    edges, slopes = support_pieces(morph)
    assert math.isinf(edges[0]) == (not slopes.any())


def test_landscape_slope_is_exact(default_landscape):
    """denergy is U' of the support pieces, not a difference of samples:
    away from the kinks it matches a fine central difference of the
    support height."""
    edges, _ = support_pieces(MORPH)
    gam = default_landscape.gamma_samples
    h = 1e-7
    fine = (MORPH.total_mass * GRAVITY / (2.0 * h)
            * (support_height(MORPH, gam + h) - support_height(MORPH, gam - h)))
    kinks = np.concatenate([edges, edges + TWO_PI])
    far = np.abs(gam[:, None] - kinks).min(axis=1) > 1e-5
    assert far.sum() >= 1000
    assert np.abs(default_landscape.denergy - fine)[far].max() <= 1e-6


def test_limbless_landscape_flat(limbless_landscape):
    span = limbless_landscape.energy.max() - limbless_landscape.energy.min()
    assert span <= 1e-6 * limbless_landscape.energy.mean()
    assert limbless_landscape.barrier <= 1e-6
    assert limbless_landscape.minima == ()
    # a flat slope is reported as 0, never -0
    assert not np.signbit(limbless_landscape.denergy).any()


def test_legged_landscape_bistable(default_landscape):
    """The minima are the middles of the flat disc pieces, the one that
    straddles 0 folded onto 0, not onto 2*pi."""
    minima = default_landscape.minima
    assert minima == pytest.approx([0.0, math.pi], abs=1e-12)
    assert all(0.0 <= g < TWO_PI for g in minima)


def test_barrier_frozen_value(default_landscape):
    assert default_landscape.barrier == pytest.approx(
        FROZEN["barrier_default"], rel=1e-12)
    # geometric identity: lifting the axis off the leg tip costs M*m*g*L
    assert default_landscape.barrier == pytest.approx(
        MORPH.total_mass * GRAVITY * MORPH.leg_length, rel=1e-12)


def test_barrier_strictly_increasing_with_leg_length():
    values = []
    for leg in (0.01, 0.05, 0.11):
        morph = replace(MORPH, leg_length=leg)
        land = energy_landscape(morph, 1024)
        brute = oracle_barrier(morph)
        assert land.barrier == pytest.approx(brute, abs=1e-9)
        values.append(land.barrier)
    assert values[0] < values[1] < values[2]


def test_barrier_non_decreasing_from_limbless():
    values = []
    for leg in (0.0, 0.03, 0.07, 0.11):
        land = energy_landscape(replace(MORPH, leg_length=leg), 1024)
        values.append(land.barrier)
    assert all(b >= a for a, b in zip(values, values[1:]))


def test_landscape_wraps_continuously(default_landscape):
    u_zero = default_landscape.energy[0]
    u_wrap = MORPH.total_mass * GRAVITY * support_height(MORPH, TWO_PI)
    assert u_zero == pytest.approx(u_wrap, abs=1e-9)


def test_landscape_resolution_guard():
    with pytest.raises(ConfigError):
        energy_landscape(MORPH, 63)
    # One past the cap raises before any sample is allocated.
    with pytest.raises(ConfigError, match="resolution"):
        energy_landscape(MORPH, MAX_RESOLUTION + 1)


@pytest.mark.parametrize("leg_angle", [0.3, 0.5])
@pytest.mark.parametrize("leg", [0.01, 0.05, 0.11, 0.3])
def test_angled_wells_match_dense_samples(leg_angle, leg):
    """Minima and barrier from the piece table against support_height at
    2**20 angles. The wells lie between the two path maxima; each well's
    minimum is the middle of its lowest samples, so a plateau reads its
    middle and a kink its corner."""
    morph = replace(MORPH, leg_angle=leg_angle, leg_length=leg)
    n = 2 ** 20
    step = TWO_PI / n
    u = morph.total_mass * GRAVITY * support_height(morph, np.arange(n) * step)
    half = n // 2
    down, up = np.argmax(u[:half + 1]), half + np.argmax(u[half:])
    land = energy_landscape(morph, 64)
    assert land.barrier == pytest.approx(min(u[down], u[up]) - u[half],
                                         abs=1e-9)
    wells = []
    for span in (np.arange(up, n + down + 1), np.arange(down, up + 1)):
        vals = u[span % n]
        lowest = span[vals == vals.min()]
        wells.append((lowest[0] + lowest[-1]) / 2.0 * step)
    minima = land.minima
    assert len(minima) == 2
    for found, oracle in zip(minima, wells):
        gap = math.remainder(found - oracle, TWO_PI)
        assert abs(gap) <= 1e-5


@pytest.mark.parametrize("leg, leg_angle", [(0.11, 0.0), (0.11, 0.3),
                                            (0.03, 0.0), (0.05, -1.0)])
def test_tops_are_the_maxima_of_the_sampled_landscape(leg, leg_angle):
    """_tops gives every local maximum of U and nothing else. On the
    brute-force outline at 4,096 angles, every sample that tops both
    neighbours and stands above the disc (the disc's polygon ripples by
    about 1e-9 m on its flat well) lies within one sample of a top, and
    every top has such a sample within one sample of it."""
    morph = replace(MORPH, leg_length=leg, leg_angle=leg_angle)
    tops = np.mod(rollmodel._tops(*support_pieces(morph)), TWO_PI)
    step = TWO_PI / 4096
    h = oracle_support_heights(morph, np.arange(4096) * step)
    peaks = np.flatnonzero((h >= np.roll(h, 1)) & (h >= np.roll(h, -1))
                           & (h > morph.body_radius + 1e-6)) * step
    gaps = np.abs(np.remainder(peaks[:, None] - tops + math.pi, TWO_PI)
                  - math.pi)
    assert tops.size == 2 and peaks.size >= 2
    assert (gaps.min(axis=0) <= step).all()
    assert (gaps.min(axis=1) <= step).all()


def test_drive_gain_zero_without_lift():
    p = GaitParams(amplitude_lateral=math.pi / 4, amplitude_vertical=0.0,
                   temporal_frequency=OMEGA)
    assert drive_gain(p, MORPH) == 0.0
    # Only the vertical wave lifts: at A_v = pi/4 the lateral amplitude
    # leaves the gain bitwise unchanged.
    gains = {drive_gain(replace(p, amplitude_vertical=math.pi / 4,
                                amplitude_lateral=a_l), MORPH)
             for a_l in (0.0, math.pi / 8, math.pi / 2)}
    assert gains == {drive_gain(quasi_static_gait(math.pi / 4), MORPH)}


@pytest.mark.parametrize("xi", [0.0, 0.6])
def test_drive_gain_ignores_the_lateral_amplitude(xi):
    """The gain is a calibrated law in A_v alone: at fixed A_v and xi,
    drive_gain and every segmented lane's gain keep their bits whatever
    the lateral amplitude (ROADMAP item 4). A model in which A_l acts on
    the roll moves sweep cells, and fails here first."""
    base = GaitParams(amplitude_vertical=math.pi / 6, spatial_frequency=xi)
    lumped, segmented = set(), set()
    for a_l in (0.0, math.pi / 4, math.pi / 2):
        gait = replace(base, amplitude_lateral=a_l)
        lumped.add(drive_gain(gait, MORPH))
        _, gains, _ = _trial_lanes(gait, MORPH, "segmented", [0.0], [1.0])
        segmented.add(gains.tobytes())
    assert len(lumped) == 1 and len(segmented) == 1
    assert lumped.pop() > 0.0


def test_drive_gain_frozen_and_monotone():
    assert drive_gain(quasi_static_gait(), MORPH) == pytest.approx(
        FROZEN["drive_gain_pi4"], rel=1e-12)
    assert (drive_gain(quasi_static_gait(math.pi / 4), MORPH)
            > drive_gain(quasi_static_gait(math.pi / 12), MORPH))


def test_drive_gain_coherence_factor():
    full = drive_gain(quasi_static_gait(), MORPH)
    staggered = drive_gain(quasi_static_gait(xi=0.6), MORPH)
    assert staggered == pytest.approx(full * coherence(0.6), rel=1e-12)
    cancelled = drive_gain(quasi_static_gait(xi=1.0), MORPH)
    assert cancelled <= 1e-12 * full


def test_limbless_tracks_command(limbless_morph):
    """Free-roll law: gamma follows the commanded phase within 0.05 rad."""
    for xi in (0.0, 0.2, 0.4, 0.6, 0.8):
        if coherence(xi) <= 0.05:
            continue
        traj = simulate_roll(quasi_static_gait(xi=xi), limbless_morph,
                             cycles=1.0)
        lag = np.abs(traj.gammas - OMEGA * traj.times).max()
        assert lag <= 0.05


def test_limbless_half_and_full_cycle(limbless_morph):
    half = simulate_roll(quasi_static_gait(), limbless_morph, cycles=0.5)
    assert half.delta_gamma_total == pytest.approx(math.pi, abs=1e-3)
    full = simulate_roll(quasi_static_gait(), limbless_morph, cycles=1.0)
    assert full.delta_gamma_total == pytest.approx(TWO_PI, abs=1e-3)
    assert not full.stalled
    assert full.self_righted
    assert full.rolls_per_cycle == pytest.approx(1.0, abs=1e-3)


def test_one_shot_success_and_failure():
    strong = simulate_roll(quasi_static_gait(math.pi / 4), MORPH, cycles=0.5)
    assert strong.self_righted
    assert strong.delta_gamma_total == pytest.approx(math.pi, abs=0.05)

    weak = simulate_roll(quasi_static_gait(math.pi / 12), MORPH, cycles=0.5)
    assert weak.delta_gamma_total < math.pi / 4
    assert not weak.self_righted
    assert weak.stalled


def test_half_cycle_rests_on_kink():
    """Below the steepest leg slope the A = pi/12 drive pushes the body
    across the flat disc piece and leaves it on the corner where the leg
    tip takes over, at asin(r/(r+L))."""
    traj = simulate_roll(quasi_static_gait(math.pi / 12), MORPH, cycles=0.5)
    tip = MORPH.body_radius + MORPH.leg_length
    assert abs(traj.gammas[-1] - math.asin(MORPH.body_radius / tip)) <= 1e-12


@pytest.mark.parametrize("omega", [1e-3, 1e-4, 1e-5])
def test_stall_rule_in_phase_units(limbless_morph, omega):
    """Stalling is judged against the command step, so it does not depend
    on the drive frequency of a quasi-static trial."""
    def gait(amplitude):
        return GaitParams(amplitude_lateral=amplitude,
                          amplitude_vertical=amplitude,
                          temporal_frequency=omega)

    free = simulate_roll(gait(math.pi / 4), limbless_morph, cycles=1.0)
    assert free.rolls_per_cycle == pytest.approx(1.0, abs=1e-9)
    assert not free.stalled
    assert simulate_roll(gait(math.pi / 12), MORPH, cycles=0.5).stalled


def test_stall_dominance():
    """Drive below the steepest landscape slope cannot complete a roll."""
    # U' is one sinusoid per piece; on this body each piece is steepest at
    # an end, and the steepest of all is where a leg tip takes the weight.
    edges, slopes = support_pieces(MORPH)
    ends = np.stack([edges[:-1], edges[1:]])
    slope_max = np.abs(slopes[:, 0] * np.cos(ends)
                       + slopes[:, 1] * np.sin(ends)).max()
    assert slope_max == pytest.approx(1.34104, abs=1e-5)
    for amplitude in (math.pi / 12, math.pi / 8):
        p = quasi_static_gait(amplitude)
        assert drive_gain(p, MORPH) < slope_max
        traj = simulate_roll(p, MORPH, cycles=1.0)
        assert traj.delta_gamma_total < math.pi / 2  # its one cycle


def first_crossing_times(traj, level):
    times = []
    for m in range(traj.gammas.shape[1]):
        idx = int(np.argmax(traj.gammas[:, m] >= level))
        assert traj.gammas[idx, m] >= level, "module never crossed"
        times.append(traj.times[idx])
    return times


@pytest.mark.parametrize("kappa", [0.0, 0.05])
def test_head_to_tail_propagation(kappa):
    """Modules reach pi/2, the default body's first maximum of U above the
    start, head before tail. Each module's righting interval is the first
    that ends strictly above pi/2: at kappa = 0 module 0 rests exactly on
    pi/2, its command phase, at the end of interval 64 and rights in 65."""
    traj = simulate_roll(quasi_static_gait(xi=0.6), MORPH, cycles=1.0,
                         mode="segmented", kappa=kappa)
    crossings = first_crossing_times(traj, math.pi / 2)
    assert all(b > a for a, b in zip(crossings, crossings[1:]))
    above = traj.gammas[1:] > math.pi / 2
    assert above.any(axis=0).all()
    assert traj.righting_intervals == tuple(
        (above.argmax(axis=0) + 1).tolist())


def test_quasi_static_limit_converged():
    """Ten times slower driving leaves the per-trial rolls unchanged.

    The model is quasi-static: within each output interval a lane settles
    on the root its drive and the landscape leave it, so the results
    depend on the gait phase, not on how long each phase step lasts.
    """
    grid = SweepSettings(amplitudes=(math.pi / 8, math.pi / 6, math.pi / 4),
                         xis=(0.0, 0.5))
    fast = run_sweep(RunConfig(sweep=grid,
                               gait=GaitParams(temporal_frequency=1e-3)))
    slow = run_sweep(RunConfig(sweep=grid,
                               gait=GaitParams(temporal_frequency=1e-4)))
    assert np.abs(fast.trial_rolls - slow.trial_rolls).max() <= 1e-9


def test_limbless_cancelled_drive_stays_at_rest(limbless_morph):
    """At xi = 1 the coherence factor is a rounding residue (~6e-18).

    A time-limited solver leaves the flat limbless body exactly where it
    started; one that jumped to the drive's root would follow the command
    and read P_sr = 1.
    """
    diagram = run_sweep(RunConfig(morphology=limbless_morph,
                                  sweep=SweepSettings(xis=(1.0,))))
    assert (diagram.trial_rolls == 0.0).all()
    assert (diagram.p_sr == 0.0).all()


def test_limbless_segmented_roll_shift_invariant(limbless_morph):
    """On a flat landscape the roll cannot depend on the starting angle.

    Staggered lanes that start above their command phase roll down to
    it, so this also checks that the solver bounds a lane's linearised
    rate below it as well as above.
    """
    rolls = [simulate_roll(quasi_static_gait(xi=0.6), limbless_morph,
                           cycles=1.0, gamma0=g0,
                           mode="segmented").delta_gamma_total
             for g0 in (-7.3, 0.0, 1.0, math.pi, 12.0)]
    assert np.ptp(rolls) <= 1e-9


def test_segmented_matches_lumped_in_phase():
    """xi=0: identical per-module commands must reduce to the lumped roll."""
    lumped = simulate_roll(quasi_static_gait(), MORPH, cycles=1.0)
    seg = simulate_roll(quasi_static_gait(), MORPH, cycles=1.0,
                        mode="segmented", kappa=0.5)
    per_module = seg.gammas[-1] - seg.gammas[0]
    lump_total = lumped.delta_gamma_total
    # documented tolerance is 5 percent per cycle
    assert np.abs(per_module - lump_total).max() <= 0.05 * TWO_PI
    # the splitting is exact when all modules share one phase
    assert np.array_equal(seg.gammas, np.repeat(
        lumped.gammas[:, None], MORPH.num_modules, axis=1))


@pytest.mark.parametrize("kappa", [
    0.0,
    pytest.param(KAPPA_DEFAULT, marks=pytest.mark.xfail(
        raises=IntegrationError, strict=True,
        reason="ROADMAP item 1: the coupling torque, held fixed over an "
               "output interval, rolls the chain more than a whole turn"))])
def test_limbless_segmented_cell_integrates(limbless_morph, kappa):
    """One trial of the default limbless segmented grid's cell A = pi/24,
    xi = 0.6, from the inverted pose: uncoupled it integrates, and at the
    default kappa it fails in output interval 1, as do 249 of that grid's
    715 trials."""
    traj = simulate_roll(cell_gait(RunConfig(), math.pi / 24, 0.6),
                         limbless_morph, cycles=1.0, gamma0=math.pi,
                         mode="segmented", kappa=kappa)
    assert np.isfinite(traj.gammas).all()


def test_segmented_large_coupling_out_of_phase_errors():
    with pytest.raises(IntegrationError):
        simulate_roll(quasi_static_gait(xi=0.6), MORPH, cycles=1.0,
                      mode="segmented", kappa=0.5)


def test_perturbed_runs_deterministic():
    """One stream, one trajectory; another seed, cell or trial is another
    stream."""
    spec = PerturbationSpec()
    runs = [simulate_roll(quasi_static_gait(), MORPH, cycles=1.0,
                          perturb=spec, stream=stream)
            for stream in ((123, 0, 0), (123, 0, 0), (124, 0, 0), (123, 1, 0),
                           (123, 0, 1))]
    assert np.array_equal(runs[0].gammas, runs[1].gammas)
    for other in runs[2:]:
        assert not np.array_equal(runs[0].gammas, other.gammas)


def test_perturbation_requires_stream():
    with pytest.raises(ConfigError, match="explicit stream"):
        simulate_roll(quasi_static_gait(), MORPH, cycles=1.0,
                      perturb=PerturbationSpec())
    for stream in ((-1, 0, 0), (0, -1, 0), (0, 0, 2**32)):
        with pytest.raises(ConfigError, match="stream must be"):
            simulate_roll(quasi_static_gait(), MORPH, cycles=1.0,
                          perturb=PerturbationSpec(), stream=stream)
    # an all-zero perturbation needs no randomness
    simulate_roll(quasi_static_gait(), MORPH, cycles=1.0,
                  perturb=PerturbationSpec(gamma_jitter=0.0, gain_noise=0.0))


@pytest.mark.parametrize("widths", [
    dict(gamma_jitter=-0.5), dict(gain_noise=-1.0),
    dict(gamma_jitter=math.nan), dict(gain_noise=math.inf),
    dict(gamma_jitter=1e308)])
def test_perturbation_widths_validated(widths):
    with pytest.raises(ConfigError, match="gamma_jitter and gain_noise"):
        PerturbationSpec(**widths)


def test_simulate_validation():
    with pytest.raises(ConfigError):
        simulate_roll(quasi_static_gait(), MORPH, cycles=0.0)
    span = "at least one and at most 1048576 output intervals"
    for cycles in (1e-4, 0.49 / STEPS_PER_CYCLE):
        with pytest.raises(ConfigError, match=span):
            simulate_roll(quasi_static_gait(), MORPH, cycles=cycles)
    with pytest.raises(ConfigError):
        simulate_roll(quasi_static_gait(), MORPH, steps_per_cycle=199)
    for name, value in (("mu", 0.0), ("mu", math.inf), ("mu", math.nan),
                        ("kappa", -1.0), ("kappa", math.inf)):
        with pytest.raises(ConfigError, match=name):
            simulate_roll(quasi_static_gait(), MORPH, **{name: value})
    for cycles in (MAX_RESOLUTION / STEPS_PER_CYCLE + 0.01, 1e308):
        with pytest.raises(ConfigError, match=span):
            simulate_roll(quasi_static_gait(), MORPH, cycles=cycles)
    with pytest.raises(ConfigError):
        simulate_roll(quasi_static_gait(), MORPH, mode="hybrid")
    for gamma0 in (math.inf, math.nan, np.r_[np.zeros(9), -math.inf]):
        with pytest.raises(ConfigError, match="gamma0 must be finite"):
            simulate_roll(quasi_static_gait(), MORPH, gamma0=gamma0,
                          mode="segmented")


def test_trajectory_time_axis(limbless_morph):
    cycles = 2.0
    traj = simulate_roll(quasi_static_gait(), limbless_morph, cycles=cycles)
    assert traj.times[0] == 0.0
    assert np.all(np.diff(traj.times) > 0)
    assert traj.times[-1] == pytest.approx(cycles * TWO_PI / OMEGA, rel=1e-12)
    assert traj.cycles == 2.0


@pytest.mark.parametrize("cycles", [1.4 / STEPS_PER_CYCLE,
                                    2.4 / STEPS_PER_CYCLE, 0.3, 0.5])
def test_fractional_trial_normalised_by_span_integrated(limbless_morph,
                                                        cycles):
    """cycles rounds to whole output intervals, and a trial without a full
    cycle reports its rolls over that span: a limbless body follows its
    command, so it reads one roll per cycle at any span."""
    traj = simulate_roll(quasi_static_gait(), limbless_morph, cycles=cycles)
    intervals = len(traj.times) - 1
    assert intervals == round(cycles * STEPS_PER_CYCLE)
    assert traj.cycles == intervals / STEPS_PER_CYCLE
    assert traj.rolls_per_cycle == pytest.approx(1.0, rel=1e-12)


def test_trajectory_initial_state():
    traj = simulate_roll(quasi_static_gait(), MORPH, cycles=1.0, gamma0=1.25)
    assert traj.gammas[0] == 1.25


def test_per_module_start_is_rejected():
    """A trial starts from one roll angle, as a sweep trial does, so a
    per-module start is rejected, whatever its length; a perturbed start
    takes the trial's jitter on every module."""
    gait, spec = quasi_static_gait(xi=0.6), PerturbationSpec()
    for gamma0 in (np.full(MORPH.num_modules, math.pi), np.zeros(3),
                   [math.pi]):
        with pytest.raises(ConfigError, match="one value"):
            simulate_roll(gait, MORPH, gamma0=gamma0, perturb=spec,
                          mode="segmented", stream=(7, 0, 0))
    traj = simulate_roll(gait, MORPH, gamma0=math.pi, perturb=spec,
                         mode="segmented", stream=(7, 0, 0))
    start = traj.gammas[0]
    assert (start == start[0]).all() and start[0] != math.pi


def lane_batch(morph, mode, grid, seed=0, starts=None):
    """Lanes of gain-perturbed trials per (amplitude, xi): two jittered
    ones near pi, or one at each of the given starts."""
    rng = np.random.default_rng(seed)
    cells = []
    for amplitude, xi in grid:
        gamma = (math.pi + rng.uniform(-0.2, 0.2, 2) if starts is None
                 else np.asarray(starts))
        cells.append(_trial_lanes(
            quasi_static_gait(amplitude, xi), morph, mode, gamma,
            1.0 + rng.uniform(-0.1, 0.1, len(gamma))))
    gamma0, gains, offsets = map(np.concatenate, zip(*cells))
    return gamma0, gains, offsets, 1 if mode == "lumped" else morph.num_modules


ORACLE_GRID = [(amplitude, xi)
               for amplitude in (math.pi / 8, math.pi / 6, math.pi / 4,
                                 math.pi / 3)
               for xi in (0.0, 0.6)]


def integrate_against_oracle(morph, batch, mu, kappa):
    """Run _integrate and the relocating oracle on one lane batch over two
    cycles; require bitwise-equal records, stalled flags read off the
    records, and failures."""
    gamma0, gains, offsets, chain = batch
    dt = TWO_PI / OMEGA / 256
    args = (support_pieces(morph), gains, gamma0, OMEGA, dt, 512, mu)
    kw = dict(phase_offsets=offsets, kappa=kappa, chain=chain)
    records, failures = _integrate(*args, **kw)
    want_records, want_stalled, want_failures = oracle_integrate(
        *args, **kw, steps_per_cycle=256)
    assert np.array_equal(records, want_records, equal_nan=True)
    assert np.array_equal(_stalled(records, STALL_STEP * OMEGA * dt, 64),
                          want_stalled)
    assert failures == want_failures
    return records, failures, chain


@pytest.mark.parametrize("mu", [5.0, 0.05])
@pytest.mark.parametrize("mode, kappa", [
    ("lumped", KAPPA_DEFAULT), ("segmented", KAPPA_DEFAULT),
    ("segmented", 0.0)], ids=["lumped", "segmented", "segmented-kappa0"])
@pytest.mark.parametrize("morph", [MORPH, MORPH.limbless()],
                         ids=["legged", "limbless"])
def test_integrate_matches_relocating_oracle(morph, mode, kappa, mu):
    """Carried pieces give the relocating marcher's results bitwise.

    At mu = 0.05 lanes spend only part of an interval reaching a kink, so
    the time left after it (tau) must come from the lane's state before
    the interval; at mu = 5 tanh(k*tau) rounds to 1 and would hide it.
    Lumped lanes and kappa = 0 chains march with no bias, coupled chains
    with one, each on the sloped and the flat table.
    """
    integrate_against_oracle(morph, lane_batch(morph, mode, ORACLE_GRID), mu,
                             kappa)


def kink_start_batch(leg_angle, mode):
    """Lanes that start exactly on a kink, in the first turn or a turn up
    or down, with the body's morphology and the batch.

    A lumped trial's command starts at its own roll, and such a lane has
    not been seen to reach a kink from inside a piece while its rate on
    the next piece changes sign between its start and the kink; lumped
    lanes whose command starts off their roll do. So the lumped batch
    runs every trial twice, the second time with its command phase
    spread over a turn: a marcher that settled those lanes by the next
    piece's rate at their start would fail on it.
    """
    morph = replace(MORPH, leg_angle=leg_angle)
    edges, _ = support_pieces(morph)
    starts = (edges[1:] + TWO_PI * np.array([[-1.0], [0.0], [1.0]])).ravel()
    grid = [(amplitude, xi)
            for amplitude in (math.pi / 8, math.pi / 4, math.pi / 3)
            for xi in (0.0, 0.6)]
    gamma0, gains, offsets, chain = lane_batch(morph, mode, grid,
                                               starts=starts)
    if mode == "lumped":
        gamma0, gains = np.tile(gamma0, 2), np.tile(gains, 2)
        offsets = np.append(offsets, np.linspace(0.0, TWO_PI, len(offsets),
                                                 endpoint=False))
    return morph, (gamma0, gains, offsets, chain)


@pytest.mark.parametrize("mu", [5.0, 0.05])
@pytest.mark.parametrize("mode", ["lumped", "segmented"])
@pytest.mark.parametrize("leg_angle", [0.0, 0.3])
def test_lanes_starting_on_kinks_match_relocating_oracle(leg_angle, mode,
                                                         mu):
    """Lanes that start on a kink settle or leave it in the first pass of
    an interval; the result is the relocating marcher's, bitwise. Bodies
    with 4 and 3 kinks per turn."""
    integrate_against_oracle(*kink_start_batch(leg_angle, mode), mu,
                             KAPPA_DEFAULT)


def limbless_spread_batch(mode):
    """Lanes of the limbless body from starts spread over two turns, with
    the lumped batch run a second time with its command phase spread over
    a turn, so that some lanes start near the repeller (lag = pi)."""
    morph = MORPH.limbless()
    starts = np.linspace(-TWO_PI, TWO_PI, 7)
    gamma0, gains, offsets, chain = lane_batch(morph, mode, ORACLE_GRID,
                                               starts=starts)
    if mode == "lumped":
        gamma0, gains = np.tile(gamma0, 2), np.tile(gains, 2)
        offsets = np.append(offsets, np.linspace(0.0, TWO_PI, len(offsets),
                                                 endpoint=False))
    return morph, (gamma0, gains, offsets, chain)


@pytest.mark.parametrize("mu", [5.0, 0.05])
@pytest.mark.parametrize("mode", ["lumped", "segmented"])
@pytest.mark.parametrize("leg_angle", [0.0, 0.3,
                                       pytest.param(None, id="limbless")])
def test_march_without_bias_equals_zero_bias(leg_angle, mode, mu):
    """No bias (None) and a zero bias array march the kink-start lanes to
    the same bits: states, pieces, turns and failed lanes, interval after
    interval. The two differ only in the sign of a zero rate, which moves
    no lane. On the limbless body (leg_angle None) the flat solve takes
    None as b = 0 in one formula, so spread lanes keep the same bits too,
    with the bias-free factors computed per call or once (flat), as
    _integrate computes them."""
    morph, (gamma0, gains, offsets, _) = (
        limbless_spread_batch(mode) if leg_angle is None
        else kink_start_batch(leg_angle, mode))
    edges, slopes = support_pieces(morph)
    tables = (edges, *np.ascontiguousarray(slopes.T))
    turn, angle = np.divmod(gamma0, TWO_PI)
    piece = np.searchsorted(edges[1:], angle, side="right")
    turn, piece = turn + piece // len(slopes), piece % len(slopes)
    dt = TWO_PI / OMEGA / 256
    lanes = [[gamma0, piece.copy(), turn.copy()] for _ in range(3)]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        flat = rollmodel._flat_factors(gains, None, 0.5 * mu * dt)
        for n in range(64):
            phi1 = gamma0 + OMEGA * (n + 1) * dt - offsets
            marched = []
            for state, bias, factors in zip(
                    lanes, (None, np.zeros(len(gamma0)), None),
                    (None, None, flat)):
                gam, piece, turn = state
                state[0], failed = rollmodel._march_interval(
                    gam, piece, turn, phi1, gains, bias, tables, mu, dt,
                    flat=factors)
                marched.append([v.tobytes() for v in state + failed])
            assert marched[0] == marched[1] == marched[2]


def test_limbless_in_phase_chain_equals_lumped(limbless_morph):
    """xi = 0 on the flat table: a coupled chain (kappa = 0.5) marches its
    lanes with a zero bias array, the lumped trial with no bias and the
    factors computed once; the chain's every module equals the lumped
    trajectory bitwise over a grid of amplitudes, starts and mobilities."""
    for amplitude in (math.pi / 24, math.pi / 8, math.pi / 4, math.pi / 2):
        gait = quasi_static_gait(amplitude)
        for gamma0 in (-7.3, 0.0, 1.0, math.pi, 12.0):
            for mu in (0.05, 0.5, 5.0, 50.0, 500.0):
                lumped = simulate_roll(gait, limbless_morph, gamma0=gamma0,
                                       mu=mu)
                seg = simulate_roll(gait, limbless_morph, gamma0=gamma0,
                                    mu=mu, mode="segmented", kappa=0.5)
                assert np.array_equal(seg.gammas, np.repeat(
                    lumped.gammas[:, None], limbless_morph.num_modules,
                    axis=1)), (amplitude, gamma0, mu)


@pytest.mark.parametrize("kappa", [0.5, 0.0])
def test_failing_chains_match_relocating_oracle(kappa):
    """A chain that starts NaN fails in the first interval, and at
    kappa = 0.5 a staggered chain fails mid-run; both then read NaN while
    their batch mates march on exactly as in the relocating marcher."""
    batch = lane_batch(MORPH, "segmented",
                       [(math.pi / 4, 0.0), (math.pi / 4, 0.6)])
    batch[0][-3] = np.nan
    records, failures, chain = integrate_against_oracle(MORPH, batch, 5.0,
                                                        kappa)
    assert failures[3] == "non-finite roll state in output interval 0"
    assert np.isnan(records[1:, -chain:]).all()
    assert np.isfinite(records[:, :chain]).all()
    if kappa:
        assert "whole turn" in failures[2]
        assert "interval 0" not in failures[2]


@pytest.fixture
def rate_sizes(monkeypatch):
    """The lane count of every rate evaluation: each pass of the marcher
    computes the rate's angle terms once, for all its lanes, and on a flat
    table one closed-form solve moves all of them."""
    sizes = []

    def counting(evaluate):
        def counted(g, *args):
            sizes.append(len(g))
            return evaluate(g, *args)
        return counted

    for name in ("_angle_terms", "_flat_solve"):
        monkeypatch.setattr(rollmodel, name,
                            counting(getattr(rollmodel, name)))
    return sizes


def test_rates_evaluated_once_per_interval_on_one_piece(rate_sizes,
                                                         limbless_morph):
    """A flat body's lanes never reach a kink, so each output interval
    takes one flat solve; on a legged sweep no evaluation is empty."""
    simulate_roll(quasi_static_gait(xi=0.6), limbless_morph, cycles=1.5)
    assert len(rate_sizes) == 384
    rate_sizes.clear()
    for mode in ("lumped", "segmented"):
        run_sweep(RunConfig(morphology=MORPH, mode=mode, sweep=SweepSettings(
            amplitudes=(math.pi / 8, math.pi / 4), xis=(0.0, 0.6),
            trials_per_cell=2, cycles_per_trial=1)))
    assert len(rate_sizes) > 2 * 256
    assert min(rate_sizes) >= 1


def test_lane_resting_on_a_kink_settles_in_the_first_pass(rate_sizes):
    """A stuck trial rests on a kink for most of its intervals. While it
    is marched, each rest is settled by the interval's first pass, without
    a kink pass; once a block ends with it held, it is parked for the
    whole blocks of its rest span and not marched at all. The trajectory
    is the relocating marcher's, bitwise."""
    gait = quasi_static_gait(math.pi / 8)
    traj = simulate_roll(gait, MORPH, cycles=3.0, gamma0=math.pi)
    assert traj.stalled and len(traj.gammas) == 769
    # 774 rate evaluations when every interval is marched, 150 parked.
    assert 0 < len(rate_sizes) <= 150
    want, _, _ = oracle_integrate(
        support_pieces(MORPH), np.array([drive_gain(gait, MORPH)]),
        np.array([math.pi]), OMEGA, TWO_PI / OMEGA / 256, 768, MU_DEFAULT,
        phase_offsets=np.zeros(1))
    assert np.array_equal(traj.gammas, want[:, 0])


def test_lane_leaving_a_kink_marches_in_the_first_pass(rate_sizes):
    """Two lanes start on the kink they head for, one down from the piece
    above it and one up from the piece below it, and keep their rate's
    sign on the next piece. Each switches piece at no cost in time and is
    marched along the next piece by the interval's first pass, without a
    kink pass; neither reaches that piece's far edge. The result is the
    relocating marcher's, bitwise."""
    edges, slopes = support_pieces(MORPH)
    gam = edges[[1, 2]]
    piece, turn = np.array([1, 1]), np.zeros(2)
    phi1 = gam + np.array([-0.1, 0.1])
    gains, bias = np.full(2, 5.0), np.zeros(2)
    here, _ = oracle_rates(gam, phi1, gains, bias, slopes[[1, 1]])
    beyond, _ = oracle_rates(gam, phi1, gains, bias, slopes[[0, 2]])
    assert (here < 0.0).tolist() == [True, False]
    assert (here * beyond > 0.0).all()

    mu, dt = 0.05, TWO_PI / OMEGA / 256
    tables = (edges, *np.ascontiguousarray(slopes.T))
    out, failed = rollmodel._march_interval(gam, piece, turn, phi1, gains,
                                            bias, tables, mu, dt)
    assert len(rate_sizes) == 1 and not failed
    assert piece.tolist() == [0, 2] and turn.tolist() == [0.0, 0.0]
    assert edges[0] < out[0] < gam[0] and gam[1] < out[1] < edges[3]
    want = gam.copy()
    assert not oracle_march(want, np.arange(2), phi1, gains, bias,
                            (edges, slopes), mu, dt)
    assert np.array_equal(out, want)


# Largest rounding of a lane's energy change. On these sweeps |E| stays
# below 10 J and |gamma| below 30 rad, so E rounds by well under 1e-13 J.
ENERGY_ROUNDING = 1e-12


@pytest.mark.parametrize("morph", [MORPH, MORPH.limbless()],
                         ids=["legged", "limbless"])
def test_march_never_raises_a_lumped_lane_energy(monkeypatch, morph):
    """Every lane-interval of the default lumped sweep is marched once or
    parked. A marched one, with caps, kink settles and kink passes, lowers
    chain_energy or keeps it, to rounding: a check of the marcher that
    needs no second solver. A parked one keeps its roll bitwise. The
    legged sweep parks about half of its lane-intervals; a flat body has
    no kink and parks none. Lanes are told apart by their gains."""
    march, integrate = rollmodel._march_interval, rollmodel._integrate
    rises, marched, run = [], [], {}

    def checked(gam, piece, turn, phi1, gains, bias, *args, **kwargs):
        assert bias is None  # a lumped lane is never biased
        out, failed = march(gam, piece, turn, phi1, gains, bias, *args,
                            **kwargs)
        rises.append((chain_energy(morph, out, phi1, gains)
                      - chain_energy(morph, gam, phi1, gains)).max())
        marched.append(run["order"][np.searchsorted(
            run["gains"], gains, sorter=run["order"])])
        return out, failed

    def recorded(pieces, gains, *args, **kwargs):
        assert len(np.unique(gains)) == len(gains)
        run["order"], run["gains"] = np.argsort(gains), gains
        run["records"], failures = integrate(pieces, gains, *args,
                                             **dict(kwargs, stride=1))
        return run["records"][[0, -1]], failures

    monkeypatch.setattr(rollmodel, "_march_interval", checked)
    monkeypatch.setattr(rollmodel, "_integrate", recorded)
    run_sweep(RunConfig(morphology=morph))
    records = run["records"]
    assert len(marched) == 768 and records.shape == (769, 715)
    n_marched = n_parked = 0
    for n, lanes in enumerate(marched):
        parked = np.ones(715, dtype=bool)
        parked[lanes] = False
        assert len(lanes) + np.count_nonzero(parked) == 715
        assert np.array_equal(records[n + 1, parked], records[n, parked])
        n_marched += len(lanes)
        n_parked += np.count_nonzero(parked)
    assert n_marched + n_parked == 549_120
    assert n_parked == (260_544 if morph is MORPH else 0)
    assert max(rises) <= ENERGY_ROUNDING


def test_march_never_raises_a_kappa0_chain_energy(monkeypatch):
    """kappa = 0 chains march with no bias, so each lane is the lumped
    equation at its own command phase, and chain_energy applies to it as
    it is: every marched lane-interval of a small segmented grid either
    side of the pi/6 threshold lowers its energy or keeps it, to rounding.
    The lanes of a chain share a gain, so lanes are not told apart here;
    their chains park, which the block test checks bitwise."""
    march = rollmodel._march_interval
    rises = []

    def checked(gam, piece, turn, phi1, gains, bias, *args, **kwargs):
        assert bias is None  # an uncoupled chain is never biased
        out, failed = march(gam, piece, turn, phi1, gains, bias, *args,
                            **kwargs)
        rises.append((chain_energy(MORPH, out, phi1, gains)
                      - chain_energy(MORPH, gam, phi1, gains)).max())
        return out, failed

    monkeypatch.setattr(rollmodel, "_march_interval", checked)
    diagram = run_sweep(RunConfig(
        mode="segmented", roll=RollSettings(kappa=0.0),
        sweep=SweepSettings(amplitudes=(math.pi / 8, math.pi / 6,
                                        math.pi / 4),
                            xis=(0.0, 0.6), trials_per_cell=2,
                            cycles_per_trial=2)))
    assert diagram.errors == ()
    assert 0 < len(rises) <= 512
    assert max(rises) <= ENERGY_ROUNDING


def test_chain_energy_gradient_is_minus_the_coupled_rate():
    """chain_energy's coupling term is the one the marcher's coupling
    torque comes from. For chains of 10 lanes off the kinks, at kappa 0.5,
    a central difference of E in each lane's roll is minus that lane's
    rate b + G*sin(phi - g) - U'(g), with b = kappa*M*(twist difference)
    and a chain's ends twisted against one neighbour only."""
    rng = np.random.default_rng(5)
    edges, slopes = support_pieces(MORPH)
    gam = rng.uniform(-10.0, 10.0, 30)
    gam = gam[np.abs(np.remainder(gam[:, None] - edges + math.pi, TWO_PI)
                     - math.pi).min(axis=1) > 1e-3][:20]
    phi1 = gam + rng.uniform(-2.0, 2.0, gam.size)
    gains = rng.uniform(0.0, 3.0, gam.size)
    kappa, m, h = 0.5, 10, 1e-6
    twist = np.pad(np.diff(gam.reshape(-1, m), axis=1), ((0, 0), (1, 1)))
    bias = (kappa * m) * np.diff(twist, axis=1).ravel()
    piece = locate(gam, edges, len(slopes))[0]
    rate = oracle_rates(gam, phi1, gains, bias, slopes[piece])[0]
    for k in range(gam.size):
        up, down = gam.copy(), gam.copy()
        up[k] += h
        down[k] -= h
        de = (chain_energy(MORPH, up, phi1, gains, kappa, m)
              - chain_energy(MORPH, down, phi1, gains, kappa, m)) / (2 * h)
        assert de[k // m] == pytest.approx(-rate[k], abs=1e-6)
        assert np.delete(de, k // m).tolist() == [0.0]


@pytest.mark.parametrize("xi", [
    0.0,
    pytest.param(0.6, marks=pytest.mark.xfail(
        raises=AssertionError, strict=True,
        reason="ROADMAP item 1: the coupling torque, held fixed over an "
               "output interval, raises a twisted chain's energy (up to "
               "0.108 J in 66 of 256 intervals here)"))])
def test_march_never_raises_a_coupled_chain_energy(monkeypatch, xi):
    """One default-kappa segmented trial of the default body, A = pi/4 from
    the inverted pose over one cycle: the exact flow of the coupled chain
    energy would lower it or keep it, to rounding, in every interval. In
    phase (xi = 0) the chain never twists, so it does; staggered
    (xi = 0.6) the frozen coupling torque raises it."""
    march = rollmodel._march_interval
    rises = []

    def checked(gam, piece, turn, phi1, gains, bias, *args, **kwargs):
        assert bias is not None  # a coupled chain is always biased
        out, failed = march(gam, piece, turn, phi1, gains, bias, *args,
                            **kwargs)
        m = MORPH.num_modules
        rises.append((chain_energy(MORPH, out, phi1, gains, KAPPA_DEFAULT, m)
                      - chain_energy(MORPH, gam, phi1, gains, KAPPA_DEFAULT,
                                     m)).max())
        return out, failed

    monkeypatch.setattr(rollmodel, "_march_interval", checked)
    simulate_roll(quasi_static_gait(xi=xi), MORPH, cycles=1.0,
                  gamma0=math.pi, mode="segmented")
    assert len(rises) == STEPS_PER_CYCLE
    assert max(rises) <= ENERGY_ROUNDING


def locate(gam, edges, n_pieces):
    """Each lane's piece and whole turns, located as _integrate does."""
    turn, angle = np.divmod(gam, TWO_PI)
    piece = np.searchsorted(edges[1:], angle, side="right")
    return piece % n_pieces, turn + piece // n_pieces


@pytest.mark.parametrize("mu", [5.0, 0.05])
def test_kink_free_march_of_drifting_lanes_matches_relocating_oracle(
        limbless_morph, mu):
    """On a table without kinks a coupling torque |b| > |G| leaves a lane
    no root (k**2 = G**2 - b**2 < 0). At mu = 5 it turns a whole turn in
    the interval: heading down it hits its -inf edge and fails, heading
    up it is capped at phi1 (or stays, above it). At mu = 0.05 it drifts
    less than a turn. The states and failed lanes are the relocating
    marcher's bitwise, and no piece or turn is written."""
    edges, slopes = support_pieces(limbless_morph)
    tables = (edges, *np.ascontiguousarray(slopes.T))
    gam = np.array([3.0, 3.0, 3.0, 3.0, 1e5, 0.5])
    phi1 = gam + np.array([0.5, -0.5, 0.5, -0.5, 1.0, 0.2])
    gains = np.array([1.0, 1.0, 2.0, 1.0, 1.0, 1.0])
    bias = np.array([3.0, 3.0, -3.0, -3.0, -3.0, 0.5])
    piece, turn = locate(gam, edges, len(slopes))
    before = piece.tobytes() + turn.tobytes()
    dt = TWO_PI / OMEGA / 256
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        out, failed = rollmodel._march_interval(gam, piece, turn, phi1,
                                                gains, bias, tables, mu, dt)
        want = gam.copy()
        want_failed = oracle_march(want, np.arange(len(gam)), phi1, gains,
                                   bias, (edges, slopes), mu, dt)
    assert out.tobytes() == want.tobytes()
    got_failed = sorted(np.concatenate(failed or [[]]).tolist())
    assert got_failed == sorted(want_failed)
    assert piece.tobytes() + turn.tobytes() == before
    if mu == 5.0:
        assert got_failed == [2, 3, 4]
        assert out[:2].tolist() == [phi1[0], gam[1]]


def longdouble_flat_end(g, phi, gain, bias, tau):
    """End states of locked lanes on a flat table, from the half-angle
    closed form evaluated in np.longdouble (64-bit significand on x86).

    k**2 = G**2 - b**2 > 0, a = tanh(k*tau)*(G/k), sf = tanh(k*tau)/k, and
    with u = tan((phi - g)/2) the lane turns by
    2*atan2(sf*(b*u**2 + 2*G*u + b), (1 + a) + (1 - a)*u**2), capped at
    max(g, phi) heading up. The denominator is grouped so that without
    bias 1 - a is exactly 0 where tanh(k*tau) rounds to 1: the literal
    (1 + u**2) + a*(1 - u**2) cancels at the repeller in any precision.
    """
    g, phi, gain, bias = (np.asarray(v, dtype=np.longdouble)
                          for v in (g, phi, gain, bias))
    tau = np.longdouble(tau)
    k = np.sqrt(gain * gain - bias * bias)
    t = np.tanh(k * tau)
    a, sf = t * (gain / k), t / k
    u = np.tan((phi - g) / 2)
    turned = 2 * np.arctan2(sf * (bias * u * u + 2 * gain * u + bias),
                            (1 + a) + (1 - a) * u * u)
    return np.minimum(g + turned, np.maximum(g, phi))


@pytest.mark.parametrize("mu", [5.0, 0.05])
def test_flat_solve_matches_longdouble_closed_form(limbless_morph, mu):
    """The flat solve against the same closed form in np.longdouble
    (longdouble_flat_end), lane by lane, within a bound fixed beforehand:
    4 ulp of max(|g|, |phi1|, 2*pi).

    Rationale of the bound: the lag phi1 - g is exact here (starts on a
    1/4 grid, lags on a 2**-44 grid, |phi1| < 64), so what is left is the
    rounding of tan, of the factors and of atan2, each a few units in the
    last place of a turn of at most 2*pi, and of g + turned, half an ulp of
    the larger of |g| and |phi1|; the flow map of a locked lane is well
    conditioned away from its repeller's e**(-2*k*tau) neighbourhood.

    Lanes: bias-free ones (as an uncoupled batch marches them, bias None)
    and biased locked ones (|b| < G), starts spread over several turns and
    lags spread over several turns, among them bias-free lanes within
    1e-12 rad of the repeller (lag = pi) on both sides. At mu = 5
    tanh(k*tau) rounds to 1 in both precisions for every bias-free lane;
    there the old form 2*atan2(sf*r, cf + sf*r') divided two rounding
    residues near the repeller and missed this bound on 646 of the 2,208
    bias-free lanes, by up to 1e-9 rad. Biased lanes are kept 0.2 rad off their own repeller,
    lag = pi + asin(b/G): there numerator and denominator both vanish,
    and the closed form, old or new, loses accuracy as eps over the
    distance.
    """
    edges, slopes = support_pieces(limbless_morph)
    tables = (edges, *np.ascontiguousarray(slopes.T))
    dt = TWO_PI / OMEGA / 256
    starts = np.array([-12.5, -3.0, 0.5, 3.0, 7.25, 20.0])
    turns = TWO_PI * np.array([-2.0, 0.0, 1.0, 3.0])
    gains = np.array([0.5, 0.7, 1.3, 2.9])
    near = math.pi - np.array([1e-12, 3e-13, 1e-9, 1e-6, 0.0])
    bases = {0.0: np.concatenate([near, -near, np.linspace(-3.0, 3.0, 13)])}
    for rho in (-0.8, -0.3, 0.3, 0.8):
        spread = np.linspace(-math.pi, math.pi, 19)
        repeller = math.pi + math.asin(rho)
        off = np.abs(np.mod(spread - repeller + math.pi, TWO_PI) - math.pi)
        bases[rho] = spread[off > 0.2]
    for rho, base in bases.items():
        g, lag, gain = (v.ravel() for v in np.meshgrid(
            starts, (base[:, None] + turns).ravel(), gains))
        lag = np.round(lag * 2.0**44) / 2.0**44
        phi1 = g + lag
        assert np.array_equal(phi1 - g, lag)  # the lag is exact
        bias = None if rho == 0.0 else rho * gain
        piece, turn = locate(g, edges, len(slopes))
        out, failed = rollmodel._march_interval(g, piece, turn, phi1, gain,
                                                bias, tables, mu, dt)
        want = longdouble_flat_end(g, phi1, gain, rho * gain,
                                   0.5 * mu * dt).astype(float)
        bound = 4.0 * np.spacing(np.maximum(np.maximum(np.abs(g),
                                                       np.abs(phi1)), TWO_PI))
        assert not failed
        assert (np.abs(out - want) <= bound).all(), (
            rho, np.abs(out - want).max(), g[np.argmax(np.abs(out - want)
                                                        - bound)])


FUZZ_LANE = st.tuples(
    st.floats(0.0, TWO_PI, exclude_max=True),    # angle in the turn
    st.booleans(),                               # start on a kink instead
    st.integers(-100_000, 100_000),              # whole turns added
    st.one_of(st.just(0.0), st.floats(-4.0, 4.0)),        # phi1 - start
    st.one_of(st.just(0.0), st.just(math.nan), st.floats(-5.0, 5.0)))


@settings(max_examples=300, deadline=None)
@given(leg=st.one_of(st.just(0.0), st.floats(0.0, 0.3)),
       leg_angle=st.floats(-math.pi, math.pi),
       mu=st.floats(0.05, 50.0),
       lanes=st.lists(FUZZ_LANE, min_size=1, max_size=8))
def test_fuzzed_unbiased_march_matches_oracle_and_lowers_energy(
        leg, leg_angle, mu, lanes):
    """One _march_interval call with no bias, on a random body (leg
    length 0 takes the kink-free pass), mobility and lanes: starts up to
    1e5 turns out, some exactly on a kink, commands off the start or on
    it, gains of 0, negative or NaN. The states and the failed lanes are
    the relocating marcher's, bitwise, and every lane marched to a
    finite state lowers chain_energy or keeps it, to rounding. Far out,
    a kink's position and a lane's end state round to floats
    spacing(|gamma|) apart (7e-12 rad at 5,780 turns, where a lane that
    rested on a kink raised E by 2.7e-12 J), so the rounding allowed is
    ENERGY_ROUNDING plus what a few such steps move E by at the steepest."""
    morph = replace(MORPH, leg_length=leg, leg_angle=leg_angle)
    edges, slopes = support_pieces(morph)
    kinks = edges[1:] if np.isfinite(edges[0]) else np.empty(0)
    angle, on_kink, turns, lag, gains = map(np.array, zip(*lanes))
    if kinks.size:
        angle = np.where(on_kink, kinks[np.arange(len(lanes)) % kinks.size],
                         angle)
    gam = angle + TWO_PI * turns
    phi1 = gam + lag
    piece, turn = locate(gam, edges, len(slopes))
    dt = TWO_PI / OMEGA / 256
    tables = (edges, *np.ascontiguousarray(slopes.T))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        out, failed = rollmodel._march_interval(gam, piece, turn, phi1,
                                                gains, None, tables, mu, dt)
        want = gam.copy()
        want_failed = oracle_march(want, np.arange(len(gam)), phi1, gains,
                                   np.zeros(len(gam)), (edges, slopes), mu,
                                   dt)
        rise = (chain_energy(morph, out, phi1, gains)
                - chain_energy(morph, gam, phi1, gains))
    assert out.tobytes() == want.tobytes()
    assert sorted(np.concatenate(failed or [[]]).tolist()) == sorted(
        want_failed)
    steepest = np.abs(gains) + np.abs(slopes).sum(axis=1).max()
    rounding = ENERGY_ROUNDING + 4.0 * steepest * np.spacing(np.abs(gam))
    marched = np.isfinite(out)
    assert (rise[marched] <= rounding[marched]).all()


def test_march_out_of_passes_raises_naming_the_interval():
    """The marcher's pass bound fires instead of marching on. A forged
    two-piece table whose edges run backwards (0, -3, -6 rad) sends a lane
    heading up, at a constant rate of 1 (no drive, unit coupling torque),
    across a kink on every pass while it stays within a turn of its start:
    it ends at -3, -6, 3.28 and 0.28 rad and would need a fifth pass. The
    bound, len(slopes) + 2 = 4 passes, raises an IntegrationError naming
    the output interval the caller gave. A real table's edges rise, so a
    lane that goes on moves a piece per pass and fails within a turn."""
    tables = (np.array([0.0, -3.0, -6.0]), np.zeros(2), np.zeros(2))
    dt = TWO_PI / OMEGA / STEPS_PER_CYCLE
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        with pytest.raises(IntegrationError, match="out of its 4 passes in "
                                                   "output interval 7$"):
            rollmodel._march_interval(
                np.array([0.0]), np.array([0]), np.array([0.0]),
                np.array([10.0]), np.array([0.0]), np.array([1.0]), tables,
                MU_DEFAULT, dt, interval=7)


def test_lanes_park_and_wake_across_blocks(monkeypatch):
    """Stuck and righting lumped lanes, and a kappa = 0 chain, over two
    cycles at mu = 5 and 0.05: lanes park, wake and park again across
    several blocks, and the records at every interval are the relocating
    marcher's, bitwise."""
    sizes = []
    march = rollmodel._march_interval

    def counting(gam, *args, **kwargs):
        sizes.append(len(gam))
        return march(gam, *args, **kwargs)

    monkeypatch.setattr(rollmodel, "_march_interval", counting)
    grid = [(math.pi / 12, 0.0), (math.pi / 8, 0.6), (math.pi / 6, 0.0),
            (math.pi / 4, 0.3)]
    for mode in ("lumped", "segmented"):
        for mu in (5.0, 0.05):
            sizes.clear()
            batch = lane_batch(MORPH, mode, grid)
            integrate_against_oracle(MORPH, batch, mu, 0.0)
            full = len(batch[0])
            # Parked (fewer lanes marched) in several blocks, and woken
            # (more marched again) after parking.
            parked = [n // rollmodel.BLOCK for n, k in enumerate(sizes)
                      if k < full]
            assert len(set(parked)) >= 4
            assert any(b > a for a, b in zip(sizes, sizes[1:]))


def test_lanes_without_a_rest_span_are_never_parked(monkeypatch):
    """Lanes resting on the default body's first kink (flat piece 0
    below, U' up to 1.341 N*m on piece 1 above) with a gain of 0 or below
    (gain_noise > 1 draws such gains) and a lane that starts NaN are
    marched in every interval, beside a positive-gain lane on the same
    kink that parks; a capped lane on a kink is not reported held, so it
    is never parked."""
    edges, slopes = support_pieces(MORPH)
    tables = (edges, *np.ascontiguousarray(slopes.T))
    dt = TWO_PI / OMEGA / 256
    gains = np.array([0.05, 0.0, -0.5, 0.3])
    gamma0 = np.array([edges[1]] * 3 + [np.nan])
    offsets = np.array([0.0, 0.0, math.pi, 0.0])
    seen = []
    march = rollmodel._march_interval

    def recording(gam, piece, turn, phi1, gains, *args, **kwargs):
        seen.append(gains.tolist())
        return march(gam, piece, turn, phi1, gains, *args, **kwargs)

    monkeypatch.setattr(rollmodel, "_march_interval", recording)
    records, failures = _integrate((edges, slopes), gains, gamma0, OMEGA,
                                   dt, 512, MU_DEFAULT, offsets)
    assert list(failures) == [3]
    assert len(seen) == 512
    assert all(g[-3:] == [0.0, -0.5, 0.3] for g in seen)
    assert sum(g[0] != 0.05 for g in seen) >= 4 * rollmodel.BLOCK
    # Each of them rests on the kink: the gain-0 lane for the whole run,
    # the negative one while its command lies below it, half a cycle.
    assert (records[:, 1] == edges[1]).all()
    assert (records[:128, 2] == edges[1]).all()

    # A lane on piece 1 at its upper kink heading up, its command below
    # it (capped), and one on piece 2 heading down to the same kink (held).
    gam = np.full(2, edges[2])
    piece, turn = np.array([1, 2]), np.zeros(2)
    rest = []
    out, failed = rollmodel._march_interval(
        gam, piece, turn, gam - 0.5, np.full(2, 0.5), None, tables,
        MU_DEFAULT, dt, rest=rest)
    assert np.array_equal(out, gam) and not failed
    assert rest[0][0].tolist() == [1]


@settings(max_examples=300, deadline=None)
@given(gain=st.floats(0.01, 5.0),
       below=st.floats(0.0, 1.5), above=st.floats(0.0, 1.5),
       lag=st.floats(-math.pi, math.pi),
       steps=st.integers(MIN_STEPS_PER_CYCLE, 1024),
       upper=st.booleans())
def test_rest_span_keeps_a_held_lane_held(gain, below, above, lag, steps,
                                         upper):
    """A lane held on a convex kink, on the piece below or above it, with
    one-sided slopes G*(sin(lag) - below) and G*(sin(lag) + above), stays
    held through every interval of its rest span: the marcher returns its
    roll, piece and turn unchanged."""
    left, right = math.sin(lag) - below, math.sin(lag) + above
    # Kinks at 0 and pi; U' = c*cos(g), so the slopes at 0 are c0 and c1.
    edges = np.array([-math.pi, 0.0, math.pi])
    tables = (edges, np.array([left, right]) * gain, np.zeros(2))
    gam, piece, turn = np.zeros(1), np.array([int(upper)]), np.zeros(1)
    step = TWO_PI / steps
    dt, gains, phi = step / OMEGA, np.array([gain]), np.array([lag])
    rest = []
    with np.errstate(divide="ignore", invalid="ignore"):
        rollmodel._march_interval(gam, piece, turn, phi, gains, None, tables,
                                  MU_DEFAULT, dt, rest=rest)
        assume(rest and rest[0][0].size)
        _, drive, r, r_next = rest[0]
        margin = rollmodel.REST_MARGIN * (right - left + 1.0) * gain
        span = rollmodel._rest_span(phi - gam, gains, drive, (r, r_next),
                                    step, margin)[0]
        for k in range(1, int(min(span, 3 * steps)) + 1):
            out, failed = rollmodel._march_interval(
                gam, piece, turn, phi + k * step, gains, None, tables,
                MU_DEFAULT, dt)
            assert (out.tolist(), piece.tolist(), turn.tolist(), failed) == (
                [0.0], [int(upper)], [0.0], [])


def test_rest_span_in_closed_form():
    """The span ends before G*sin(lag), lag growing by step per interval,
    first leaves the band between the kink's slopes: on a rising branch
    through the upper slope, on a falling one through the lower; a band
    holding the whole drive never ends. A gain of 0 or below, a NaN state
    or a drive within two margins of a slope gets no span."""
    def span(lag, gain, slopes, step=0.01, margin=1e-9):
        lag, gain = np.asarray(lag, dtype=float), np.asarray(gain, float)
        drive = gain * np.sin(lag)
        rates = tuple(drive - np.asarray(u, dtype=float) for u in slopes)
        with np.errstate(divide="ignore", invalid="ignore"):
            return rollmodel._rest_span(lag, gain, drive, rates, step,
                                        margin).tolist()

    # sin(0.5 + 0.01*k) < 0.9 up to k = 61 (asin(0.9) = 1.1198); from
    # lag 2 it falls below -0.5 after 7*pi/6 - 2 = 1.665, at k = 167.
    assert span([0.5, 2.0, 0.5], [1.0, 1.0, 1.0],
                ([-0.5, -0.5, -2.0], [0.9, 0.95, 2.0])) == [61, 166, np.inf]
    d = math.sin(0.5)
    assert span([0.5] * 4, [0.0, -1.0, 1.0, 1.0],
                ([-0.5, -0.5, -0.5, d - 1.5e-9],
                 [0.9, 0.9, d + 1.5e-9, 0.9])) == [0.0] * 4
    assert span([np.nan], [1.0], ([-0.5], [0.9])) == [0.0]


def make_trajectory(rolls_per_cycle):
    return RollTrajectory(times=np.arange(2.0), gammas=np.zeros(2),
                          cycles=1.0, rolls_per_cycle=rolls_per_cycle,
                          stalled=False, mode="lumped",
                          righting_intervals=(None,))


def test_trial_outcome_definitions():
    """rolls_per_cycle is the mean over the modules of (end - start) over
    2*pi times the cycles integrated, bitwise, at any span; a trial rights
    at half a turn per cycle or more."""
    for cycles in (0.5, 1.5, 3.0):
        traj = simulate_roll(quasi_static_gait(math.pi / 3, 0.6), MORPH,
                             cycles=cycles, gamma0=math.pi, mode="segmented")
        assert traj.rolls_per_cycle == ((traj.gammas[-1] - traj.gammas[0])
                                        .mean() / (TWO_PI * traj.cycles))

    assert make_trajectory(1.0).self_righted
    assert not make_trajectory(0.0).self_righted
    assert not make_trajectory(np.nextafter(0.5, 0.0)).self_righted
    assert make_trajectory(0.5).self_righted  # the threshold itself rights
