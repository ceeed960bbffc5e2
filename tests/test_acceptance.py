"""End-to-end acceptance checks.

One test per shipping criterion, at the stated tolerances. Each either
passes or fails on its own line of the verbose test report; nothing here
is approximate where the criterion demands exactness, and nothing is
loosened to hide a miss.
"""

import json
import math
import time
from dataclasses import replace

import numpy as np
import pytest

from selfright import (GaitParams, Morphology, RunConfig, binariness,
                       config_to_dict, drive_gain, energy_landscape,
                       lateral_angle, lateral_displacement, run_sweep,
                       simulate_roll, vertical_angle)
from selfright.cli import main as cli_main
from selfright.config import RollSettings

from conftest import oracle_barrier

MORPH = Morphology()
OMEGA = 1e-3
TWO_PI = 2.0 * math.pi


def quasi_static_gait(amplitude=math.pi / 4, xi=0.0):
    return GaitParams(amplitude_lateral=amplitude,
                      amplitude_vertical=amplitude,
                      temporal_frequency=OMEGA, spatial_frequency=xi)


def test_criterion_1_gait_identity_suite():
    """10^5 random draws: the staggered wave at xi=0 is the in-phase wave,
    bitwise; quadrature holds to 1e-12; all inside one second."""
    rng = np.random.default_rng(2026)
    n = 100_000
    counts = rng.integers(1, 9, n)
    amps = rng.uniform(0.0, math.pi / 2, n)
    omegas = rng.uniform(1e-3, 10.0, n)
    times = rng.uniform(-100.0, 100.0, n)
    indices = rng.integers(1, counts + 1)
    xis = rng.uniform(0.0, 2.0, 10_000)

    start = time.perf_counter()
    sin, cos = math.sin, math.cos
    for k in range(n):
        amp = amps[k]
        omega = omegas[k]
        t = times[k]
        p = GaitParams(amplitude_lateral=amp, amplitude_vertical=amp,
                       temporal_frequency=omega,
                       num_lateral_joints=int(counts[k]))
        i = int(indices[k])
        assert lateral_angle(p, t, i) == amp * sin(omega * t)
        assert vertical_angle(p, t, i) == amp * cos(omega * t)

    worst = 0.0
    for k in range(10_000):
        amp = amps[k]
        p = GaitParams(amplitude_lateral=amp, amplitude_vertical=amp,
                       temporal_frequency=omegas[k],
                       spatial_frequency=xis[k],
                       num_lateral_joints=int(counts[k]))
        i = int(indices[k])
        q = (lateral_angle(p, times[k], i) ** 2
             + vertical_angle(p, times[k], i) ** 2)
        worst = max(worst, abs(q - amp * amp))
    elapsed = time.perf_counter() - start

    assert worst <= 1e-12
    assert elapsed < 1.0, f"identity suite took {elapsed:.2f}s"


def test_criterion_2_ideal_limbless_roll(limbless_morph):
    """Free rolling tracks the command: half cycle pi, full cycle 2*pi."""
    half = simulate_roll(quasi_static_gait(), limbless_morph, cycles=0.5)
    assert half.delta_gamma_total == pytest.approx(math.pi, abs=1e-3)

    full = simulate_roll(quasi_static_gait(), limbless_morph, cycles=1.0)
    assert full.delta_gamma_total == pytest.approx(TWO_PI, abs=1e-3)


def test_criterion_3_energy_landscape():
    """Flat without legs; bistable at {0, pi} with them; barrier grows with
    leg length, agreeing with a brute-force polygon oracle; under 5 s."""
    start = time.perf_counter()

    flat = energy_landscape(MORPH.limbless(), 1024)
    span = flat.energy.max() - flat.energy.min()
    assert span <= 1e-6 * flat.energy.mean()

    legged = energy_landscape(MORPH, 1024)
    step = TWO_PI / legged.resolution
    minima = legged.minima
    assert len(minima) == 2
    assert abs(minima[0] - 0.0) <= step
    assert abs(minima[1] - math.pi) <= step

    barriers = []
    for leg in (0.01, 0.05, 0.11):
        morph = replace(MORPH, leg_length=leg)
        produced = energy_landscape(morph, 1024).barrier
        assert produced == pytest.approx(oracle_barrier(morph), abs=1e-9)
        barriers.append(produced)
    assert barriers[0] < barriers[1] < barriers[2]

    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"landscape suite took {elapsed:.2f}s"


def test_criterion_4_one_shot_roll():
    """Half-cycle righting succeeds at A=pi/4 and fails at A=pi/12 with
    zero perturbation at the shipped calibration."""
    strong = simulate_roll(quasi_static_gait(math.pi / 4), MORPH, cycles=0.5)
    assert strong.self_righted

    weak = simulate_roll(quasi_static_gait(math.pi / 12), MORPH, cycles=0.5)
    assert not weak.self_righted


def test_criterion_5_sequential_propagation():
    """Segmented xi=0.6 roll reaches gamma=pi/2 strictly head before tail."""
    traj = simulate_roll(quasi_static_gait(xi=0.6), MORPH, cycles=1.0,
                         mode="segmented")
    crossings = []
    for m in range(traj.gammas.shape[1]):
        idx = int(np.argmax(traj.gammas[:, m] >= math.pi / 2))
        assert traj.gammas[idx, m] >= math.pi / 2, f"module {m} never crossed"
        crossings.append(traj.times[idx])
    assert all(b > a for a, b in zip(crossings, crossings[1:]))


def test_criterion_6_behavior_diagram_claims():
    """Qualitative sweep structure, both bodies, inside the time budget."""
    start = time.perf_counter()
    limbless = run_sweep(RunConfig(morphology=MORPH.limbless(), seed=0))
    legged = run_sweep(RunConfig(morphology=MORPH, seed=0))
    elapsed = time.perf_counter() - start

    amps = np.array(limbless.amplitudes)
    xis = np.array(limbless.xis)
    assert limbless.errors == () and legged.errors == ()

    # limbless: low spatial frequency always self-rights, even at A=pi/12
    low_xi = xis <= 0.4 + 1e-12
    assert (limbless.p_sr[:, low_xi] == 1.0).all()
    assert math.isclose(amps[1], math.pi / 12)
    assert (limbless.p_sr[1, low_xi] == 1.0).all()
    # near-binary outcomes, amplitude barely matters
    assert binariness(limbless) <= 0.10
    per_xi = limbless.p_sr.max(axis=0) - limbless.p_sr.min(axis=0)
    assert (per_xi <= 1.0 / limbless.trial_rolls.shape[2] + 1e-12).all()

    # legged: amplitude threshold, feasibility at high xi, graded margin
    low_amp = amps < math.pi / 6 - 1e-12
    assert (legged.p_sr[low_amp, :] < 0.5).all()
    assert (legged.p_sr[:, xis > 0.5] == 1.0).any()
    interior = (legged.p_sr > 0.0) & (legged.p_sr < 1.0)
    assert interior.sum() >= 3

    assert elapsed < 60.0, f"default sweeps took {elapsed:.2f}s"


def legged_barrier_slope(morph):
    """U*, the steepest slope of the leg arc, W*(r+L)*cos(asin(r/(r+L)))."""
    tip = morph.body_radius + morph.leg_length
    weight = morph.total_mass * 9.80665
    return weight * tip * math.sqrt(1.0 - (morph.body_radius / tip) ** 2)


@pytest.mark.parametrize("legs", [True, False])
def test_lumped_diagram_matches_gain_oracle(legs):
    """Every lumped trial of the default sweep rights exactly when its
    drive gain G*C(xi)*f beats the closed-form threshold U*.

    f is the trial's seeded gain draw. A legged body must overcome the
    steepest slope of the leg arc, W*(r+L)*cos(asin(r/(r+L))); a limbless
    one must lock onto the command, mu*G*C*f > omega.
    """
    morph = MORPH if legs else MORPH.limbless()
    cfg = RunConfig(morphology=morph, seed=0)
    diagram = run_sweep(cfg)
    if legs:
        u_star = legged_barrier_slope(morph)
    else:
        u_star = cfg.gait.temporal_frequency / cfg.roll.mu
    n_x, n_t = len(diagram.xis), diagram.trial_rolls.shape[2]
    for a_idx, amp in enumerate(diagram.amplitudes):
        for x_idx, xi in enumerate(diagram.xis):
            gain = drive_gain(replace(cfg.gait, amplitude_lateral=amp,
                                      amplitude_vertical=amp,
                                      spatial_frequency=xi), morph)
            for trial in range(n_t):
                rng = np.random.default_rng(np.random.SeedSequence(
                    entropy=0, spawn_key=(a_idx * n_x + x_idx, trial)))
                rng.uniform(-0.2, 0.2)  # initial-roll jitter
                f = 1.0 + rng.uniform(-0.1, 0.1)
                righted = diagram.trial_rolls[a_idx, x_idx, trial] >= 0.5
                assert righted == (gain * f > u_star), (amp, xi, trial)


def test_lumped_legged_diagram_matches_its_closed_form():
    """A trial rights exactly when G*C*f > U*, with f uniform in 1 +- w,
    so a default lumped legged cell's expected righted fraction is
    clip((1 + w - U*/(G*C)) / (2w), 0, 1), whatever the seed.

    The default grid has six cells strictly inside (0, 1). Each runs as
    its own one-cell sweep of 400 trials at the default seed, and its
    fraction of trials with rolls >= 0.5 must lie within 4 binomial
    standard errors, 4*sqrt(p(1 - p)/400), of p. Six one-cell sweeps
    take 0.3-0.45 s on a 2-vCPU VM.
    """
    cfg = RunConfig(seed=0)
    w, trials = cfg.sweep.gain_noise, 400
    u_star = legged_barrier_slope(MORPH)
    cells = []
    for amp in cfg.sweep.amplitudes:
        for xi in cfg.sweep.xis:
            gain = drive_gain(replace(cfg.gait, amplitude_lateral=amp,
                                      amplitude_vertical=amp,
                                      spatial_frequency=xi), MORPH)
            p = min(max((1.0 + w - u_star / gain) / (2.0 * w), 0.0), 1.0)
            if 0.0 < p < 1.0:
                cells.append((amp, xi, p))
    assert [p for _, _, p in cells] == pytest.approx(
        [0.866, 0.476, 0.974, 0.170, 0.751, 0.502], abs=5e-4)
    for amp, xi, p in cells:
        sweep = replace(cfg.sweep, amplitudes=(amp,), xis=(xi,),
                        trials_per_cell=trials)
        rolls = run_sweep(replace(cfg, sweep=sweep)).trial_rolls[0, 0]
        fraction = float(np.mean(rolls >= 0.5))
        bound = 4.0 * math.sqrt(p * (1.0 - p) / trials)
        assert abs(fraction - p) <= bound, (amp, xi, fraction, p)


def test_segmented_legged_diagram_matches_base_gain_oracle():
    """At kappa = 0 every trial of the default segmented legged sweep
    rights exactly when G_base*f beats U*, whatever xi.

    Each module is then a lumped lane with the whole body's gain, without
    the coherence factor: G_base is the in-phase (xi = 0) drive gain, where
    C = 1 exactly. Its staggered command offset does not move the
    threshold, so xi changes only how far a righted trial reads below 1
    (ROADMAP item 14). f and U* are the lumped oracle's.
    """
    cfg = RunConfig(mode="segmented", seed=0, roll=RollSettings(kappa=0.0))
    diagram = run_sweep(cfg)
    u_star = legged_barrier_slope(MORPH)
    n_x, n_t = len(diagram.xis), diagram.trial_rolls.shape[2]
    for a_idx, amp in enumerate(diagram.amplitudes):
        gain = drive_gain(replace(cfg.gait, amplitude_lateral=amp,
                                  amplitude_vertical=amp,
                                  spatial_frequency=0.0), MORPH)
        for x_idx, xi in enumerate(diagram.xis):
            for trial in range(n_t):
                rng = np.random.default_rng(np.random.SeedSequence(
                    entropy=0, spawn_key=(a_idx * n_x + x_idx, trial)))
                rng.uniform(-0.2, 0.2)  # initial-roll jitter
                f = 1.0 + rng.uniform(-0.1, 0.1)
                righted = diagram.trial_rolls[a_idx, x_idx, trial] >= 0.5
                assert righted == (gain * f > u_star), (amp, xi, trial)


@pytest.mark.parametrize("kappa", [
    0.0,
    pytest.param(0.05, marks=pytest.mark.xfail(
        raises=AssertionError, strict=True,
        reason="ROADMAP item 1: the coupling torque, held fixed over an "
               "output interval, fails 249 of the 715 trials (52 NaN "
               "cells)"))])
def test_limbless_segmented_diagram_matches_closed_form(kappa):
    """Every cell of the default limbless segmented diagram reads
    1 - xi/(2*cycles). A flat body's lane relaxes fully in each interval
    (mu*G*dt is about 40 or more on this grid) and stops on its command
    phase, so module k ends 2*pi*(cycles - xi*k/(M-1)) past its start, and
    the mean over k is 2*pi*(cycles - xi/2). Bound, fixed before the run: a
    command phase is a few roundings of numbers below 32 rad, the cap lands
    on it, and the difference with the start rounds once more; allow 8 ulp
    of 32 rad per lane, over 2*pi*cycles. At kappa = 0.05 the chains are
    coupled and the frozen coupling torque fails trials."""
    cfg = RunConfig(morphology=MORPH.limbless(), mode="segmented", seed=0,
                    roll=RollSettings(kappa=kappa))
    diagram = run_sweep(cfg)
    cycles = cfg.sweep.cycles_per_trial
    bound = 8 * np.spacing(32.0) / (TWO_PI * cycles)
    want = 1.0 - diagram.xis / (2.0 * cycles)
    assert (np.abs(diagram.p_sr - want) <= bound).all()


def test_criterion_7a_sidewinding_band():
    """Lateral displacement of the two-amplitude gait at xi=0.6 lands in
    the published range of 0.2 to 0.7 body lengths per cycle."""
    gait = GaitParams(amplitude_lateral=math.pi / 3,
                      amplitude_vertical=math.pi / 9,
                      temporal_frequency=OMEGA, spatial_frequency=0.6)
    report = lateral_displacement(gait, MORPH)
    assert 0.2 <= report.lateral_displacement <= 0.7


def test_criterion_7b_sidewinding_standing_wave_control():
    """Control arm: a reciprocal standing wave moves the body 0 +/- 1e-6.

    With lateral_phase = pi/2 and xi = 0 both waves are A*cos(w*t), so the
    shared joint angles (a, v) run back and forth along one segment of
    shape space and retrace every posture in reverse. Under the anchored
    no-slip model each step's rigid fit is then undone by the matching
    reverse step, so the net displacement is zero for every positive
    contact tolerance and every sample count. Checked at the default knobs
    and at three coarser or tighter (samples, contact_tol) pairs, where
    consecutive contact sets can be disjoint.

    The quadrature xi = 0 gait (lateral_phase = 0) is not a control: its
    joint angles trace an ellipse of area pi*A_l*A_v, and a shape loop
    that encloses area has no reason to return the body to its start
    (Hatton & Choset, IJRR 2011), so it moves about 0.32 BL per cycle.
    contact_tol = 0 is outside the knob set: near-straight postures put
    modules at equal heights in exact arithmetic, rounding then picks the
    anchor, and the reciprocal gait drifts (the thresholded-contact
    discontinuity of ROADMAP item 2(b)).
    """
    gait = GaitParams(amplitude_lateral=math.pi / 3,
                      amplitude_vertical=math.pi / 9,
                      temporal_frequency=OMEGA, spatial_frequency=0.0,
                      lateral_phase=math.pi / 2)
    knobs = [{}, {"samples_per_cycle": 128, "contact_tol": 0.001},
             {"samples_per_cycle": 16, "contact_tol": 0.01},
             {"samples_per_cycle": 16, "contact_tol": 0.05}]
    for kw in knobs:
        report = lateral_displacement(gait, MORPH, **kw)
        assert report.lateral_displacement == pytest.approx(0.0, abs=1e-6), (
            f"reciprocal standing wave at {kw or 'default knobs'}: measured "
            f"{report.lateral_displacement:.4f} BL/cyc, required 0 +/- 1e-6")
        assert report.axial_drift == pytest.approx(0.0, abs=1e-6), (
            f"reciprocal standing wave at {kw or 'default knobs'}: axial "
            f"drift {report.axial_drift:.4f} BL/cyc, required 0 +/- 1e-6")


def test_criterion_8_determinism_and_provenance(tmp_path):
    """Same config and seed give identical bytes; outputs carry the hash."""
    cfg = RunConfig(morphology=Morphology(leg_length=0.0))
    doc = config_to_dict(cfg)
    doc["sweep"]["amplitudes"] = [math.pi / 4]
    doc["sweep"]["xis"] = [0.0, 0.3]
    doc["sweep"]["trials_per_cell"] = 2
    doc["sweep"]["cycles_per_trial"] = 1
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(doc))

    commands = [
        ["gait", "--samples", "16"],
        ["energy", "--resolution", "256"],
        ["simulate", "--half"],
        ["sweep"],
        ["sidewind", "--xi", "0.6", "--samples", "32"],
    ]
    for cmd in commands:
        outs = []
        for run in ("a", "b"):
            out = tmp_path / cmd[0] / run
            code = cli_main(cmd + ["--config", str(cfg_path),
                                   "--out", str(out)])
            assert code == 0
            outs.append(out)
        files = sorted(p.name for p in outs[0].iterdir())
        assert files, f"{cmd[0]} wrote nothing"
        for name in files:
            first = (outs[0] / name).read_bytes()
            second = (outs[1] / name).read_bytes()
            assert first == second, f"{cmd[0]}/{name} bytes differ"
            text = first.decode()
            assert "config_sha256" in text, f"{cmd[0]}/{name} lacks hash"
