"""Behavior-diagram sweep tests: estimator, grids, determinism, output."""

import json
import logging
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from selfright import (BehaviorDiagram, ConfigError, Morphology,
                       PerturbationSpec, RollState, SweepSpec, binariness,
                       estimate_psr, run_sweep, simulate_roll,
                       write_diagram_csv, write_diagram_json)
from selfright.sweep import DEFAULT_AMPLITUDES, DEFAULT_XIS

LEGGED = Morphology()
LIMBLESS = LEGGED.limbless()


def small_spec(**overrides):
    base = dict(amplitudes=(math.pi / 12, math.pi / 4),
                xis=(0.0, 0.3), trials_per_cell=2, cycles_per_trial=1,
                morphology=LIMBLESS, seed=0)
    base.update(overrides)
    return SweepSpec(**base)


def test_default_grids():
    assert len(DEFAULT_AMPLITUDES) == 11
    assert DEFAULT_AMPLITUDES[0] == pytest.approx(math.pi / 24)
    steps = np.diff(DEFAULT_AMPLITUDES)
    assert np.allclose(steps, math.pi / 24, atol=1e-15)
    assert DEFAULT_AMPLITUDES[-1] < math.pi / 2

    assert len(DEFAULT_XIS) == 13
    assert DEFAULT_XIS[0] == 0.0
    assert DEFAULT_XIS[-1] == pytest.approx(1.2)
    assert np.allclose(np.diff(DEFAULT_XIS), 0.1, atol=1e-15)


def test_estimate_psr_examples():
    assert estimate_psr(np.array([1.0, 1, 1, 1, 1])) == 1.0
    assert estimate_psr(np.array([0.0, 0, 0, 0, 0])) == 0.0
    assert estimate_psr(np.array([1.0, 0, 1, 0.5, 0.5])) == pytest.approx(0.6)


def test_estimate_psr_clamps():
    assert estimate_psr(np.array([1.4, 1.2])) == 1.0
    assert estimate_psr(np.array([-0.3, -0.1])) == 0.0
    with pytest.raises(ConfigError):
        estimate_psr(np.array([]))


@given(rolls=st.lists(st.floats(min_value=-2.0, max_value=3.0),
                      min_size=1, max_size=8))
def test_estimate_psr_range(rolls):
    assert 0.0 <= estimate_psr(np.array(rolls)) <= 1.0


def make_diagram(p_sr):
    p = np.asarray(p_sr, dtype=float)
    spec = small_spec()
    return BehaviorDiagram(amplitudes=tuple(range(p.shape[0])),
                           xis=tuple(range(p.shape[1])),
                           trial_rolls=np.zeros(p.shape + (1,)),
                           p_sr=p, errors=(), spec=spec)


def test_binariness_extremes():
    assert binariness(make_diagram([[0.0, 1.0], [1.0, 0.0]])) == 0.0
    assert binariness(make_diagram([[0.5, 0.5], [0.5, 0.5]])) == 1.0
    assert binariness(make_diagram([[0.5, 1.0], [0.0, 0.0]])) == 0.25


def test_gait_for_uses_spec_frequency():
    spec = small_spec(drive_frequency=2e-3)
    p = spec.gait_for(0.4, 0.7)
    assert p.amplitude_lateral == 0.4
    assert p.amplitude_vertical == 0.4
    assert p.temporal_frequency == 2e-3
    assert p.spatial_frequency == 0.7


def test_spec_validation():
    with pytest.raises(ConfigError):
        small_spec(amplitudes=())
    with pytest.raises(ConfigError):
        small_spec(trials_per_cell=0)
    with pytest.raises(ConfigError):
        small_spec(mode="other")


def test_sweep_shapes_and_determinism():
    spec = small_spec()
    first = run_sweep(spec)
    second = run_sweep(small_spec())
    assert first.trial_rolls.shape == (2, 2, 2)
    assert first.p_sr.shape == (2, 2)
    assert np.array_equal(first.trial_rolls, second.trial_rolls)
    assert np.array_equal(first.p_sr, second.p_sr)

    shifted = run_sweep(small_spec(seed=1))
    assert not np.array_equal(first.trial_rolls, shifted.trial_rolls)


def test_limbless_low_xi_saturates():
    spec = small_spec(amplitudes=(math.pi / 12, math.pi / 6, math.pi / 4),
                      xis=(0.0, 0.2, 0.4))
    diagram = run_sweep(spec)
    assert (diagram.p_sr == 1.0).all()


def test_limbless_xi_dominates_amplitude():
    spec = small_spec(amplitudes=DEFAULT_AMPLITUDES, xis=(0.0, 0.5, 0.9, 1.2),
                      trials_per_cell=3)
    diagram = run_sweep(spec)
    variation = diagram.p_sr.max(axis=0) - diagram.p_sr.min(axis=0)
    assert (variation <= 1.0 / spec.trials_per_cell + 1e-12).all()


def test_legged_amplitude_monotone_per_xi():
    spec = small_spec(morphology=LEGGED, amplitudes=DEFAULT_AMPLITUDES,
                      xis=(0.0, 0.4), trials_per_cell=3,
                      cycles_per_trial=2)
    diagram = run_sweep(spec)
    tol = 1.0 / spec.trials_per_cell
    drops = np.diff(diagram.p_sr, axis=0)
    assert (drops >= -tol - 1e-12).all()


def test_segmented_mode_runs():
    spec = small_spec(morphology=LEGGED, mode="segmented",
                      amplitudes=(math.pi / 4,), xis=(0.0, 0.6),
                      trials_per_cell=1)
    diagram = run_sweep(spec)
    assert diagram.errors == ()
    assert np.isfinite(diagram.p_sr).all()


def test_error_cells_are_tagged_not_fatal():
    # strong coupling thrashes the staggered segmented roll; those cells
    # must come back as NaN with an error note, the rest untouched
    spec = small_spec(morphology=LEGGED, mode="segmented", kappa=0.5,
                      amplitudes=(math.pi / 4,), xis=(0.0, 0.6),
                      trials_per_cell=1)
    diagram = run_sweep(spec)
    assert np.isfinite(diagram.p_sr[0, 0])
    assert np.isnan(diagram.p_sr[0, 1])
    assert len(diagram.errors) == 1
    assert "cell" in diagram.errors[0]


def test_csv_and_json_outputs(tmp_path):
    spec = small_spec()
    diagram = run_sweep(spec)
    meta = {"config_sha256": "deadbeef", "seed": 0}

    csv_path = tmp_path / "sweep.csv"
    write_diagram_csv(diagram, csv_path, meta)
    lines = csv_path.read_text().splitlines()
    assert lines[0].startswith("#")
    assert "config_sha256=deadbeef" in lines[0]
    assert lines[1] == "A_rad,xi,trial,rolls_per_cycle,p_sr"
    # per cell: one row per trial plus a summary row
    assert len(lines) == 2 + 4 * (spec.trials_per_cell + 1)
    summaries = [ln for ln in lines if ",summary," in ln]
    assert len(summaries) == 4
    trial_rows = [ln for ln in lines[2:] if ",summary," not in ln]
    assert all(ln.endswith(",") for ln in trial_rows)

    json_path = tmp_path / "sweep.json"
    write_diagram_json(diagram, json_path, meta)
    doc = json.loads(json_path.read_text())
    assert doc["meta"]["config_sha256"] == "deadbeef"
    assert doc["protocol"]["seed"] == 0
    assert np.asarray(doc["p_sr"]).shape == (2, 2)
    assert doc["calibration"]["mu"] == spec.mu

    # identical rerun, identical bytes
    write_diagram_csv(run_sweep(small_spec()), tmp_path / "again.csv", meta)
    assert (tmp_path / "again.csv").read_bytes() == csv_path.read_bytes()


def test_json_null_for_failed_cells(tmp_path):
    spec = small_spec(morphology=LEGGED, mode="segmented", kappa=0.5,
                      amplitudes=(math.pi / 4,), xis=(0.6,),
                      trials_per_cell=1)
    diagram = run_sweep(spec)
    path = tmp_path / "failed.json"
    write_diagram_json(diagram, path, {"seed": 0})
    doc = json.loads(path.read_text())
    assert doc["p_sr"][0][0] is None
    assert doc["errors"]


def test_lumped_lanes_independent_of_batch():
    # a lane's trajectory must not depend on which lanes share its batch:
    # the leading rows of a larger grid keep their cell indices and draws
    sub = small_spec(morphology=LEGGED, amplitudes=DEFAULT_AMPLITUDES[:3],
                     xis=(0.0, 0.4, 1.1))
    full = small_spec(morphology=LEGGED, amplitudes=DEFAULT_AMPLITUDES,
                      xis=(0.0, 0.4, 1.1))
    small = run_sweep(sub)
    large = run_sweep(full)
    assert np.array_equal(small.trial_rolls, large.trial_rolls[:3])
    assert np.array_equal(small.p_sr, large.p_sr[:3])


def test_failed_trial_leaves_batch_mates_untouched():
    spec = small_spec(morphology=LEGGED, mode="segmented", kappa=0.5,
                      amplitudes=(math.pi / 4,), xis=(0.0, 0.6),
                      trials_per_cell=1)
    batch = run_sweep(spec)
    solo = run_sweep(small_spec(morphology=LEGGED, mode="segmented",
                                kappa=0.5, amplitudes=(math.pi / 4,),
                                xis=(0.0,), trials_per_cell=1))
    assert np.isnan(batch.trial_rolls[0, 1]).all()
    assert solo.errors == ()
    assert np.array_equal(batch.trial_rolls[0, :1], solo.trial_rolls[0])
    assert batch.p_sr[0, 0] == solo.p_sr[0, 0]


def test_failed_trials_logged(caplog):
    spec = small_spec(morphology=LEGGED, mode="segmented", kappa=0.5,
                      amplitudes=(math.pi / 4,), xis=(0.6,),
                      trials_per_cell=1)
    with caplog.at_level(logging.WARNING, logger="selfright"):
        diagram = run_sweep(spec)
    logged = [r for r in caplog.records if r.name == "selfright"]
    assert [r.getMessage() for r in logged] == list(diagram.errors)
    assert all(r.levelno == logging.WARNING for r in logged)
    assert diagram.errors[0].startswith("cell(0,0) trial 0: ")


@pytest.mark.parametrize("mode, perturb", [
    ("segmented", PerturbationSpec()),
    ("segmented", PerturbationSpec(gamma_jitter=0.0, gain_noise=0.1)),
    ("lumped", PerturbationSpec(gamma_jitter=0.0, gain_noise=0.1)),
], ids=["segmented-default", "segmented-no-jitter", "lumped-no-jitter"])
def test_batched_trial_equals_simulate_roll(mode, perturb):
    """A sweep trial is simulate_roll on that trial's stream, bitwise."""
    spec = small_spec(morphology=LEGGED, mode=mode, perturb=perturb,
                      amplitudes=(math.pi / 8, math.pi / 3),
                      xis=(0.0, 0.6))
    diagram = run_sweep(spec)
    n_x = len(spec.xis)
    for a_idx, x_idx, trial in ((0, 0, 0), (1, 1, 1)):
        rng = np.random.default_rng(np.random.SeedSequence(
            entropy=spec.seed, spawn_key=(a_idx * n_x + x_idx, trial)))
        traj = simulate_roll(
            spec.gait_for(spec.amplitudes[a_idx], spec.xis[x_idx]),
            spec.morphology, cycles=float(spec.cycles_per_trial),
            init=RollState(gamma=math.pi), perturb=perturb, mode=mode,
            rng=rng, mu=spec.mu, kappa=spec.kappa,
            steps_per_cycle=spec.steps_per_cycle)
        rolls = traj.delta_gamma_total / (2 * math.pi * spec.cycles_per_trial)
        assert diagram.trial_rolls[a_idx, x_idx, trial] == rolls
