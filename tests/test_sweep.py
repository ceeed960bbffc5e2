"""Behavior-diagram sweep tests: estimator, grids, determinism, output."""

import json
import logging
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from selfright import (BehaviorDiagram, ConfigError, GaitParams,
                       IntegrationError, Morphology, PerturbationSpec,
                       RunConfig, binariness, config_hash, estimate_psr,
                       run_sweep, save_config, simulate_roll)
from selfright.cli import main, write_diagram_csv, write_diagram_json
from selfright.config import (DEFAULT_AMPLITUDES, DEFAULT_XIS, RollSettings,
                              SweepSettings)
from selfright import rollmodel
from selfright.rollmodel import MAX_RECORDS, MAX_RESOLUTION
from selfright.sweep import cell_gait, provenance_config

LEGGED = Morphology()
LIMBLESS = LEGGED.limbless()


def small_config(morphology=LIMBLESS, seed=0, mode="lumped",
                 roll=RollSettings(), **sweep):
    """A small sweep; keywords beyond the first four set SweepSettings."""
    grid = dict(amplitudes=(math.pi / 12, math.pi / 4), xis=(0.0, 0.3),
                trials_per_cell=2, cycles_per_trial=1)
    grid.update(sweep)
    return RunConfig(morphology=morphology, roll=roll,
                     sweep=SweepSettings(**grid), seed=seed, mode=mode)


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


@pytest.mark.parametrize("n_trials", [1, 8, 9, 17, 130])
def test_grid_psr_reduction_equals_per_cell(n_trials):
    """estimate_psr of a grid gives every cell the bits it gives alone:
    NaN cells, means clamped or snapped to an end, and 9 or more trials,
    where the mean's pairwise sum runs in blocks; on a contiguous grid
    and on a transposed view of one."""
    rng = np.random.default_rng(n_trials)
    rolls = rng.uniform(-0.5, 1.5, (11, 13, n_trials))
    rolls[2] *= 1e3
    rolls[3, 4, 0] = rolls[5, :, -1] = math.nan
    rolls[0, 0], rolls[0, 1] = 1.0 - 1e-13, 1e-13
    view = np.ascontiguousarray(rolls.transpose(2, 0, 1)).transpose(1, 2, 0)
    for grid in (rolls, view):
        want = np.array([[estimate_psr(cell) for cell in row]
                         for row in grid])
        assert estimate_psr(grid).tobytes() == want.tobytes()
    assert (want[0, :2] == [1.0, 0.0]).all()
    assert np.isnan(want[3, 4]) and np.isnan(want[5]).all()


def test_sweep_psr_is_the_per_cell_estimate():
    """A sweep of 9 trials per cell with a failing cell reports, cell by
    cell, estimate_psr of the cell's trials, bitwise, NaN included."""
    diagram = run_sweep(small_config(
        morphology=LEGGED, mode="segmented", roll=RollSettings(kappa=0.5),
        amplitudes=(math.pi / 4,), xis=(0.0, 0.6), trials_per_cell=9))
    want = [[estimate_psr(cell) for cell in row]
            for row in diagram.trial_rolls]
    assert diagram.p_sr.tobytes() == np.array(want).tobytes()
    assert np.isfinite(diagram.p_sr[0, 0]) and np.isnan(diagram.p_sr[0, 1])


def make_diagram(p_sr):
    p = np.asarray(p_sr, dtype=float)
    cfg = small_config()
    return BehaviorDiagram(amplitudes=tuple(range(p.shape[0])),
                           xis=tuple(range(p.shape[1])),
                           trial_rolls=np.zeros(p.shape + (1,)),
                           p_sr=p, errors=(), config=cfg)


def test_binariness_extremes():
    assert binariness(make_diagram([[0.0, 1.0], [1.0, 0.0]])) == 0.0
    assert binariness(make_diagram([[0.5, 0.5], [0.5, 0.5]])) == 1.0
    assert binariness(make_diagram([[0.5, 1.0], [0.0, 0.0]])) == 0.25


def test_gait_for_uses_spec_frequency():
    cfg = replace(small_config(), gait=GaitParams(temporal_frequency=2e-3))
    p = cell_gait(cfg, 0.4, 0.7)
    assert p.amplitude_lateral == 0.4
    assert p.amplitude_vertical == 0.4
    assert p.temporal_frequency == 2e-3
    assert p.spatial_frequency == 0.7


def test_spec_validation():
    with pytest.raises(ConfigError):
        small_config(amplitudes=())
    with pytest.raises(ConfigError):
        small_config(trials_per_cell=0)
    with pytest.raises(ConfigError):
        small_config(mode="other")


def forbid_drawing_and_marching(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("called past the span and lane checks")

    monkeypatch.setattr(PerturbationSpec, "draw_trials", forbidden)
    monkeypatch.setattr(rollmodel, "_integrate", forbidden)


def test_run_sweep_rejects_an_oversized_span_unmarched(monkeypatch):
    """A trial one output interval over the cap is a ConfigError, raised
    before any perturbation is drawn or any lane marched; the cap itself
    passes the check."""
    forbid_drawing_and_marching(monkeypatch)
    for steps, allowed in ((MAX_RESOLUTION + 1, False),
                           (MAX_RESOLUTION, True)):
        cfg = small_config(roll=RollSettings(steps_per_cycle=steps))
        with pytest.raises(AssertionError if allowed else ConfigError,
                           match=None if allowed else
                           "at most 1048576 output intervals"):
            run_sweep(cfg)


@pytest.mark.parametrize("mode", ["lumped", "segmented"])
def test_run_sweep_rejects_an_oversized_batch_undrawn(monkeypatch, mode):
    """A one-cell batch of more than MAX_RESOLUTION lanes (trials x lanes
    per trial: exactly cap + 1 lumped, the next whole trial segmented) is
    a ConfigError, raised before any perturbation is drawn or any lane
    built or marched; the largest batch within the cap reaches the draw."""
    forbid_drawing_and_marching(monkeypatch)
    most = MAX_RESOLUTION // (1 if mode == "lumped" else 10)
    for trials, allowed in ((most + 1, False), (most, True)):
        cfg = small_config(mode=mode, amplitudes=(math.pi / 4,), xis=(0.0,),
                           trials_per_cell=trials)
        with pytest.raises(AssertionError if allowed else ConfigError,
                           match="past the span" if allowed else
                           f"at most {MAX_RESOLUTION} lanes"):
            run_sweep(cfg)


def test_simulate_roll_rejects_oversized_records_undrawn(monkeypatch):
    """A segmented run that would record MAX_RECORDS + 1 roll states (257
    modules over 65,280 intervals, each within its own cap) is a
    ConfigError, raised before anything is drawn, marched or allocated;
    MAX_RECORDS itself (256 modules over 65,535 intervals) and the span
    cap on the default 10-module body reach the draw."""
    forbid_drawing_and_marching(monkeypatch)
    gait = GaitParams(temporal_frequency=1e-3)
    for modules, intervals, allowed in ((257, 65_280, False),
                                        (256, 65_535, True),
                                        (10, MAX_RESOLUTION, True)):
        assert ((intervals + 1) * modules <= MAX_RECORDS) == allowed
        tracemalloc.start()
        try:
            with pytest.raises(AssertionError if allowed else ConfigError,
                               match="past the span" if allowed else
                               f"at most {MAX_RECORDS} roll states"):
                simulate_roll(gait, Morphology(num_modules=modules),
                              cycles=intervals / 256, mode="segmented")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * MAX_RESOLUTION


def test_sweep_shapes_and_determinism():
    cfg = small_config()
    first = run_sweep(cfg)
    second = run_sweep(small_config())
    assert first.trial_rolls.shape == (2, 2, 2)
    assert first.p_sr.shape == (2, 2)
    assert np.array_equal(first.trial_rolls, second.trial_rolls)
    assert np.array_equal(first.p_sr, second.p_sr)

    shifted = run_sweep(small_config(seed=1))
    assert not np.array_equal(first.trial_rolls, shifted.trial_rolls)


def test_limbless_low_xi_saturates():
    cfg = small_config(amplitudes=(math.pi / 12, math.pi / 6, math.pi / 4),
                       xis=(0.0, 0.2, 0.4))
    diagram = run_sweep(cfg)
    assert (diagram.p_sr == 1.0).all()


def test_limbless_xi_dominates_amplitude():
    cfg = small_config(amplitudes=DEFAULT_AMPLITUDES, xis=(0.0, 0.5, 0.9, 1.2),
                       trials_per_cell=3)
    diagram = run_sweep(cfg)
    variation = diagram.p_sr.max(axis=0) - diagram.p_sr.min(axis=0)
    assert (variation <= 1.0 / cfg.sweep.trials_per_cell + 1e-12).all()


def test_legged_amplitude_monotone_per_xi():
    cfg = small_config(morphology=LEGGED, amplitudes=DEFAULT_AMPLITUDES,
                       xis=(0.0, 0.4), trials_per_cell=3,
                       cycles_per_trial=2)
    diagram = run_sweep(cfg)
    tol = 1.0 / cfg.sweep.trials_per_cell
    drops = np.diff(diagram.p_sr, axis=0)
    assert (drops >= -tol - 1e-12).all()


def test_segmented_mode_runs():
    cfg = small_config(morphology=LEGGED, mode="segmented",
                       amplitudes=(math.pi / 4,), xis=(0.0, 0.6),
                       trials_per_cell=1)
    diagram = run_sweep(cfg)
    assert diagram.errors == ()
    assert np.isfinite(diagram.p_sr).all()


def test_error_cells_are_tagged_not_fatal():
    # strong coupling thrashes the staggered segmented roll; those cells
    # must come back as NaN with an error note, the rest untouched
    cfg = small_config(morphology=LEGGED, mode="segmented",
                       roll=RollSettings(kappa=0.5),
                       amplitudes=(math.pi / 4,), xis=(0.0, 0.6),
                       trials_per_cell=1)
    diagram = run_sweep(cfg)
    assert np.isfinite(diagram.p_sr[0, 0])
    assert np.isnan(diagram.p_sr[0, 1])
    assert len(diagram.errors) == 1
    assert "cell" in diagram.errors[0]


def test_csv_and_json_outputs(tmp_path):
    cfg = small_config()
    diagram = run_sweep(cfg)
    digest = config_hash(provenance_config(cfg))

    csv_path = tmp_path / "sweep.csv"
    write_diagram_csv(diagram, csv_path)
    lines = csv_path.read_text().splitlines()
    assert lines[0].startswith("#")
    assert f"config_sha256={digest}" in lines[0]
    assert lines[1] == "A_rad,xi,trial,rolls_per_cycle,p_sr"
    # per cell: one row per trial plus a summary row
    assert len(lines) == 2 + 4 * (cfg.sweep.trials_per_cell + 1)
    summaries = [ln for ln in lines if ",summary," in ln]
    assert len(summaries) == 4
    trial_rows = [ln for ln in lines[2:] if ",summary," not in ln]
    assert all(ln.endswith(",") for ln in trial_rows)

    json_path = tmp_path / "sweep.json"
    write_diagram_json(diagram, json_path)
    doc = json.loads(json_path.read_text())
    assert doc["meta"]["config_sha256"] == digest
    assert doc["protocol"]["seed"] == 0
    assert np.asarray(doc["p_sr"]).shape == (2, 2)
    assert doc["calibration"]["mu"] == cfg.roll.mu

    # identical rerun, identical bytes
    write_diagram_csv(run_sweep(small_config()), tmp_path / "again.csv")
    assert (tmp_path / "again.csv").read_bytes() == csv_path.read_bytes()


def test_json_null_for_failed_cells(tmp_path):
    cfg = small_config(morphology=LEGGED, mode="segmented",
                       roll=RollSettings(kappa=0.5),
                       amplitudes=(math.pi / 4,), xis=(0.6,),
                       trials_per_cell=1)
    diagram = run_sweep(cfg)
    path = tmp_path / "failed.json"
    write_diagram_json(diagram, path)
    doc = json.loads(path.read_text())
    assert doc["p_sr"][0][0] is None
    assert doc["errors"]


def test_lumped_lanes_independent_of_batch():
    # a lane's trajectory must not depend on which lanes share its batch:
    # the leading rows of a larger grid keep their cell indices and draws
    sub = small_config(morphology=LEGGED, amplitudes=DEFAULT_AMPLITUDES[:3],
                       xis=(0.0, 0.4, 1.1))
    full = small_config(morphology=LEGGED, amplitudes=DEFAULT_AMPLITUDES,
                        xis=(0.0, 0.4, 1.1))
    small = run_sweep(sub)
    large = run_sweep(full)
    assert np.array_equal(small.trial_rolls, large.trial_rolls[:3])
    assert np.array_equal(small.p_sr, large.p_sr[:3])


def test_failed_trial_leaves_batch_mates_untouched():
    cfg = small_config(morphology=LEGGED, mode="segmented",
                       roll=RollSettings(kappa=0.5),
                       amplitudes=(math.pi / 4,), xis=(0.0, 0.6),
                       trials_per_cell=1)
    batch = run_sweep(cfg)
    solo = run_sweep(small_config(morphology=LEGGED, mode="segmented",
                                  roll=RollSettings(kappa=0.5),
                                  amplitudes=(math.pi / 4,), xis=(0.0,),
                                  trials_per_cell=1))
    assert np.isnan(batch.trial_rolls[0, 1]).all()
    assert solo.errors == ()
    assert np.array_equal(batch.trial_rolls[0, :1], solo.trial_rolls[0])
    assert batch.p_sr[0, 0] == solo.p_sr[0, 0]


def test_failed_trials_logged(caplog):
    cfg = small_config(morphology=LEGGED, mode="segmented",
                       roll=RollSettings(kappa=0.5),
                       amplitudes=(math.pi / 4,), xis=(0.6,),
                       trials_per_cell=1)
    with caplog.at_level(logging.WARNING, logger="selfright"):
        diagram = run_sweep(cfg)
    logged = [r for r in caplog.records if r.name == "selfright"]
    assert [r.getMessage() for r in logged] == list(diagram.errors)
    assert all(r.levelno == logging.WARNING for r in logged)
    assert diagram.errors[0].startswith("cell(0,0) trial 0: ")


@pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 + 5,
                                  2**140 + 11])
@pytest.mark.parametrize("spec", [
    PerturbationSpec(), PerturbationSpec(gamma_jitter=0.0),
    PerturbationSpec(gain_noise=0.0),
    PerturbationSpec(gamma_jitter=0.0, gain_noise=0.0),
], ids=["default", "no-jitter", "no-gain-noise", "none"])
def test_draw_trials_equals_per_trial_streams(seed, spec):
    """One-pass draws equal Generator.uniform on each trial's own stream,
    bitwise, for a whole grid and for any cell and trial indices.

    The jitter is drawn first, then the gain noise; a zero width draws
    nothing. SeedSequence pads a seed of up to four 32-bit words and
    mixes the words past four in later.
    """
    def reference(cell, trial):
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(
            entropy=seed, spawn_key=(cell, trial))))
        jitter, noise = (rng.uniform(-w, w) if w else 0.0
                         for w in (spec.gamma_jitter, spec.gain_noise))
        return jitter, 1.0 + noise

    for cells, trials in ((range(3 * 4), range(5)),
                          ([7, 0, 2**32 - 1], [4, 2**31])):
        jitter, gain_factor = spec.draw_trials(seed, cells, trials)
        expected = np.array([[reference(cell, trial) for trial in trials]
                             for cell in cells])
        drawn = np.stack([jitter, gain_factor], axis=-1)
        assert drawn.dtype == expected.dtype == np.float64
        assert np.array_equal(drawn.view(np.uint64),
                              expected.view(np.uint64))


def replay(cfg, a_idx, x_idx, trial):
    """simulate_roll of one sweep trial: its cell's gait, the inverted
    start, the sweep's span and that trial's stream."""
    sw, roll = cfg.sweep, cfg.roll
    return simulate_roll(
        cell_gait(cfg, sw.amplitudes[a_idx], sw.xis[x_idx]), cfg.morphology,
        cycles=sw.cycles_per_trial, gamma0=math.pi,
        perturb=sw.perturbation(), mode=cfg.mode,
        stream=(cfg.seed, a_idx * len(sw.xis) + x_idx, trial), mu=roll.mu,
        kappa=roll.kappa, steps_per_cycle=roll.steps_per_cycle)


@pytest.mark.parametrize("mode, perturb", [
    ("segmented", PerturbationSpec()),
    ("segmented", PerturbationSpec(gamma_jitter=0.0, gain_noise=0.1)),
    ("lumped", PerturbationSpec(gamma_jitter=0.0, gain_noise=0.1)),
], ids=["segmented-default", "segmented-no-jitter", "lumped-no-jitter"])
def test_batched_trial_equals_simulate_roll(mode, perturb):
    """A sweep trial is simulate_roll on that trial's stream: its rolls per
    cycle bitwise, and its trajectory's start and end."""
    cfg = small_config(morphology=LEGGED, mode=mode,
                       gamma_jitter=perturb.gamma_jitter,
                       gain_noise=perturb.gain_noise,
                       amplitudes=(math.pi / 8, math.pi / 3),
                       xis=(0.0, 0.6))
    diagram = run_sweep(cfg)
    for a_idx, x_idx, trial in ((0, 0, 0), (1, 1, 1)):
        traj = replay(cfg, a_idx, x_idx, trial)
        rolls = traj.delta_gamma_total / (2 * math.pi
                                          * cfg.sweep.cycles_per_trial)
        assert diagram.trial_rolls[a_idx, x_idx, trial] == rolls
        assert traj.rolls_per_cycle == rolls


@pytest.mark.parametrize("cfg", [
    small_config(morphology=LEGGED, amplitudes=DEFAULT_AMPLITUDES[2:7],
                 xis=(0.0, 0.3, 0.6, 0.9), trials_per_cell=3),
    small_config(amplitudes=(math.pi / 12, math.pi / 4),
                 xis=(0.0, 0.5, 1.0), trials_per_cell=5, seed=3),
    # Limbless segmented chains at the default kappa: A = pi/24 at
    # xi = 0.6 rolls a whole turn (ROADMAP item 1), and so do others.
    small_config(mode="segmented", amplitudes=(math.pi / 24, math.pi / 4),
                 xis=(0.0, 0.6), trials_per_cell=2, seed=1),
], ids=["legged", "limbless", "segmented-failing"])
def test_simulate_replays_every_sweep_trial(cfg):
    """Every trial of a sweep, replayed by simulate_roll on its stream,
    gives its rolls per cycle bitwise; a trial the sweep reads NaN raises
    IntegrationError with the sweep's reason."""
    diagram = run_sweep(cfg)
    errors = {}
    for (a_idx, x_idx, trial), rolls in np.ndenumerate(diagram.trial_rolls):
        if math.isnan(rolls):
            with pytest.raises(IntegrationError) as failed:
                replay(cfg, a_idx, x_idx, trial)
            errors[a_idx, x_idx, trial] = str(failed.value)
        else:
            assert replay(cfg, a_idx, x_idx, trial).rolls_per_cycle == rolls
    assert [f"cell({a},{x}) trial {t}: {reason}"
            for (a, x, t), reason in sorted(errors.items())] == list(
                diagram.errors)
    if cfg.mode == "segmented":
        assert errors and len(errors) < diagram.trial_rolls.size


@pytest.mark.parametrize("mode, amplitude, xi, seed, cycles", [
    ("lumped", math.pi / 6, 0.3, 4, 2),
    ("segmented", math.pi / 4, 0.6, 11, 1)], ids=["lumped", "segmented"])
def test_cli_simulate_perturb_replays_sweep_trial_0(tmp_path, mode,
                                                    amplitude, xi, seed,
                                                    cycles):
    """simulate --perturb --seed s is trial (0, 0) of seed s: from the
    inverted start, over the sweep's cycles, with the cell's amplitude and
    xi, its rolls per cycle is trial 0 of the one-cell sweep's."""
    cfg = RunConfig(mode=mode, sweep=SweepSettings(
        amplitudes=(amplitude,), xis=(xi,), trials_per_cell=1,
        cycles_per_trial=cycles))
    path = tmp_path / "config.json"
    save_config(cfg, path)
    common = ["--config", str(path), "--seed", str(seed)]
    assert main(["sweep", *common, "--out", str(tmp_path / "sweep")]) == 0
    assert main(["simulate", *common, "--perturb", "--gamma0",
                 repr(math.pi), "--cycles", str(cycles), "--amplitude",
                 repr(amplitude), "--xi", repr(xi),
                 "--out", str(tmp_path / "sim")]) == 0
    swept = json.loads((tmp_path / "sweep" / "sweep.json").read_text())
    simulated = json.loads((tmp_path / "sim" / "outcome.json").read_text())
    assert simulated["rolls_per_cycle"] == swept["trial_rolls"][0][0][0]
