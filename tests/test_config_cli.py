"""Run-configuration round trips and command-line behavior."""

import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import selfright.cli
from selfright import (BehaviorDiagram, ConfigError, DisplacementReport,
                       EnergyLandscape, GaitParams, JointAngles, Morphology,
                       RollTrajectory, RunConfig, config_from_dict,
                       config_hash, config_json, config_to_dict,
                       lateral_angle, load_config, run_sweep, save_config)
from selfright.cli import (build_parser, main, write_diagram_csv,
                           write_diagram_json)
from selfright.config import (DEFAULT_AMPLITUDES, RollSettings,
                              SidewindSettings, SweepSettings, merge_config)
from selfright.gait import QUASI_STATIC_OMEGA
from selfright.rollmodel import KAPPA_DEFAULT, MAX_RESOLUTION, STEPS_PER_CYCLE

from conftest import GRAVITY

SRC = Path(__file__).resolve().parents[1] / "src"


def custom_config():
    return RunConfig(
        morphology=Morphology(leg_length=0.07, module_mass=0.2),
        gait=GaitParams(amplitude_lateral=0.5, amplitude_vertical=0.3,
                        temporal_frequency=2e-3, spatial_frequency=0.8),
        seed=99, mode="segmented")


@pytest.mark.parametrize("cfg", [RunConfig(), custom_config()],
                         ids=["default", "custom"])
def test_dict_round_trip(cfg):
    assert config_from_dict(config_to_dict(cfg)) == cfg


def test_json_round_trip(tmp_path):
    cfg = custom_config()
    path = tmp_path / "run.json"
    save_config(cfg, path)
    assert load_config(path) == cfg
    # canonical text: same config, same bytes
    save_config(cfg, tmp_path / "again.json")
    assert (tmp_path / "again.json").read_bytes() == path.read_bytes()


def test_unknown_keys_rejected():
    doc = config_to_dict(RunConfig())
    doc["extra"] = 1
    with pytest.raises(ConfigError):
        config_from_dict(doc)
    doc = config_to_dict(RunConfig())
    doc["gait"]["warp"] = 2
    with pytest.raises(ConfigError):
        config_from_dict(doc)


def test_invalid_json_raises_config_error(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError):
        load_config(path)


def test_nested_validation_surfaces():
    doc = config_to_dict(RunConfig())
    doc["gait"]["amplitude_lateral"] = 3.0
    with pytest.raises(ConfigError):
        config_from_dict(doc)
    doc = config_to_dict(RunConfig())
    doc["mode"] = "wobbly"
    with pytest.raises(ConfigError):
        config_from_dict(doc)


@pytest.mark.parametrize("cls, name, value", [
    (RollSettings, "mu", math.nan),
    (RollSettings, "kappa", math.nan),
    (RollSettings, "mu", math.inf),
    (RollSettings, "kappa", math.inf),
    (SidewindSettings, "contact_tol", math.nan),
    (SidewindSettings, "contact_tol", math.inf),
    (GaitParams, "spatial_frequency", math.nan),
    (SweepSettings, "gamma_jitter", math.nan),
    (SweepSettings, "gain_noise", math.nan),
    (SweepSettings, "gamma_jitter", -0.1),
    (SweepSettings, "gain_noise", -0.1),
    (SweepSettings, "amplitudes", (math.pi / 4, math.nan)),
    (SweepSettings, "amplitudes", (-0.1,)),
    (SweepSettings, "amplitudes", (2.0,)),
    (SweepSettings, "xis", (math.nan,)),
    (SweepSettings, "xis", (0.3, math.inf)),
    (SweepSettings, "xis", (-0.1,)),
    (RunConfig, "seed", -1),
])
def test_range_checks_reject_nan_and_negative_widths(cls, name, value):
    with pytest.raises(ConfigError, match=name):
        cls(**{name: value})


def test_float_field_keeps_an_int():
    doc = config_to_dict(RunConfig())
    doc["roll"]["mu"] = 5
    mu = config_from_dict(doc).roll.mu
    assert mu == 5 and type(mu) is int


# One field of each section, set to a value unlike RunConfig's.
ONE_KEY = (("morphology", "leg_length", 0.05),
           ("gait", "spatial_frequency", 0.6), ("roll", "kappa", 0.1),
           ("sweep", "trials_per_cell", 2), ("sidewinding", "cycles", 3))


def test_gait_params_default_is_the_runs_gait():
    """The drive frequency has one default, the quasi-static one: a bare
    GaitParams() is the gait a default run drives."""
    assert GaitParams() == RunConfig().gait
    assert GaitParams().temporal_frequency == QUASI_STATIC_OMEGA


def test_one_key_section_replaces_only_that_field():
    """A section that names one field keeps RunConfig's other fields:
    {"gait": {"spatial_frequency": 0.6}} keeps the quasi-static drive
    frequency."""
    base = RunConfig()
    for section, name, value in ONE_KEY:
        want = replace(base, **{section: replace(getattr(base, section),
                                                 **{name: value})})
        assert config_from_dict({section: {name: value}}) == want, section
    gait = config_from_dict({"gait": {"spatial_frequency": 0.6}}).gait
    assert gait.temporal_frequency == QUASI_STATIC_OMEGA


def test_merge_config_merges_onto_the_running_config():
    """Each section merges onto the running config's own, whatever it
    holds; a float field given an int by a lower layer still takes a
    float, and the file layer's error messages keep their text."""
    base = custom_config()
    for section, name, value in ONE_KEY:
        want = replace(base, **{section: replace(getattr(base, section),
                                                 **{name: value})})
        assert merge_config(base, {section: {name: value}}) == want, section
    ints = config_from_dict({"morphology": {"leg_length": 0}})
    legs = merge_config(ints, {"morphology": {"leg_length": 0.05}})
    assert legs.morphology.leg_length == 0.05
    with pytest.raises(ConfigError, match=r"^config\.gait\.spatial_frequency: "
                       r"expected float, got '0\.3'$"):
        merge_config(base, {"gait": {"spatial_frequency": "0.3"}})
    with pytest.raises(ConfigError,
                       match=r"^config\.roll: unknown keys \['warp'\]$"):
        merge_config(base, {"roll": {"warp": 1}})


def test_hash_tracks_content():
    a = RunConfig()
    b = replace(a, seed=1)
    assert config_hash(a) == config_hash(RunConfig())
    assert config_hash(a) != config_hash(b)
    assert len(config_hash(a)) == 64
    assert json.loads(config_json(a))["seed"] == 0


def run_cli(args):
    return main([str(a) for a in args])


def read_meta(path):
    first = path.read_text().splitlines()[0]
    assert first.startswith("# config_sha256=")
    fields = dict(kv.split("=") for kv in first[2:].split())
    return fields


def test_parser_is_built_once():
    """main reuses one parser per process: building it costs a fair share
    of a short command such as sidewind."""
    assert build_parser() is build_parser()


def test_cli_gait_table(tmp_path):
    assert run_cli(["gait", "--out", tmp_path, "--samples", 8]) == 0
    path = tmp_path / "gait.csv"
    lines = path.read_text().splitlines()
    meta = read_meta(path)
    assert meta["seed"] == "0"
    assert lines[1] == "time_s,joint,axis,angle_rad"
    # 9 samples inclusive of both cycle ends, 9 joints per sample
    assert len(lines) == 2 + 9 * 9

    # default gait is in phase: all lateral entries equal per timestep
    rows = [ln.split(",") for ln in lines[2:]]
    t0_lat = [r[3] for r in rows if r[0] == "0" and r[2] == "lateral"]
    assert len(set(t0_lat)) == 1


def test_cli_gait_streams_its_rows(tmp_path, capsys):
    """gait --samples 20000 writes its 180,009 rows one by one: the run's
    traced peak stays below 16 MB, where holding every row as a tuple
    first peaked at 58 MB."""
    tracemalloc.start()
    try:
        status = run_cli(["gait", "--out", tmp_path, "--samples", 20_000])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert status == 0
    assert capsys.readouterr().out == f"{tmp_path / 'gait.csv'}\n"
    with open(tmp_path / "gait.csv") as f:
        assert sum(1 for _ in f) == 2 + 20_001 * 9
    assert peak < 16_000_000


def test_cli_gait_memory_does_not_grow_with_samples(tmp_path, capsys):
    """gait computes and formats its rows 1,024 samples at a time, so its
    traced peak does not grow with --samples. Bound, fixed before the run:
    a block's lists and arrays take about 0.6 MB and the writer's 4,096
    lines about 0.5 MB, so 8,192 samples stay below 2.5 MB and within
    0.25 MB of the peak at 1,024. Holding whole-array lists peaked at
    5.2 MB at 8,192 samples (35 MB at 65,536)."""
    peaks = []
    for samples in (1024, 8192):
        tracemalloc.start()
        try:
            status = run_cli(["gait", "--out", tmp_path, "--samples",
                              samples])
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert status == 0
    capsys.readouterr()
    with open(tmp_path / "gait.csv") as f:
        assert sum(1 for _ in f) == 2 + 8193 * 9
    assert peaks[1] < 2_500_000
    assert peaks[1] - peaks[0] < 250_000


def test_sweep_csv_streams_its_rows(tmp_path, capsys):
    """A one-cell diagram of 100,000 trials writes its sweep.csv rows one
    by one: the writer's traced peak (4.3 MB) stays below 8 MB, where
    holding every row as a tuple first peaked at 15.9 MB."""
    trials = 100_000
    diagram = BehaviorDiagram(
        amplitudes=np.array([math.pi / 4]), xis=np.array([0.6]),
        trial_rolls=np.linspace(0.0, 1.0, trials).reshape(1, 1, trials),
        p_sr=np.array([[0.5]]), errors=(),
        config=RunConfig(sweep=SweepSettings(
            amplitudes=(math.pi / 4,), xis=(0.6,), trials_per_cell=trials)))
    tracemalloc.start()
    try:
        write_diagram_csv(diagram, tmp_path / "sweep.csv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert capsys.readouterr().out == f"{tmp_path / 'sweep.csv'}\n"
    with open(tmp_path / "sweep.csv") as f:
        assert sum(1 for _ in f) == 2 + trials + 1
    assert peak < 8_000_000


def test_sweep_json_streams_its_text(tmp_path, capsys):
    """The same 100,000-trial diagram writes sweep.json as its encoder's
    chunks, joined 4,096 at a time: the writer's traced peak stays below
    8 MB (the document's lists of floats take about 3.2 MB), where
    encoding the whole text first peaked at 13.1 MB. The bytes are
    json.dumps' with indent 1 and sorted keys."""
    trials = 100_000
    rolls = np.linspace(0.0, 1.0, trials)
    diagram = BehaviorDiagram(
        amplitudes=np.array([math.pi / 4]), xis=np.array([0.6]),
        trial_rolls=rolls.reshape(1, 1, trials),
        p_sr=np.array([[0.5]]), errors=(),
        config=RunConfig(sweep=SweepSettings(
            amplitudes=(math.pi / 4,), xis=(0.6,), trials_per_cell=trials)))
    tracemalloc.start()
    try:
        write_diagram_json(diagram, tmp_path / "sweep.json")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert capsys.readouterr().out == f"{tmp_path / 'sweep.json'}\n"
    text = (tmp_path / "sweep.json").read_text()
    doc = json.loads(text)
    assert doc["trial_rolls"] == [[rolls.tolist()]]
    assert text == json.dumps(doc, indent=1, sort_keys=True) + "\n"
    assert peak < 8_000_000


# Floats whose rendering is easy to get wrong: nan, both infinities,
# negative zero, the smallest subnormal, a large power of ten, a value with
# no short binary form and an integer past 2**53.
ODD_FLOATS = (math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e22, 0.1,
              float(2**53 + 1))


def old_line(row):
    """A CSV row as the writer rendered it before its row templates."""
    return ",".join(format(v, ".17g") if isinstance(v, float) else str(v)
                    for v in row)


def odd_array(shape, shift=0):
    """ODD_FLOATS, rotated by shift, repeated to fill shape."""
    return np.resize(np.roll(np.array(ODD_FLOATS), shift), shape)


def odd_gait(monkeypatch):
    rows = []  # filled block by block as the command runs

    def fake(params, t):
        angles = JointAngles(odd_array((len(t), 9)), odd_array((len(t), 8), 3))
        rows.extend((time, i, axis, a)
                    for time, lat, vert in zip(t.tolist(),
                                               angles.lateral.tolist(),
                                               angles.vertical.tolist())
                    for axis, side in (("lateral", lat), ("vertical", vert))
                    for i, a in enumerate(side))
        return angles

    monkeypatch.setattr(selfright.cli, "joint_vector", fake)
    return ["gait", "--samples", 8], "gait.csv", rows


def odd_energy(monkeypatch):
    columns = [odd_array(16, shift).tolist() for shift in (0, 1, 2)]
    land = EnergyLandscape(*(np.array(c) for c in columns),
                           minima=(0.0, math.pi), barrier=1.0)
    monkeypatch.setattr(selfright.cli, "energy_landscape",
                        lambda morph, resolution: land)
    return ["energy"], "energy.csv", list(zip(*columns))


def odd_simulate(monkeypatch):
    # Row 0 is finite, so the commanded phase is too.
    times = np.array([0.0, *ODD_FLOATS])
    gammas = np.vstack([np.full(10, 0.25), odd_array((8, 10))])
    traj = RollTrajectory(times, gammas, cycles=1.0, rolls_per_cycle=0.0,
                          stalled=False, mode="segmented",
                          righting_intervals=(None,) * 10)
    monkeypatch.setattr(selfright.cli, "simulate_roll",
                        lambda *args, **kwargs: traj)
    phi = 0.25 + RunConfig().gait.temporal_frequency * (times - times[0])
    return (["simulate", "--mode", "segmented"], "trajectory.csv",
            [(t, p, *gs) for t, p, gs in
             zip(times.tolist(), phi.tolist(), gammas.tolist())])


def odd_sidewind(monkeypatch):
    path_xy = odd_array((11, 2))
    report = DisplacementReport(0.5, 0.5, 0.5, 0.0, (0.5, 0.0), 0.0, 1, 10)
    monkeypatch.setattr(selfright.cli, "displacement_trajectory",
                        lambda *args, **kwargs: (report, path_xy))
    cfg = RunConfig()
    return (["sidewind"], "sidewind.csv",
            [(k, cfg.gait.period * k / cfg.sidewinding.samples_per_cycle,
              x, y) for k, (x, y) in enumerate(path_xy.tolist())])


@pytest.mark.parametrize("case", [odd_gait, odd_energy, odd_simulate,
                                  odd_sidewind])
def test_csv_rows_render_as_before(tmp_path, monkeypatch, capsys, case):
    """Each command's row template writes a row as the per-value
    format(v, ".17g") (or str(v) for an int or a label) did. The command's
    computed columns are replaced by fixed odd floats."""
    argv, name, rows = case(monkeypatch)
    assert run_cli([*argv, "--out", tmp_path]) == 0
    capsys.readouterr()
    lines = (tmp_path / name).read_text().splitlines()
    assert lines[2:] == [old_line(row) for row in rows]


def test_sweep_csv_rows_render_as_before(tmp_path, capsys):
    """sweep.csv's trial and summary templates, on a diagram of odd floats
    with NaN cells, write each row as the per-value rendering did."""
    amplitudes, xis = np.array([0.1, -0.0]), np.array([5e-324, 1e22, 3.0])
    trial_rolls = odd_array((2, 3, 4))
    p_sr = odd_array((2, 3), 5)
    assert np.isnan(p_sr).any()
    diagram = BehaviorDiagram(amplitudes, xis, trial_rolls, p_sr, errors=(),
                              config=RunConfig())
    write_diagram_csv(diagram, tmp_path / "sweep.csv")
    capsys.readouterr()
    expected = [
        old_line(row)
        for amp, rolls_row, mean_row, p_row in zip(
            amplitudes.tolist(), trial_rolls.tolist(),
            trial_rolls.mean(axis=2).tolist(), p_sr.tolist())
        for xi, cell, mean, p in zip(xis.tolist(), rolls_row, mean_row,
                                     p_row)
        for row in [*((amp, xi, trial, rolls, "")
                      for trial, rolls in enumerate(cell)),
                    (amp, xi, "summary", mean, p)]]
    lines = (tmp_path / "sweep.csv").read_text().splitlines()
    assert lines[2:] == expected


@pytest.mark.parametrize("argv, hashes", [
    (["gait", "--samples", 8], 1),
    (["energy"], 1),
    (["simulate", "--cycles", 0.25], 1),
    (["sidewind", "--samples", 16], 1),
    (["sweep", "--trials", 1, "--cycles", 1, "--legs", 0], 2),
], ids=["gait", "energy", "simulate", "sidewind", "sweep"])
def test_each_command_hashes_its_config_once(tmp_path, monkeypatch, capsys,
                                             argv, hashes):
    """A command hashes its config once for all its files; a sweep once in
    each of write_diagram_csv and write_diagram_json."""
    calls = []

    def counted(cfg):
        calls.append(cfg)
        return config_hash(cfg)

    monkeypatch.setattr(selfright.cli, "config_hash", counted)
    assert run_cli([*argv, "--out", tmp_path]) == 0
    capsys.readouterr()
    assert len(calls) == hashes


def test_cli_gait_spot_value(tmp_path):
    assert run_cli(["gait", "--out", tmp_path, "--samples", 8,
                    "--xi", 0.6]) == 0
    lines = (tmp_path / "gait.csv").read_text().splitlines()
    rows = [ln.split(",") for ln in lines[2:]]
    params = GaitParams(temporal_frequency=1e-3, spatial_frequency=0.6)
    t2 = params.period * 2 / 8
    row = next(r for r in rows
               if float(r[0]) == t2 and r[2] == "lateral" and r[1] == "1")
    # csv joint index is zero-based; joint column 1 is wave index 2
    assert float(row[3]) == lateral_angle(params, t2, 2)


def test_cli_gait_rejects_empty_cycle(tmp_path, capsys):
    assert run_cli(["gait", "--out", tmp_path, "--samples", 0]) == 1
    assert "--samples must be >= 1" in capsys.readouterr().err
    assert not (tmp_path / "gait.csv").exists()
    # a rejected command creates no output directory
    assert run_cli(["gait", "--out", tmp_path / "fresh", "--samples", 0]) == 1
    assert not (tmp_path / "fresh").exists()


def test_cli_energy_limbless_vs_legged(tmp_path):
    assert run_cli(["energy", "--out", tmp_path / "flat", "--legs", 0,
                    "--resolution", 256]) == 0
    flat = json.loads((tmp_path / "flat" / "energy.json").read_text())
    assert flat["barrier_J"] <= 1e-6
    assert flat["minima_rad"] == []

    assert run_cli(["energy", "--out", tmp_path / "legged",
                    "--resolution", 256]) == 0
    legged = json.loads((tmp_path / "legged" / "energy.json").read_text())
    assert legged["minima_rad"] == pytest.approx([0.0, math.pi], abs=1e-9)
    assert legged["barrier_J"] > flat["barrier_J"]


@pytest.mark.parametrize("leg_angle", [0.0, 0.3, 0.5])
def test_cli_energy_wells_independent_of_resolution(tmp_path, leg_angle):
    cfg = replace(RunConfig(), morphology=Morphology(leg_angle=leg_angle))
    save_config(cfg, tmp_path / "run.json")
    wells = set()
    for res in (64, 256, 1024):
        out = tmp_path / str(res)
        assert run_cli(["energy", "--config", tmp_path / "run.json",
                        "--out", out, "--resolution", res]) == 0
        doc = json.loads((out / "energy.json").read_text())
        assert doc["resolution"] == res
        wells.add(json.dumps([doc["minima_rad"], doc["barrier_J"]]))
    assert len(wells) == 1
    morph = cfg.morphology
    assert doc["barrier_J"] == pytest.approx(
        morph.total_mass * GRAVITY * morph.leg_length, rel=1e-12)


def test_cli_simulate_one_shot(tmp_path):
    assert run_cli(["simulate", "--out", tmp_path / "ok", "--half",
                    "--amplitude", math.pi / 4]) == 0
    ok = json.loads((tmp_path / "ok" / "outcome.json").read_text())
    assert ok["self_righted"] is True

    assert run_cli(["simulate", "--out", tmp_path / "no", "--half",
                    "--amplitude", math.pi / 12]) == 0
    no = json.loads((tmp_path / "no" / "outcome.json").read_text())
    assert no["self_righted"] is False
    assert no["stalled"] is True


def test_cli_simulate_segmented_columns(tmp_path):
    """One roll column per module, and the interval in which each module
    rights, head to tail: the default body's intervals at xi = 0.6 over one
    cycle, and their spread, last minus first, in cycles."""
    assert run_cli(["simulate", "--out", tmp_path, "--mode", "segmented",
                    "--xi", 0.6, "--cycles", 1]) == 0
    header = (tmp_path / "trajectory.csv").read_text().splitlines()[1]
    cols = header.split(",")
    assert cols[:2] == ["time_s", "phi_cmd_rad"]
    assert cols[2:] == [f"gamma_{i}_rad" for i in range(10)]
    outcome = json.loads((tmp_path / "outcome.json").read_text())
    assert outcome["righting_interval"] == [70, 83, 100, 117, 134, 151, 168,
                                            185, 202, 218]
    assert outcome["righting_spread_cycles"] == (218 - 70) / STEPS_PER_CYCLE


def simulate_righting(tmp_path, *argv, kappa=KAPPA_DEFAULT):
    """outcome.json of `simulate --cycles 1` at kappa, with argv."""
    save_config(RunConfig(roll=RollSettings(kappa=kappa)), tmp_path / "k.json")
    assert run_cli(["simulate", "--out", tmp_path, "--cycles", 1,
                    "--config", tmp_path / "k.json", *argv]) == 0
    return json.loads((tmp_path / "outcome.json").read_text())


def test_cli_simulate_righting_interval_follows_the_stagger(tmp_path):
    """In phase (xi = 0) every module rights in the lumped body's interval.
    Uncoupled (kappa = 0), module k rights the command stagger,
    256*xi*k/(M - 1) intervals, after module 0, to within one interval."""
    lumped = simulate_righting(tmp_path)
    assert lumped["righting_interval"] == [65]
    assert lumped["righting_spread_cycles"] == 0.0
    in_phase = simulate_righting(tmp_path, "--mode", "segmented", "--xi", 0)
    assert in_phase["righting_interval"] == [65] * 10
    for xi in (0.2, 0.4, 0.6):
        first, *rest = simulate_righting(
            tmp_path, "--mode", "segmented", "--xi", xi,
            kappa=0.0)["righting_interval"]
        lag = np.array(rest) - first - STEPS_PER_CYCLE * xi * np.arange(
            1, 10) / 9
        assert (np.abs(lag) <= 1.0).all(), xi


def test_cli_simulate_righting_interval_null(tmp_path):
    """A module that never passes the next maximum of U reads null, as does
    the spread; a limbless body has no maximum, so every module does."""
    limbless = simulate_righting(tmp_path, "--mode", "segmented", "--xi",
                                 0.6, "--legs", 0)
    assert limbless["righting_interval"] == [None] * 10
    assert limbless["righting_spread_cycles"] is None
    assert limbless["self_righted"] is True
    tail_behind = simulate_righting(tmp_path, "--mode", "segmented", "--xi",
                                    1.2)["righting_interval"]
    assert None not in tail_behind[:6]
    assert tail_behind[6:] == [None] * 4


@pytest.mark.parametrize("cycles", ["nan", "inf"])
def test_cli_simulate_rejects_non_finite_cycles(tmp_path, capsys, cycles):
    assert run_cli(["simulate", "--out", tmp_path, "--cycles", cycles]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: cycles must be positive and finite")
    assert not (tmp_path / "trajectory.csv").exists()


@pytest.mark.parametrize("argv", [
    ["energy", "--legs", "nan"], ["simulate", "--legs", "inf"],
    ["sidewind", "--legs", "nan"], ["sweep", "--legs=-inf"]])
def test_cli_rejects_non_finite_legs(tmp_path, capsys, argv):
    assert run_cli(argv + ["--out", tmp_path / "out"]) == 1
    assert capsys.readouterr().err.startswith(
        "error: lengths must be finite and >= 0")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("name, value, message", [
    ("leg_angle", "NaN", "leg_angle must be finite"),
    ("module_mass", "Infinity", "module_mass must be positive and finite")])
def test_cli_rejects_non_finite_geometry_in_config(tmp_path, capsys, name,
                                                   value, message):
    path = tmp_path / "config.json"
    path.write_text('{"morphology": {"%s": %s}}' % (name, value))
    assert run_cli(["energy", "--config", path,
                    "--out", tmp_path / "out"]) == 1
    assert capsys.readouterr().err.startswith(f"error: {message}")


@pytest.mark.parametrize("doc, message", [
    ('{"roll": {"mu": Infinity}}', "mu must be positive and finite"),
    ('{"roll": {"kappa": Infinity}, "mode": "segmented"}',
     "kappa must be >= 0 and finite")], ids=["mu", "kappa"])
def test_cli_rejects_non_finite_roll_calibration(tmp_path, capsys, doc,
                                                 message):
    """json.load takes Infinity; a sweep must not run on it (its sweep.json
    would not be strict JSON) nor fail as a non-finite roll state."""
    path = tmp_path / "config.json"
    path.write_text(doc)
    assert run_cli(["sweep", "--config", path,
                    "--out", tmp_path / "out"]) == 1
    assert capsys.readouterr().err.startswith(f"error: {message}")
    assert not (tmp_path / "out").exists()


SPAN = "cycles must span at least one and at most 1048576 output intervals"


@pytest.mark.parametrize("argv, roll, message", [
    (["simulate", "--cycles", (MAX_RESOLUTION + 1) / STEPS_PER_CYCLE], {},
     SPAN),
    (["simulate"], {"steps_per_cycle": MAX_RESOLUTION + 1}, SPAN),
    # The first sample count whose module-samples on the default
    # 10-module body, (samples + 1) * 10, pass the cap.
    (["sidewind", "--samples", MAX_RESOLUTION // 10], {},
     "(cycles * samples_per_cycle + 1) * num_modules must be <= 1048576, "
     "got 1048580"),
    (["gait", "--samples", MAX_RESOLUTION + 1], {}, "--samples must be"),
    (["sweep", "--trials", 1, "--legs", 0, "--cycles", 1],
     {"steps_per_cycle": MAX_RESOLUTION + 1}, SPAN),
    (["sweep", "--trials", 1, "--legs", 0, "--cycles", 100_000_000_000], {},
     SPAN),
    (["sweep", "--trials", 100_000_000, "--legs", 0], {},
     "a batch must have at most 1048576 lanes")],
    ids=["simulate-cycles", "simulate-steps", "sidewind", "gait",
         "sweep-steps", "sweep-cycles", "sweep-trials"])
def test_cli_rejects_oversized_sample_counts_unallocated(tmp_path, capsys,
                                                         argv, roll, message):
    """One sample over the cap is an error line, raised before any
    per-sample array exists: the run's traced peak stays below one float
    per sample."""
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"roll": roll}))
    tracemalloc.start()
    try:
        status = run_cli(argv + ["--config", path, "--out", tmp_path / "out"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert status == 1
    assert capsys.readouterr().err.startswith(f"error: {message}")
    assert peak < 8 * MAX_RESOLUTION
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv, message", [
    (["gait", "--xi", "inf"], "spatial_frequency must be finite"),
    (["sidewind", "--xi", "inf"], "spatial_frequency must be finite"),
    (["simulate", "--xi", "inf"], "spatial_frequency must be finite"),
    (["simulate", "--gamma0", "inf"], "gamma0 must be finite"),
    (["simulate", "--gamma0", "nan"], "gamma0 must be finite"),
    (["energy", "--resolution", MAX_RESOLUTION + 1], "landscape resolution"),
    (["simulate", "--cycles", 0.0001], "cycles must span at least one"),
    (["sweep", "--seed", -1], "seed must be >= 0"),
    (["simulate", "--perturb", "--seed", -1], "seed must be >= 0")])
def test_cli_rejects_out_of_range_inputs(tmp_path, capsys, argv, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli(argv + ["--out", tmp_path / "out"]) == 1
    assert capsys.readouterr().err.startswith(f"error: {message}")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["gait", "simulate", "sidewind", "sweep"])
def test_cli_rejects_a_spatial_frequency_whose_phases_overflow(tmp_path,
                                                               capsys,
                                                               command):
    """xi = 1e308 is finite, but 2*pi*xi is not: each command names the
    input in an error line, with no numpy warning and nothing written,
    instead of writing NaN angles or failing later in the roll or the
    contact set."""
    argv = [command, "--xi", "1e308"]
    if command == "sweep":
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"sweep": {"xis": [1e308]}}))
        argv = ["sweep", "--config", path]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli(argv + ["--out", tmp_path / "out"]) == 1
    assert capsys.readouterr().err.startswith(
        "error: spatial_frequency must be finite")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv, doc, field", [
    (["energy"], {"morphology": {"module_mass": 1e308}}, "module_mass"),
    (["sweep", "--trials", 1, "--cycles", 1],
     {"morphology": {"module_mass": 1e308}}, "module_mass"),
    (["simulate"], {"morphology": {"module_mass": 1e308}}, "module_mass"),
    (["energy", "--legs", 1.7e308], {}, "leg_length"),
    (["energy", "--legs", 1e308], {}, "leg_length"),
    (["gait"], {"gait": {"temporal_frequency": 5e-324}},
     "temporal_frequency"),
    (["sidewind"], {"gait": {"temporal_frequency": 5e-324}},
     "temporal_frequency"),
    (["gait"], {"gait": {"temporal_frequency": 6.3e-308}},
     "temporal_frequency"),
    (["sidewind"], {"gait": {"temporal_frequency": 6.3e-308}},
     "temporal_frequency"),
    (["sidewind"], {"morphology": {"link_length": 1e308}}, "link_length")],
    ids=["energy-mass", "sweep-mass", "simulate-mass", "energy-legs-1.7e308",
         "energy-legs-1e308", "gait-omega", "sidewind-omega",
         "gait-omega-times", "sidewind-omega-times", "sidewind-link"])
def test_cli_rejects_inputs_whose_derived_scales_overflow(tmp_path, capsys,
                                                          argv, doc, field):
    """Each value is finite, but a scale built from it is not (the weight
    times the reach, the body length, the period): each command names the
    field in one error line, with no numpy warning and nothing written,
    instead of writing NaN or Infinity or failing later in the roll or the
    contact set."""
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli(argv + ["--config", path,
                               "--out", tmp_path / "out"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert field in err
    assert not (tmp_path / "out").exists()


def test_cli_simulate_half_excludes_cycles(tmp_path, capsys):
    with pytest.raises(SystemExit) as exit_:
        run_cli(["simulate", "--half", "--cycles", 3,
                 "--out", tmp_path / "out"])
    assert exit_.value.code == 2
    assert "not allowed with argument" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


EVERY_COMMAND = [
    (["gait", "--samples", 8], ["gait.csv"]),
    (["energy"], ["energy.csv", "energy.json"]),
    (["simulate", "--half"], ["trajectory.csv", "outcome.json"]),
    (["sweep", "--trials", 1, "--cycles", 1, "--legs", 0],
     ["sweep.csv", "sweep.json"]),
    (["sidewind", "--cycles", 1], ["sidewind.csv", "sidewind.json"])]


@pytest.mark.parametrize("argv, names", EVERY_COMMAND)
def test_cli_prints_the_paths_it_writes(tmp_path, capsys, argv, names):
    out = tmp_path / "out"
    assert run_cli(argv + ["--out", out]) == 0
    lines = capsys.readouterr().out.splitlines()
    paths = [out / name for name in names]
    assert lines[:len(paths)] == [str(p) for p in paths]
    assert not any(line.startswith(str(out)) for line in lines[len(paths):])
    assert sorted(out.iterdir()) == sorted(paths)
    # written in the order printed
    mtimes = [p.stat().st_mtime_ns for p in paths]
    assert mtimes == sorted(mtimes)


@pytest.mark.parametrize("argv, names", EVERY_COMMAND)
def test_cli_closed_stdout_stops_only_the_printing(tmp_path, argv, names):
    """A command whose stdout is a pipe nobody reads (its first write
    raises BrokenPipeError) still writes every file, byte for byte as a
    normal run does, prints no traceback and exits 1."""
    assert run_cli(argv + ["--out", tmp_path / "normal"]) == 0
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run(
            [sys.executable, "-m", "selfright", *map(str, argv),
             "--out", str(tmp_path / "closed")],
            stdout=write_end, stderr=subprocess.PIPE, text=True,
            env=dict(os.environ, PYTHONPATH=str(SRC)))
    finally:
        os.close(write_end)
    assert done.returncode == 1
    assert "Traceback" not in done.stderr
    assert "BrokenPipeError" not in done.stderr
    for name in names:
        assert ((tmp_path / "closed" / name).read_bytes()
                == (tmp_path / "normal" / name).read_bytes())
    assert len(list((tmp_path / "closed").iterdir())) == len(names)


@pytest.mark.parametrize("make", ["missing", "directory", "non-utf-8"])
def test_cli_reports_an_unreadable_config(tmp_path, capsys, make):
    path = tmp_path / "config.json"
    if make == "directory":
        path.mkdir()
    elif make == "non-utf-8":
        path.write_bytes(b"\xff\xfe")
    assert run_cli(["sweep", "--config", path,
                    "--out", tmp_path / "out"]) == 1
    assert capsys.readouterr().err.startswith(
        f"error: {path}: cannot read (")
    assert not (tmp_path / "out").exists()


# A sweep grid is checked where the config is parsed, so commands that
# run no sweep reject it too instead of hashing NaN or Infinity.
BAD_GRIDS = (("amplitudes", "[NaN, 0.5]"), ("amplitudes", "[2.0]"),
             ("xis", "[Infinity]"), ("xis", "[-0.1]"))


@pytest.mark.parametrize("command, section, name, value", [
    pytest.param("gait", "gait", "lateral_phase", "1e400",
                 id="lateral_phase-1e400"),
    pytest.param("gait", "gait", "temporal_frequency", "Infinity",
                 id="temporal_frequency-Infinity"),
    *(pytest.param(command, "sweep", name, value,
                   id=f"{command}-{name}-{value}")
      for command in ("gait", "energy", "simulate", "sidewind")
      for name, value in BAD_GRIDS)])
def test_cli_rejects_non_finite_gait_in_config(tmp_path, capsys, command,
                                               section, name, value):
    path = tmp_path / "config.json"
    path.write_text('{"%s": {"%s": %s}}' % (section, name, value))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli([command, "--config", path,
                        "--out", tmp_path / "out"]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and name in captured.err
    assert len(captured.err.splitlines()) == 1 and not captured.out
    assert not (tmp_path / "out").exists()


def sweep_config(tmp_path, **overrides):
    cfg = RunConfig(morphology=Morphology(leg_length=0.0))
    doc = config_to_dict(cfg)
    doc["sweep"]["amplitudes"] = [math.pi / 4]
    doc["sweep"]["xis"] = [0.0, 0.3]
    doc["sweep"]["trials_per_cell"] = 2
    doc["sweep"]["cycles_per_trial"] = 1
    doc.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return path


def test_cli_sweep_deterministic_outputs(tmp_path):
    cfg_path = sweep_config(tmp_path)
    for name in ("a", "b"):
        assert run_cli(["sweep", "--config", cfg_path,
                        "--out", tmp_path / name]) == 0
    a = (tmp_path / "a" / "sweep.csv").read_bytes()
    b = (tmp_path / "b" / "sweep.csv").read_bytes()
    assert a == b
    aj = (tmp_path / "a" / "sweep.json").read_bytes()
    bj = (tmp_path / "b" / "sweep.json").read_bytes()
    assert aj == bj

    doc = json.loads(aj)
    assert doc["meta"]["seed"] == 0
    assert len(doc["meta"]["config_sha256"]) == 64

    # a different seed changes the bytes
    assert run_cli(["sweep", "--config", cfg_path, "--seed", 5,
                    "--out", tmp_path / "c"]) == 0
    assert (tmp_path / "c" / "sweep.csv").read_bytes() != a


@pytest.mark.parametrize("section, key, value", [
    ("roll", "steps_per_cycle", 256.5),
    ("sweep", "trials_per_cell", 2.5),
    ("sweep", "cycles_per_trial", 1.5),
    ("sweep", "trials_per_cell", True),
    ("sweep", "amplitudes", ["x"]),
    ("gait", "spatial_frequency", "0.3"),
    (None, "seed", "x"),
])
def test_cli_rejects_wrongly_typed_config(tmp_path, capsys, section, key,
                                          value):
    path = sweep_config(tmp_path)
    doc = json.loads(path.read_text())
    (doc[section] if section else doc)[key] = value
    path.write_text(json.dumps(doc))
    assert run_cli(["sweep", "--config", path, "--out", tmp_path]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and key in err
    assert "Traceback" not in err
    assert not (tmp_path / "sweep.json").exists()


def test_sweep_hash_ignores_unread_settings(tmp_path):
    """The gait amplitudes and spatial frequency, which every cell sets,
    the landscape resolution, which no sweep reads, and the lateral wave's
    phase and the sidewinding section, which no sweep reads either, leave
    the sweep's outputs byte-identical; the drive frequency changes the
    hash. Each case is a partial config file, so that its sections merge
    through the file layer."""
    common = {"morphology": {"leg_length": 0.0},
              "sweep": {"amplitudes": [math.pi / 4], "xis": [0.0, 0.3],
                        "trials_per_cell": 2, "cycles_per_trial": 1}}
    outputs = {}
    for name, doc in (
            ("base", {}),
            ("unread", {"gait": {"amplitude_lateral": 0.5,
                                 "amplitude_vertical": 0.7,
                                 "spatial_frequency": 0.9,
                                 "lateral_phase": 1.5},
                        "roll": {"resolution": 256},
                        "sidewinding": {"cycles": 3, "contact_tol": 0.02}}),
            ("omega", {"gait": {"temporal_frequency": 2e-3}})):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({**common, **doc}))
        assert run_cli(["sweep", "--config", path,
                        "--out", tmp_path / name]) == 0
        outputs[name] = [(tmp_path / name / f).read_bytes()
                         for f in ("sweep.json", "sweep.csv")]
    assert outputs["unread"] == outputs["base"]

    def sha(name):
        return json.loads(outputs[name][0])["meta"]["config_sha256"]

    assert sha("omega") != sha("base")


def test_partial_gait_section_keeps_the_quasi_static_drive(tmp_path):
    """A config file whose gait section names only xi, which every sweep
    cell overwrites, writes the same bytes as no config file: its drive
    frequency stays RunConfig's."""
    path = tmp_path / "xi.json"
    path.write_text(json.dumps({"gait": {"spatial_frequency": 0.6}}))
    argv = ["sweep", "--legs", 0, "--trials", 1, "--cycles", 1]
    assert run_cli([*argv, "--out", tmp_path / "plain"]) == 0
    assert run_cli([*argv, "--config", path, "--out", tmp_path / "xi"]) == 0
    for name in ("sweep.json", "sweep.csv"):
        assert ((tmp_path / "xi" / name).read_bytes()
                == (tmp_path / "plain" / name).read_bytes()), name


def test_sweep_follows_config_gait_joint_count(tmp_path):
    """A sweep reads cfg.gait, so a 3-lateral-joint body sweeps like it
    simulates, through the library and through the command line."""
    cfg = RunConfig(morphology=Morphology(num_modules=8),
                    gait=replace(RunConfig().gait, num_lateral_joints=3),
                    sweep=SweepSettings(amplitudes=(math.pi / 4,),
                                        xis=(0.0, 0.3), trials_per_cell=2,
                                        cycles_per_trial=1))
    assert all(math.isfinite(p) for p in run_sweep(cfg).p_sr.flat)

    path = tmp_path / "config.json"
    save_config(cfg, path)
    assert run_cli(["sweep", "--config", path, "--out", tmp_path]) == 0
    doc = json.loads((tmp_path / "sweep.json").read_text())
    assert all(p is not None and math.isfinite(p)
               for row in doc["p_sr"] for p in row)


@pytest.mark.parametrize("command", [
    ["gait"], ["simulate", "--half"], ["sweep", "--trials", 1, "--cycles", 1],
    ["sidewind", "--samples", 16]],
    ids=["gait", "simulate", "sweep", "sidewind"])
def test_gait_joint_count_must_fit_the_body(tmp_path, capsys, command):
    """A 12-module body has 5 lateral and 6 vertical joints: the default
    4-lateral-joint gait is an error line naming both fields in every
    command, and a 5-lateral-joint gait runs. An odd module count leaves
    as many lateral joints as vertical ones, which no gait drives."""
    for num_modules, num_lateral, fits in ((12, 4, False), (12, 5, True),
                                           (11, 4, False), (11, 5, False)):
        doc = {"morphology": {"num_modules": num_modules},
               "gait": {"num_lateral_joints": num_lateral}}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / f"{num_modules}-{num_lateral}"
        status = run_cli(command + ["--config", path, "--out", out])
        err = capsys.readouterr().err
        assert status == (0 if fits else 1), err
        if not fits:
            assert err.startswith("error: gait.num_lateral_joints")
            assert "morphology.num_modules" in err
            assert not out.exists()
    for n in range(1, 9):
        with pytest.raises(ConfigError, match="morphology.num_modules"):
            RunConfig(morphology=Morphology(num_modules=11),
                      gait=GaitParams(num_lateral_joints=n))


def test_steps_per_cycle_floor_in_every_path(tmp_path, capsys):
    with pytest.raises(ConfigError):
        RollSettings(steps_per_cycle=50)
    doc = config_to_dict(RunConfig())
    doc["roll"]["steps_per_cycle"] = 50
    path = tmp_path / "coarse.json"
    path.write_text(json.dumps(doc))
    for command in ("simulate", "sweep"):
        assert run_cli([command, "--config", path, "--out", tmp_path]) == 1
        assert "steps_per_cycle must be >= 200" in capsys.readouterr().err


def test_cli_sidewind_matches_library(tmp_path):
    assert run_cli(["sidewind", "--out", tmp_path, "--xi", 0.6]) == 0
    doc = json.loads((tmp_path / "sidewind.json").read_text())
    from selfright import lateral_displacement
    expect = lateral_displacement(
        GaitParams(temporal_frequency=1e-3, spatial_frequency=0.6),
        Morphology())
    assert doc["lateral_displacement"] == expect.lateral_displacement
    assert doc["heading_per_cycle_rad"] == expect.heading_per_cycle_rad
    assert (tmp_path / "sidewind.csv").exists()


def test_cli_env_overrides(tmp_path, monkeypatch):
    monkeypatch.setenv("SRSIM_SEED", "42")
    monkeypatch.setenv("SRSIM_OUT", str(tmp_path / "env"))
    assert run_cli(["gait", "--samples", 8]) == 0
    meta = read_meta(tmp_path / "env" / "gait.csv")
    assert meta["seed"] == "42"

    # explicit flag beats the environment
    assert run_cli(["gait", "--samples", 8, "--seed", 7,
                    "--out", tmp_path / "flag"]) == 0
    assert read_meta(tmp_path / "flag" / "gait.csv")["seed"] == "7"


def test_cli_env_validation(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("SRSIM_MODE", "sideways")
    assert run_cli(["gait", "--out", tmp_path]) == 1
    assert "error:" in capsys.readouterr().err

    monkeypatch.delenv("SRSIM_MODE")
    monkeypatch.setenv("SRSIM_SEED", "not-a-number")
    assert run_cli(["gait", "--out", tmp_path]) == 1
    assert "SRSIM_SEED" in capsys.readouterr().err

    monkeypatch.setenv("SRSIM_SEED", "-3")
    assert run_cli(["sweep", "--out", tmp_path / "neg"]) == 1
    assert capsys.readouterr().err.startswith("error: seed must be >= 0")
    assert not (tmp_path / "neg").exists()


def test_cli_legs_flag_changes_hash(tmp_path):
    assert run_cli(["energy", "--out", tmp_path / "a"]) == 0
    assert run_cli(["energy", "--out", tmp_path / "b", "--legs", 0.05]) == 0
    ha = read_meta(tmp_path / "a" / "energy.csv")["config_sha256"]
    hb = read_meta(tmp_path / "b" / "energy.csv")["config_sha256"]
    assert ha != hb


def test_behavior_diagrams_from_sweep(tmp_path, capsys):
    """`sweep` writes each body's diagram and prints its P_sr map, one row
    per amplitude with the largest on top, above the summary line."""
    for body, legs in (("legged", []), ("limbless", ["--legs", "0"])):
        out = tmp_path / body
        assert main(["sweep", "--trials", "1", "--out", str(out)] + legs) == 0
        assert sorted(p.name for p in out.iterdir()) == [
            "sweep.csv", "sweep.json"]
        meta = json.loads((out / "sweep.json").read_text())["meta"]
        assert re.fullmatch("[0-9a-f]{64}", meta["config_sha256"])

        lines = capsys.readouterr().out.splitlines()
        assert lines[2].startswith("  A_rad \\ xi ")
        assert lines[-1].startswith("binariness=")
        rows = lines[3:-1]
        assert [float(r.split()[0]) for r in rows] == pytest.approx(
            sorted(DEFAULT_AMPLITUDES, reverse=True), abs=5e-5)

