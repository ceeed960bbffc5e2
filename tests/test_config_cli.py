"""Run-configuration round trips and command-line behavior."""

import json
import math
from dataclasses import fields, replace

import pytest

from selfright import (ConfigError, GaitParams, Morphology,
                       PerturbationSpec, RunConfig, SweepSpec,
                       config_from_dict, config_hash, config_json,
                       config_to_dict, lateral_angle, load_config,
                       save_config)
from selfright.cli import main
from selfright.config import RollSettings, SweepSettings


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


def test_hash_tracks_content():
    a = RunConfig()
    b = replace(a, seed=1)
    assert config_hash(a) == config_hash(RunConfig())
    assert config_hash(a) != config_hash(b)
    assert len(config_hash(a)) == 64
    assert json.loads(config_json(a))["seed"] == 0


def test_sweep_spec_maps_every_field():
    cfg = RunConfig(
        morphology=Morphology(num_modules=8, leg_length=0.05),
        gait=GaitParams(temporal_frequency=2e-3),
        roll=RollSettings(mu=4.0, kappa=0.1, steps_per_cycle=300,
                          resolution=512),
        sweep=SweepSettings(amplitudes=(0.3, 0.6), xis=(0.5,),
                            trials_per_cell=3, cycles_per_trial=2,
                            gamma_jitter=0.15, gain_noise=0.05),
        seed=7, mode="segmented")
    spec = cfg.sweep_spec()
    assert spec.amplitudes == (0.3, 0.6)
    assert spec.xis == (0.5,)
    assert spec.trials_per_cell == 3
    assert spec.cycles_per_trial == 2
    assert spec.seed == 7
    assert spec.morphology == Morphology(num_modules=8, leg_length=0.05)
    assert spec.mode == "segmented"
    assert spec.perturb == PerturbationSpec(gamma_jitter=0.15,
                                            gain_noise=0.05)
    assert spec.drive_frequency == 2e-3
    assert spec.steps_per_cycle == 300
    assert spec.mu == 4.0
    assert spec.kappa == 0.1
    assert spec.resolution == 512
    # every field was set away from its default, so none can be dropped
    default = SweepSpec()
    for f in fields(SweepSpec):
        assert getattr(spec, f.name) != getattr(default, f.name), f.name


def run_cli(args):
    return main([str(a) for a in args])


def read_meta(path):
    first = path.read_text().splitlines()[0]
    assert first.startswith("# config_sha256=")
    fields = dict(kv.split("=") for kv in first[2:].split())
    return fields


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
    assert run_cli(["simulate", "--out", tmp_path, "--mode", "segmented",
                    "--xi", 0.6, "--cycles", 1]) == 0
    header = (tmp_path / "trajectory.csv").read_text().splitlines()[1]
    cols = header.split(",")
    assert cols[:2] == ["time_s", "phi_cmd_rad"]
    assert cols[2:] == [f"gamma_{i}_rad" for i in range(10)]


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


def test_cli_sidewind_matches_library(tmp_path):
    assert run_cli(["sidewind", "--out", tmp_path, "--xi", 0.6]) == 0
    doc = json.loads((tmp_path / "sidewind.json").read_text())
    from selfright import lateral_displacement
    expect = lateral_displacement(
        GaitParams(temporal_frequency=1e-3, spatial_frequency=0.6),
        Morphology())
    assert doc["lateral_displacement"] == expect.lateral_displacement
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


def test_cli_legs_flag_changes_hash(tmp_path):
    assert run_cli(["energy", "--out", tmp_path / "a"]) == 0
    assert run_cli(["energy", "--out", tmp_path / "b", "--legs", 0.05]) == 0
    ha = read_meta(tmp_path / "a" / "energy.csv")["config_sha256"]
    hb = read_meta(tmp_path / "b" / "energy.csv")["config_sha256"]
    assert ha != hb
