"""Run configuration: dataclass tree, JSON round-trip, and hashing.

One RunConfig drives every CLI subcommand. Parsing is strict: unknown keys
are rejected so a typo in a sweep config fails loudly instead of silently
running defaults.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from dataclasses import dataclass, field, fields
from pathlib import Path

from .errors import ConfigError
from .gait import GaitParams
from .kinematics import Morphology
from .rollmodel import (DEFAULT_RESOLUTION, KAPPA_DEFAULT,
                        MIN_STEPS_PER_CYCLE, MU_DEFAULT, QUASI_STATIC_OMEGA,
                        STEPS_PER_CYCLE, PerturbationSpec)
from .sidewinding import DEFAULT_CONTACT_TOL, DEFAULT_SAMPLES_PER_CYCLE

DEFAULT_AMPLITUDES = tuple(k * math.pi / 24 for k in range(1, 12))
DEFAULT_XIS = tuple(k / 10 for k in range(13))


@dataclass(frozen=True)
class RollSettings:
    """Calibration of the quasi-static roll integrator."""

    mu: float = MU_DEFAULT
    kappa: float = KAPPA_DEFAULT
    steps_per_cycle: int = STEPS_PER_CYCLE
    resolution: int = DEFAULT_RESOLUTION

    def __post_init__(self) -> None:
        if self.mu <= 0:
            raise ConfigError("mu must be positive")
        if self.kappa < 0:
            raise ConfigError("kappa must be >= 0")
        if self.steps_per_cycle < MIN_STEPS_PER_CYCLE:
            raise ConfigError(
                f"steps_per_cycle must be >= {MIN_STEPS_PER_CYCLE}")


@dataclass(frozen=True)
class SweepSettings:
    """Grid and trial protocol of the behavior-diagram sweep."""

    amplitudes: tuple[float, ...] = DEFAULT_AMPLITUDES
    xis: tuple[float, ...] = DEFAULT_XIS
    trials_per_cell: int = 5
    cycles_per_trial: int = 3
    gamma_jitter: float = PerturbationSpec.gamma_jitter
    gain_noise: float = PerturbationSpec.gain_noise

    def __post_init__(self) -> None:
        object.__setattr__(self, "amplitudes", tuple(self.amplitudes))
        object.__setattr__(self, "xis", tuple(self.xis))
        if not self.amplitudes or not self.xis:
            raise ConfigError("sweep grids must be nonempty")
        if self.trials_per_cell < 1 or self.cycles_per_trial < 1:
            raise ConfigError("trials and cycles must be >= 1")

    def perturbation(self) -> PerturbationSpec:
        return PerturbationSpec(gamma_jitter=self.gamma_jitter,
                                gain_noise=self.gain_noise)


@dataclass(frozen=True)
class SidewindSettings:
    """Sampling and contact model of the sidewinding estimator."""

    contact_tol: float = DEFAULT_CONTACT_TOL
    samples_per_cycle: int = DEFAULT_SAMPLES_PER_CYCLE
    cycles: int = 1

    def __post_init__(self) -> None:
        if self.contact_tol < 0:
            raise ConfigError("contact_tol must be >= 0")
        if self.cycles < 1:
            raise ConfigError("cycles must be >= 1")


def _default_gait() -> GaitParams:
    # Simulation default: quasi-static drive frequency.
    return GaitParams(temporal_frequency=QUASI_STATIC_OMEGA)


@dataclass(frozen=True)
class RunConfig:
    """Everything a run needs; serializes to one JSON document."""

    morphology: Morphology = field(default_factory=Morphology)
    gait: GaitParams = field(default_factory=_default_gait)
    roll: RollSettings = field(default_factory=RollSettings)
    sweep: SweepSettings = field(default_factory=SweepSettings)
    sidewinding: SidewindSettings = field(default_factory=SidewindSettings)
    seed: int = 0
    mode: str = "lumped"

    def __post_init__(self) -> None:
        if self.mode not in ("lumped", "segmented"):
            raise ConfigError(f"unknown mode {self.mode!r}")


_SECTIONS = {
    "morphology": Morphology,
    "gait": GaitParams,
    "roll": RollSettings,
    "sweep": SweepSettings,
    "sidewinding": SidewindSettings,
}


def _build(cls, data: dict, path: str):
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: expected an object")
    known = {f.name: f for f in fields(cls)}
    unknown = set(data) - set(known)
    if unknown:
        raise ConfigError(f"{path}: unknown keys {sorted(unknown)}")
    kwargs = {}
    for name, value in data.items():
        if isinstance(value, list):
            value = tuple(value)
        kwargs[name] = value
    try:
        return cls(**kwargs)
    except TypeError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def config_from_dict(data: dict) -> RunConfig:
    """Strict parse of a config dictionary; unknown keys are errors."""
    if not isinstance(data, dict):
        raise ConfigError("config root must be an object")
    top_known = {f.name for f in fields(RunConfig)}
    unknown = set(data) - top_known
    if unknown:
        raise ConfigError(f"config: unknown keys {sorted(unknown)}")
    kwargs = {}
    for name, value in data.items():
        if name in _SECTIONS:
            kwargs[name] = _build(_SECTIONS[name], value, name)
        else:
            kwargs[name] = value
    return RunConfig(**kwargs)


def config_to_dict(config: RunConfig) -> dict:
    data = dataclasses.asdict(config)

    def detuple(obj):
        if isinstance(obj, tuple):
            return [detuple(v) for v in obj]
        if isinstance(obj, dict):
            return {k: detuple(v) for k, v in obj.items()}
        return obj

    return detuple(data)


def load_config(path: str | Path) -> RunConfig:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON ({exc})") from exc
    return config_from_dict(data)


def save_config(config: RunConfig, path: str | Path) -> None:
    with open(path, "w") as fh:
        fh.write(config_json(config))
        fh.write("\n")


def config_json(config: RunConfig) -> str:
    """Canonical JSON form: sorted keys, round-trippable floats."""
    return json.dumps(config_to_dict(config), indent=1, sort_keys=True)


def config_hash(config: RunConfig) -> str:
    """sha256 of the canonical JSON; embedded in every output file."""
    return hashlib.sha256(config_json(config).encode()).hexdigest()
