"""Run configuration: dataclass tree, JSON round-trip, and hashing.

One RunConfig drives every CLI subcommand. Parsing is strict: unknown keys
and values of the wrong type are rejected, so a typo in a sweep config
fails loudly instead of silently running defaults.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

from .errors import ConfigError
from .gait import MAX_AMPLITUDE, GaitParams
from .kinematics import Morphology
from .rollmodel import (DEFAULT_RESOLUTION, KAPPA_DEFAULT, MU_DEFAULT,
                        STEPS_PER_CYCLE, PerturbationSpec, check_calibration)
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
        check_calibration(self.mu, self.kappa, self.steps_per_cycle)


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
        # Checked here, not only by each cell's GaitParams, so that no
        # command hashes a grid holding NaN or Infinity, which are not JSON.
        for a in self.amplitudes:
            if not 0.0 <= a <= MAX_AMPLITUDE:
                raise ConfigError(f"sweep amplitudes: {a} outside [0, pi/2]")
        for xi in self.xis:
            if not 0.0 <= xi < math.inf:
                raise ConfigError(
                    f"sweep xis must be finite and >= 0, got {xi}")
        if self.trials_per_cell < 1 or self.cycles_per_trial < 1:
            raise ConfigError("trials and cycles must be >= 1")
        self.perturbation()  # checks the widths

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
        # A non-finite tolerance would put Infinity, which is not JSON,
        # into the config text every output hashes.
        if not 0 <= self.contact_tol < math.inf:
            raise ConfigError(
                f"contact_tol must be finite and >= 0, got {self.contact_tol}")
        if self.cycles < 1:
            raise ConfigError("cycles must be >= 1")


@dataclass(frozen=True)
class RunConfig:
    """Everything a run needs; serializes to one JSON document."""

    morphology: Morphology = field(default_factory=Morphology)
    gait: GaitParams = field(default_factory=GaitParams)
    roll: RollSettings = field(default_factory=RollSettings)
    sweep: SweepSettings = field(default_factory=SweepSettings)
    sidewinding: SidewindSettings = field(default_factory=SidewindSettings)
    seed: int = 0
    mode: str = "lumped"

    def __post_init__(self) -> None:
        if self.mode not in ("lumped", "segmented"):
            raise ConfigError(f"unknown mode {self.mode!r}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        body, gait = self.morphology, self.gait
        if ((gait.num_lateral_joints, gait.num_vertical_joints)
                != (body.num_lateral_joints, body.num_vertical_joints)):
            raise ConfigError(
                f"gait.num_lateral_joints {gait.num_lateral_joints} does not "
                f"fit morphology.num_modules {body.num_modules}: the gait "
                f"drives {gait.num_lateral_joints} lateral and "
                f"{gait.num_vertical_joints} vertical joints, the body has "
                f"{body.num_lateral_joints} and {body.num_vertical_joints}")
        # The largest xi must give finite phases on this gait's joints.
        replace(gait, spatial_frequency=max(self.sweep.xis))


def merge_config(config, data: dict, path: str = "config"):
    """config with the fields data names replaced; the one way settings
    reach a RunConfig.

    Every key must name a field, and every value must have its field's
    type: an int field takes no float and no bool, a float field also
    takes an int (kept as given). A list becomes a tuple; nothing is
    coerced. A section merges onto config's own, so the fields it leaves
    unnamed keep their values.
    """
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: expected an object")
    # A leaf is typed by its class default: a lower layer may have left an
    # int in a float field.
    like = {f.name: getattr(config, f.name) if f.default is dataclasses.MISSING
            else f.default for f in fields(config)}
    unknown = set(data) - set(like)
    if unknown:
        raise ConfigError(f"{path}: unknown keys {sorted(unknown)}")
    return replace(config, **{name: _typed(value, like[name], f"{path}.{name}")
                              for name, value in data.items()})


def _typed(value, default, path: str):
    if dataclasses.is_dataclass(default):
        return merge_config(default, value, path)
    if isinstance(default, tuple):
        if not isinstance(value, (list, tuple)):
            raise ConfigError(f"{path}: expected a list")
        return tuple(_typed(v, default[0], path) for v in value)
    kinds = (int, float) if isinstance(default, float) else type(default)
    if (isinstance(value, bool) != isinstance(default, bool)
            or not isinstance(value, kinds)):
        raise ConfigError(f"{path}: expected {type(default).__name__}, "
                          f"got {value!r}")
    return value


def config_from_dict(data: dict) -> RunConfig:
    """Strict parse of a config dictionary onto the defaults; unknown keys
    and values of the wrong type are errors."""
    return merge_config(RunConfig(), data)


def config_to_dict(config: RunConfig) -> dict:
    """The config as plain JSON values: sections as dicts, grids as lists."""
    return json.loads(config_json(config))


def load_config(path: str | Path) -> RunConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON ({exc})") from exc
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"{path}: cannot read ({exc})") from exc
    return config_from_dict(data)


def save_config(config: RunConfig, path: str | Path) -> None:
    with open(path, "w") as fh:
        fh.write(config_json(config))
        fh.write("\n")


def config_json(config: RunConfig) -> str:
    """Canonical JSON form: sorted keys, round-trippable floats (json
    writes the tuple grids as lists)."""
    return json.dumps(dataclasses.asdict(config), indent=1, sort_keys=True)


def config_hash(config: RunConfig) -> str:
    """sha256 of the canonical JSON; embedded in every output file."""
    return hashlib.sha256(config_json(config).encode()).hexdigest()
