"""Body-driven self-righting in elongate multi-jointed robots.

Simulation package organized around a quasi-static roll model: a
two-wave gait generator, forward kinematics of an alternating-axis
module chain, leg-induced roll-energy landscapes, a quasi-static roll
integrator (lumped and per-module variants), a sweep harness that maps
self-righting probability over gait parameters, and a planar
sidewinding displacement estimator.
"""

from .config import (RunConfig, config_from_dict, config_hash, config_json,
                     config_to_dict, load_config, save_config)
from .errors import (ConfigError, ContactError, DimensionError,
                     GeometryError, IntegrationError, SelfRightError)
from .gait import (GaitParams, JointAngles, coherence, joint_vector,
                   lateral_angle, vertical_angle)
from .kinematics import (FramePose, Morphology, body_wave_height,
                         center_of_mass, cross_section, forward_kinematics,
                         wave_height_slope)
from .rollmodel import (EnergyLandscape, PerturbationSpec, RollTrajectory,
                        drive_gain, energy_landscape, simulate_roll,
                        support_height)
from .sidewinding import (DisplacementReport, contact_set,
                          displacement_trajectory, lateral_displacement)
from .sweep import BehaviorDiagram, binariness, estimate_psr, run_sweep

__version__ = "0.1.0"

__all__ = [
    "BehaviorDiagram", "ConfigError", "ContactError", "DimensionError",
    "DisplacementReport", "EnergyLandscape", "FramePose", "GaitParams",
    "GeometryError", "IntegrationError", "JointAngles", "Morphology",
    "PerturbationSpec", "RollTrajectory", "RunConfig", "SelfRightError",
    "binariness", "body_wave_height", "center_of_mass", "coherence",
    "config_from_dict", "config_hash", "config_json", "config_to_dict",
    "contact_set", "cross_section", "displacement_trajectory", "drive_gain",
    "energy_landscape", "estimate_psr", "forward_kinematics",
    "joint_vector", "lateral_angle", "lateral_displacement", "load_config",
    "run_sweep", "save_config", "simulate_roll", "support_height",
    "vertical_angle", "wave_height_slope",
]
