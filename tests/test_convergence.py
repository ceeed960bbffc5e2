"""Convergence contract: each reported number against the knob that
refines it (ROADMAP item 8).

Every bound here is fixed before the run, from the output's error model,
never fitted to the measured spread.
"""

from dataclasses import replace

import numpy as np
import pytest

from selfright import Morphology, RunConfig, run_sweep

# A tenth of the 0.01 within which the bench holds P_sr to its reference
# grids.
P_SR_DRIFT = 1e-3


@pytest.mark.parametrize("leg_length", [Morphology.leg_length, 0.0],
                         ids=["legged", "limbless"])
def test_default_drive_frequency_is_quasi_static(leg_length):
    """The default drive sits at the quasi-static limit: driving ten times
    slower moves no cell of the default grid's P_sr by more than
    P_SR_DRIFT. Each lane relaxes at mu*G, about 10 /s, so at omega the lag
    behind the quasi-static root is O(omega / (mu*G)) of a turn."""
    config = RunConfig(morphology=Morphology(leg_length=leg_length))
    slow_gait = replace(config.gait,
                        temporal_frequency=config.gait.temporal_frequency / 10)
    fast = run_sweep(config)
    slow = run_sweep(replace(config, gait=slow_gait))
    assert not fast.errors and not slow.errors
    assert np.isfinite(fast.p_sr).all()
    assert np.abs(fast.p_sr - slow.p_sr).max() <= P_SR_DRIFT


@pytest.mark.parametrize("leg_length", [Morphology.leg_length, 0.0],
                         ids=["legged", "limbless"])
def test_output_interval_refined_four_times(leg_length):
    """steps_per_cycle 256 -> 1024 on the default grid. The output interval
    is a zero-order hold of the command phase, so a trial's roll moves by
    at most about one coarse command step, 2*pi/256 of its 2*pi*cycles:
    its rolls per cycle, and a cell's P_sr (their mean), by at most
    1/(256*cycles), 1.3e-3 at 3 cycles. No trial's rolls per cycle crosses
    0.5."""
    config = RunConfig(morphology=Morphology(leg_length=leg_length))
    steps = config.roll.steps_per_cycle
    fine_roll = replace(config.roll, steps_per_cycle=4 * steps)
    coarse = run_sweep(config)
    fine = run_sweep(replace(config, roll=fine_roll))
    assert not coarse.errors and not fine.errors
    bound = 1.0 / (steps * config.sweep.cycles_per_trial)
    assert np.abs(coarse.trial_rolls - fine.trial_rolls).max() <= bound
    assert np.abs(coarse.p_sr - fine.p_sr).max() <= bound
    assert ((coarse.trial_rolls > 0.5) == (fine.trial_rolls > 0.5)).all()
