"""Frozen b against the coupled chain's true flow (conftest.reference_flow).

One batch of limbless segmented chains, each one cell's trial from the
inverted pose (gamma0 = pi, no perturbation) over one cycle at the
default calibration, runs through the reference at 512 RK4 steps per
output interval (about 1.5 s) and, at kappa = 0.05, through the sweep's
own trial path (_run_trials), which freezes the coupling torque b over
each interval. Both report rolls per cycle.

The bounds are fixed from the reference's h-refinement, measured once on
this batch: from 512 to 4,096 steps per interval its rolls per cycle move
by at most 3.6e-9 on the chains where frozen b has a root for every lane,
2.9e-7 on the chains where it fails, and 2e-15 at kappa = 0. (At 256
steps the stiffest chains, A = 11*pi/24, sit at RK4's stability edge and
read up to 2.2e-4 off.)
"""

import math

import numpy as np
import pytest

from selfright import GaitParams, PerturbationSpec
from selfright.gait import QUASI_STATIC_OMEGA, TWO_PI
from selfright.rollmodel import (KAPPA_DEFAULT, MU_DEFAULT, STEPS_PER_CYCLE,
                                 _run_trials, _trial_lanes)

from conftest import reference_flow

# Frozen b has a root for every lane of these chains...
ROOTED = [(a, xi) for a in (3 * math.pi / 8, 11 * math.pi / 24)
          for xi in (0.3, 0.6, 0.9, 1.2)]
# ...and none for some lane of these, which roll a whole turn (item 1).
FAILING = [(math.pi / 6, xi) for xi in (0.6, 0.9, 1.2)]
# Uncoupled chains (kappa = 0), where the reference has a closed form.
UNCOUPLED = [(math.pi / 6, 0.6), (math.pi / 6, 1.2)]
STEPS = 512  # RK4 steps per output interval
# 1e-6 is over 3x the largest h-refinement move (2.9e-7), so the
# reference's own error cannot use the bound up.
BOUND = 1e-6


def gait(amplitude, xi):
    return GaitParams(amplitude_lateral=amplitude,
                      amplitude_vertical=amplitude,
                      temporal_frequency=QUASI_STATIC_OMEGA,
                      spatial_frequency=xi)


@pytest.fixture(scope="module")
def rolls(limbless_morph):
    """Rolls per cycle of each chain: the reference's for every cell of
    ROOTED + FAILING + UNCOUPLED, frozen b's for ROOTED + FAILING (NaN
    where a chain failed), and the reference's failed-chain mask."""
    cells = ROOTED + FAILING + UNCOUPLED
    m = limbless_morph.num_modules
    starts, gains, offsets = map(np.concatenate, zip(*(
        _trial_lanes(gait(a, xi), limbless_morph, "segmented", [math.pi],
                     [1.0]) for a, xi in cells)))
    coupled = len(ROOTED + FAILING)
    kappa = np.where(np.arange(len(cells)) < coupled, KAPPA_DEFAULT, 0.0)
    dt = (TWO_PI / QUASI_STATIC_OMEGA) / STEPS_PER_CYCLE
    end, failed = reference_flow(gains, starts, QUASI_STATIC_OMEGA, dt,
                                 STEPS_PER_CYCLE, MU_DEFAULT, offsets, kappa,
                                 m, STEPS)
    reference = (end - starts).reshape(-1, m).mean(axis=1) / TWO_PI
    _, frozen, _, _ = _run_trials(
        [gait(a, xi) for a, xi in cells[:coupled]], limbless_morph,
        "segmented", 1.0, STEPS_PER_CYCLE,
        PerturbationSpec(gamma_jitter=0.0, gain_noise=0.0),
        (0, list(range(coupled)), [0]), math.pi, MU_DEFAULT, KAPPA_DEFAULT)
    return reference, frozen, failed


def test_frozen_b_meets_the_true_flow_where_every_lane_has_a_root(rolls):
    """Where frozen b has a root for every lane it reads the reference
    within BOUND (measured: 4.3e-9). The coupling torque sums to zero
    over a chain, so an error in b moves the chain's mean roll at second
    order only."""
    reference, frozen, _ = rolls
    n = len(ROOTED)
    assert np.abs(frozen[:n] - reference[:n]).max() <= BOUND


@pytest.mark.xfail(raises=AssertionError, strict=True, reason=(
    "ROADMAP item 1: frozen b has no root for some lane of these chains, "
    "which roll a whole turn and fail"))
def test_frozen_b_meets_the_true_flow_where_it_fails(rolls):
    """The A = pi/6 chains at xi >= 0.6: the true flow reads 2.2e-3 to
    4.4e-3 below 1 - xi/2, and frozen b must read it within BOUND."""
    reference, frozen, _ = rolls
    cells = slice(len(ROOTED), len(ROOTED + FAILING))
    assert (np.abs(frozen[cells] - reference[cells]) <= BOUND).all()


def test_reference_reads_the_closed_form_without_coupling(rolls):
    """The reference checks itself. At kappa = 0 each lane relaxes onto
    its command phase in every interval, so module k ends
    2*pi*(1 - xi*k/(M - 1)) past its start and the chain reads 1 - xi/2,
    within the rounding bound of the limbless closed-form diagram test
    (8 ulp of 32 rad over 2*pi). And no chain of the batch fails: the
    true flow has a root for every lane, so a reference whose coupling
    is frozen over an interval fails here as frozen b does."""
    reference, _, failed = rolls
    want = np.array([1.0 - xi / 2.0 for _, xi in UNCOUPLED])
    bound = 8 * np.spacing(32.0) / TWO_PI
    assert np.abs(reference[-len(UNCOUPLED):] - want).max() <= bound
    assert not failed.any()
    assert np.isfinite(reference).all()
