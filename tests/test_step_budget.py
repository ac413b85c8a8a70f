"""The default step keeps every error 100x inside the bound that judges it.

Each case runs at the step its check takes by default on its model:
``positive_step`` for the positive cases, ``model_step`` for the weak ones.
A later change of ``POSITIVE_UNIT_STEP``, ``UNIT_STEP`` or of their curvature
rule that eats this margin fails here, before it can move a verdict.  ``tests/step_sweep.py`` prints the
same errors over a range of fixed steps and at the model step.
"""

import pytest

import step_sweep as sweep
from sphererank.rank import DEFAULT_TIME_TOL, DEFAULT_WEAK_TOL, RICHARDSON_AGREEMENT

COUNT, SEED = 16, 7


@pytest.mark.parametrize("name", list(sweep.POSITIVE_CASES))
def test_default_step_keeps_positive_check_errors_100x_inside_their_bounds(name):
    gap, dt = sweep.positive_errors(name, COUNT, SEED, sweep.MODEL_STEP)
    assert gap <= RICHARDSON_AGREEMENT / 100
    assert dt <= DEFAULT_TIME_TOL / 100


@pytest.mark.parametrize("name", ["Berger0.5l", "Berger1.2u"])
def test_default_step_keeps_weak_deviation_100x_inside_its_bound(name):
    assert sweep.weak_deviation(name, COUNT, SEED, sweep.MODEL_STEP) <= DEFAULT_WEAK_TOL / 100
