"""The default step keeps every error 100x inside the bound that judges it.

A later increase of ``DEFAULT_STEP`` that eats this margin fails here, before
it can move a verdict.  ``tests/step_sweep.py`` prints the same errors over
a range of steps.
"""

import pytest

import step_sweep as sweep
from sphererank.geodesics import DEFAULT_STEP
from sphererank.rank import DEFAULT_TIME_TOL, DEFAULT_WEAK_TOL, RICHARDSON_AGREEMENT

COUNT, SEED = 16, 7


@pytest.mark.parametrize("name", list(sweep.POSITIVE_CASES))
def test_default_step_keeps_positive_check_errors_100x_inside_their_bounds(name):
    gap, dt = sweep.positive_errors(name, COUNT, SEED, DEFAULT_STEP)
    assert gap <= RICHARDSON_AGREEMENT / 100
    assert dt <= DEFAULT_TIME_TOL / 100


@pytest.mark.parametrize("name", ["Berger0.5l", "Berger1.2u"])
def test_default_step_keeps_weak_deviation_100x_inside_its_bound(name):
    assert sweep.weak_deviation(name, COUNT, SEED, DEFAULT_STEP) <= DEFAULT_WEAK_TOL / 100
