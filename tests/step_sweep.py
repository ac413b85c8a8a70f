"""Error budget of the integration step: each error against its bound, per step.

    PYTHONPATH=src python tests/step_sweep.py [--count 16] [--seed 7]

For the fixed steps 1e-3, 2e-3, 4e-3 and 8e-3, at ``model_step`` of each
case's model (``UNIT_STEP / sqrt(max(1, |sec|))``), and at each check's own
default step (``positive_step``, ``POSITIVE_UNIT_STEP`` over the same scale,
for the positive check; ``model_step`` for the weak check and the fiber
time), it measures, on ``count`` seeded geodesics:

* the positive check with Richardson on S^4 and on upper-normalized CP^2,
  Berger(1.2) and Berger(2): the largest Richardson gap (bound
  ``RICHARDSON_AGREEMENT``) and the largest |t - pi| over the events of the
  check's window (bound ``DEFAULT_TIME_TOL``);
* the weak check ("auto") on upper-normalized Berger(1.2) and on
  lower-normalized Berger(0.8) and Berger(0.5), the stiffest built-in case
  (sec up to 13): the largest weak deviation (bound ``DEFAULT_WEAK_TOL``);
* ``measure_fiber_time`` for the etas of the fiber-time test: the largest
  |fiber time - 2 pi eta| (that test's bound, 1e-10).

It prints one markdown table: a row per measured quantity, a column per
step, each cell the error and the wall time of its run.
``tests/test_step_budget.py`` holds the errors at the default step
(``MODEL_STEP``) 100x inside their bounds with these functions.  pytest does
not collect this file.
"""

import argparse
import math
import time

import sphererank as sr
from sphererank.rank import DEFAULT_TIME_TOL, DEFAULT_WEAK_TOL, RICHARDSON_AGREEMENT

# a step of None is each check's own default on its model; a callable step is
# that function of the model
MODEL_STEP = None
STEPS = (1e-3, 2e-3, 4e-3, 8e-3, sr.model_step, MODEL_STEP)
LABELS = {sr.model_step: "model step", MODEL_STEP: "default step"}
FIBER_ETAS = (0.3, 0.5, 0.8, 1.0, 1.2, 2.0)
FIBER_TIME_BOUND = 1e-10

POSITIVE_CASES = {
    "S4": sr.RoundSphere(4),
    "CP2u": sr.normalize_to_bound(sr.ComplexProjective(2), "upper"),
    "Berger1.2u": sr.normalize_to_bound(sr.BergerSphere(1.2), "upper"),
    "Berger2u": sr.normalize_to_bound(sr.BergerSphere(2.0), "upper"),
}
# name: (eta, the side the Berger sphere is normalized to)
WEAK_CASES = {
    "Berger1.2u": (1.2, "upper"),
    "Berger0.8l": (0.8, "lower"),
    "Berger0.5l": (0.5, "lower"),
}


def _step(step, model):
    return step(model) if callable(step) else step


def positive_errors(name, count, seed, step):
    """(largest Richardson gap, largest |t - pi|) of the positive check with Richardson."""
    model = POSITIVE_CASES[name]
    verdict = sr.check_positive_spherical_rank(
        model, sr.GeodesicSampler(count, seed), step=_step(step, model), richardson=True
    )
    gap = max(e.richardson_gap for e in verdict.evidence)
    dt = max(abs(ev.time - math.pi) for e in verdict.evidence for ev in e.events)
    return gap, dt


def weak_deviation(name, count, seed, step):
    """Largest weak deviation of the weak check."""
    eta, side = WEAK_CASES[name]
    model = sr.normalize_to_bound(sr.BergerSphere(eta), side)
    verdict = sr.check_weak_spherical_rank(
        model, side, sr.GeodesicSampler(count, seed), step=_step(step, model)
    )
    return max(e.weak_deviation for e in verdict.evidence)


def fiber_time_error(step):
    """Largest |measure_fiber_time(eta) - 2 pi eta| over ``FIBER_ETAS``."""
    return max(
        abs(sr.measure_fiber_time(eta, _step(step, sr.BergerSphere(eta))) - 2 * math.pi * eta)
        for eta in FIBER_ETAS
    )


def _timed(fn, *args):
    start = time.perf_counter()
    value = fn(*args)
    return value, time.perf_counter() - start


def sweep(count, seed):
    """Rows (quantity, bound, [(error, wall seconds) per step]), as they are measured."""
    for name in POSITIVE_CASES:
        runs = [_timed(positive_errors, name, count, seed, h) for h in STEPS]
        yield f"{name} Richardson gap", RICHARDSON_AGREEMENT, [(v[0], s) for v, s in runs]
        yield f"{name} abs(t - pi)", DEFAULT_TIME_TOL, [(v[1], s) for v, s in runs]
    for name in WEAK_CASES:
        runs = [_timed(weak_deviation, name, count, seed, h) for h in STEPS]
        yield f"{name} weak deviation", DEFAULT_WEAK_TOL, runs
    yield "fiber-time error", FIBER_TIME_BOUND, [_timed(fiber_time_error, h) for h in STEPS]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--count", type=int, default=16, help="geodesics per check")
    parser.add_argument("--seed", type=int, default=7, help="sampler seed")
    args = parser.parse_args(argv)
    labels = (LABELS.get(h) or f"step {h:g}" for h in STEPS)
    print(f"| quantity | bound | {' | '.join(labels)} |")
    print(f"|---|---|{'---|' * len(STEPS)}")
    for quantity, bound, cells in sweep(args.count, args.seed):
        text = " | ".join(f"{err:.2g} ({wall:.2f} s)" for err, wall in cells)
        print(f"| {quantity} | {bound:g} | {text} |", flush=True)


if __name__ == "__main__":
    main()
