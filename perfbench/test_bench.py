"""Tests of the benchmark's own checker and tracer.

    python3 -m pytest -q perfbench/test_bench.py

The workloads run here with a few geodesics each; the checks do not depend on
the sample size.  A corrupted output must count as a failed op, and the
traced wrappers must leave every result unchanged.
"""

import dataclasses
import json
import math

import pytest

import env

env.prepare()

import run  # noqa: E402
import workloads  # noqa: E402
from sphererank import cli, geodesics, jacobi, rank  # noqa: E402
from tracer import Tracer  # noqa: E402

SEED = 7
COUNT = 3


def _outputs(ops):
    return {op.name: (op, op.call()) for op in ops}


@pytest.fixture(scope="module")
def sphere():
    return _outputs(workloads.sphere_bundle_ops(SEED, COUNT))


@pytest.fixture(scope="module")
def berger():
    return _outputs(workloads.berger_bundle_ops(SEED, COUNT))


@pytest.fixture(scope="module")
def survey():
    return _outputs(workloads.survey_cli_ops(SEED, 2))


def _failed(op, output):
    """run.run_op on an op whose call returns ``output``: True if it counts as failed."""
    fake = dataclasses.replace(op, call=lambda: output)
    return bool(run.run_op(fake)["problems"])


def _shift_first_event(verdict, dt):
    v = _copy_verdict(verdict)
    e = v.evidence[0]
    e.events = [dataclasses.replace(e.events[0], time=e.events[0].time + dt)] + e.events[1:]
    return v


def _copy_verdict(verdict):
    evidence = [dataclasses.replace(e, events=list(e.events)) for e in verdict.evidence]
    return dataclasses.replace(verdict, evidence=evidence)


def _edit_report(result, edit):
    report = json.loads(result.stdout)
    edit(report["payload"])
    return workloads.CliResult(result.code, json.dumps(report))


def test_real_outputs_pass(sphere, berger, survey):
    for outputs in (sphere, berger, survey):
        for name, (op, out) in outputs.items():
            assert op.check(out) == [], name


@pytest.mark.parametrize("name", ["S5-positive", "CP2-positive"])
def test_sphere_corruptions_fail(sphere, name):
    op, verdict = sphere[name]
    assert _failed(op, _shift_first_event(verdict, 1e-3))
    flipped = dataclasses.replace(_copy_verdict(verdict), holds=False)
    assert _failed(op, flipped)
    v = _copy_verdict(verdict)
    v.evidence[-1].events = [dataclasses.replace(v.evidence[-1].events[0], multiplicity=2)]
    assert _failed(op, v)
    v = _copy_verdict(verdict)
    v.evidence[0].richardson_gap = 2e-7
    assert _failed(op, v)


def test_cpn_certificate_checked(sphere):
    op, verdict = sphere["CP2-positive"]
    v = _copy_verdict(verdict)
    v.evidence[1].certificate_deviation = 1e-5
    assert _failed(op, v)


def test_berger_corruptions_fail(berger):
    op, verdict = berger["berger-positive"]
    assert _failed(op, dataclasses.replace(_copy_verdict(verdict), holds=True))
    v = _copy_verdict(verdict)
    v.evidence[2].events = [jacobi.ConjugateEvent(math.pi - 1e-3, 1)]
    assert _failed(op, v)
    assert _failed(op, dataclasses.replace(_copy_verdict(verdict), worst_case=0))

    op, verdict = berger["berger-weak-witness"]
    assert _failed(op, dataclasses.replace(_copy_verdict(verdict), holds=False))
    v = _copy_verdict(verdict)
    v.evidence[0].weak_deviation = 2e-6
    assert _failed(op, v)


def test_survey_corruptions_fail(survey):
    op, result = survey["berger-report"]
    assert _failed(op, _edit_report(result, lambda p: p["rows"][0].update(weak_lower=False)))
    assert _failed(op, _edit_report(result, lambda p: p["rows"][0].update(
        fiber_time=p["rows"][0]["fiber_time"] + 1e-3)))
    assert _failed(op, workloads.CliResult(2, ""))

    op, result = survey["conjugate-cpn"]
    assert _failed(op, _edit_report(result, lambda p: p["events"][0].update(
        time=p["events"][0]["time"] + 1e-3)))
    assert _failed(op, _edit_report(result, lambda p: p["events"][0].update(multiplicity=3)))

    op, result = survey["geodesic-fiber"]
    assert _failed(op, _edit_report(result, lambda p: p["endpoint"].__setitem__(1, 1e-3)))
    assert _failed(op, workloads.CliResult(0, "not json"))


def test_raising_op_counts_as_failed(berger):
    op, _ = berger["berger-positive"]

    def boom():
        raise FloatingPointError("injected")

    record = run.run_op(dataclasses.replace(op, call=boom))
    assert record["problems"] and "injected" in record["problems"][0]


def _strip_wall(text):
    return [line for line in text.splitlines() if "wall_clock_seconds" not in line]


def _same(a, b):
    if isinstance(a, workloads.CliResult):
        return a.code == b.code and _strip_wall(a.stdout) == _strip_wall(b.stdout)
    fields = ("holds", "status", "worst_case", "detail")
    if any(getattr(a, f) != getattr(b, f) for f in fields):
        return False
    for x, y in zip(a.evidence, b.evidence, strict=True):
        if (x.events, x.passes, x.certificate_deviation, x.weak_deviation,
                x.richardson_gap, x.excluded_samples) != (
                y.events, y.passes, y.certificate_deviation, y.weak_deviation,
                y.richardson_gap, y.excluded_samples):
            return False
    return True


def test_tracer_leaves_results_unchanged(sphere, berger, survey):
    patched = [(rank, "flow_arrays"), (geodesics, "flow_arrays"), (cli, "main"),
               (jacobi.JacobiPropagator, "evaluate"), (rank.GeodesicSampler, "states")]
    before = [getattr(owner, attr) for owner, attr in patched]
    tracer = Tracer().install()
    try:
        assert all(getattr(o, a) is not b for (o, a), b in zip(patched, before))
        for outputs in (sphere, berger, survey):
            for name, (op, out) in outputs.items():
                tracer.op_id = name
                tracer.open("op")
                try:
                    traced = op.call()
                finally:
                    tracer.close()
                assert _same(out, traced), name
    finally:
        tracer.uninstall()
    assert all(getattr(o, a) is b for (o, a), b in zip(patched, before))

    metrics = tracer.layer_metrics(cycles=1, overhead_s=0.0)
    assert metrics["trace.coverage"][0] == pytest.approx(1.0, abs=1e-3)
    assert metrics["jacobi.detect_calls"][0] > 0
    assert metrics["rank.search_calls"][0] > 0
    assert metrics["rank.nm_fevals"][0] > 0
    assert metrics["geodesics.state_at_calls"][0] > 0
    assert set(metrics) == set(run.declared_metrics(trace=1))


def test_workloads_match_benchmark_json():
    names = {w["name"] for w in run.benchmark_spec()["workloads"]}
    assert names == set(workloads.WORKLOADS)
