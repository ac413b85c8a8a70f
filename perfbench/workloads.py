"""Workload definitions: the ops each workload runs and the checks on their outputs.

An op is one public call into sphererank: a ``check_*`` call or one
``cli.main([...])`` command run in-process with stdout captured.  Every op
carries a checker that returns a list of problems; an empty list means the
output is correct.  The checks use closed forms and properties that hold for
every sampled geodesic, so they hold for any seed and tolerate results that
move at the 1e-11 level.

Ops look the public functions up on their modules at call time
(``rank.check_positive_spherical_rank``, ``cli.main``), so the wrappers the
tracer installs on those modules are seen.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass
from typing import Callable

from sphererank import cli, rank
from sphererank.geometry import BergerSphere, ComplexProjective, RoundSphere

EVENT_TOL = 1e-6
RICHARDSON_TOL = 1e-7
CERT_TOL = 1e-6
WEAK_TOL = 1e-6

# 128 geodesics are two full chunks of rank.DEFAULT_CHUNK (64), so chunking is
# exercised while one op stays near 5 s on 2 cores.
BUNDLE_COUNT = 128
# Below the chunk size, so chunk-size changes do not help the survey.
REPORT_COUNT = 2
REPORT_ETA = 0.5
FIBER_ETA = 0.8
FIBER_HORIZON = 5.0266
CONJUGATE_HORIZON = 4.0


@dataclass(frozen=True)
class Op:
    """One public call, the number of sampled geodesics it decides, and its check."""

    name: str
    call: Callable[[], object]
    check: Callable[[object], list]
    geodesics: int


@dataclass(frozen=True)
class CliResult:
    code: int
    stdout: str


# ---------------------------------------------------------------------------
# checks


def check_conjugate_at_pi(verdict, count, multiplicity, certificate):
    """Every geodesic has one event, at pi, of the given multiplicity."""
    problems = []
    if verdict.status != "ok" or not verdict.holds:
        problems.append(f"verdict status={verdict.status} holds={verdict.holds}")
    if len(verdict.evidence) != count:
        problems.append(f"{len(verdict.evidence)} evidence records for {count} geodesics")
    for e in verdict.evidence:
        if not e.passes:
            problems.append(f"geodesic {e.index} does not pass")
        if len(e.events) != 1:
            problems.append(f"geodesic {e.index} has {len(e.events)} events")
            continue
        ev = e.events[0]
        if not abs(ev.time - math.pi) <= EVENT_TOL:
            problems.append(f"geodesic {e.index} event at {ev.time!r}")
        if ev.multiplicity != multiplicity:
            problems.append(f"geodesic {e.index} multiplicity {ev.multiplicity}")
        if not (e.richardson_gap is not None and e.richardson_gap <= RICHARDSON_TOL):
            problems.append(f"geodesic {e.index} Richardson gap {e.richardson_gap!r}")
        if certificate and not (e.has_certificate and e.certificate_deviation < CERT_TOL):
            problems.append(f"geodesic {e.index} certificate {e.certificate_deviation!r}")
    return problems


def check_berger_positive(verdict, count):
    """Rauch bound: no event before pi; the purely horizontal geodesic fails."""
    problems = []
    if verdict.status != "ok" or verdict.holds:
        problems.append(f"verdict status={verdict.status} holds={verdict.holds}")
    if len(verdict.evidence) != count:
        problems.append(f"{len(verdict.evidence)} evidence records for {count} geodesics")
        return problems
    for e in verdict.evidence:
        early = [ev.time for ev in e.events if ev.time < math.pi - 1e-4]
        if early:
            problems.append(f"geodesic {e.index} has events before pi: {early}")
    if verdict.worst_case is None:
        problems.append("no worst case")
        return problems
    worst = verdict.evidence[verdict.worst_case]
    if worst.passes or not abs(worst.velocity[0]) < 1e-12:
        problems.append(f"worst case {verdict.worst_case} is not a failing horizontal geodesic")
    return problems


def check_weak_witness(verdict, count):
    """The Killing witness certifies every geodesic."""
    problems = []
    if verdict.status != "ok" or not verdict.holds:
        problems.append(f"verdict status={verdict.status} holds={verdict.holds}")
    if len(verdict.evidence) != count:
        problems.append(f"{len(verdict.evidence)} evidence records for {count} geodesics")
    for e in verdict.evidence:
        # weak_deviation is only checked on passing geodesics: its meaning on
        # failing ones may be redefined.
        if not e.passes:
            problems.append(f"geodesic {e.index} does not pass")
        elif not e.weak_deviation < WEAK_TOL:
            problems.append(f"geodesic {e.index} deviation {e.weak_deviation!r}")
    return problems


def _report(result):
    if result.code != 0:
        return None, [f"exit code {result.code}"]
    try:
        return json.loads(result.stdout), []
    except json.JSONDecodeError as exc:
        return None, [f"report is not JSON: {exc}"]


def check_berger_report(result):
    """eta = 0.5: exact bounds [1/4, 13/4], fiber closes at pi, verdicts as theory says.

    The forced Hopf-fiber direction fails positive rank (first conjugate
    time about 11.3 after upper normalization) and weak upper rank (every
    plane through the fiber has curvature 1/13 of the maximum); the Killing
    field gives weak lower rank on every geodesic.
    """
    report, problems = _report(result)
    if report is None:
        return problems
    rows = report["payload"]["rows"]
    if len(rows) != 1:
        return [f"{len(rows)} rows"]
    row = rows[0]
    if row["eta"] != REPORT_ETA:
        problems.append(f"eta {row['eta']!r}")
    if not abs(row["sec_min_exact"] - 0.25) <= 1e-12:
        problems.append(f"sec_min_exact {row['sec_min_exact']!r}")
    if not abs(row["sec_max_exact"] - 3.25) <= 1e-12:
        problems.append(f"sec_max_exact {row['sec_max_exact']!r}")
    if not abs(row["fiber_time"] - 2 * math.pi * REPORT_ETA) <= EVENT_TOL:
        problems.append(f"fiber_time {row['fiber_time']!r}")
    expected = {
        "positively_curved": True,
        "positive_spherical_rank": False,
        "weak_upper": False,
        "weak_lower": True,
        "lower_normalizable": True,
    }
    for key, value in expected.items():
        if row[key] is not value:
            problems.append(f"{key} = {row[key]!r}")
    return problems


def check_cpn_conjugate(result):
    """CP^2 within t <= 4: one conjugate point, at pi, multiplicity 1."""
    report, problems = _report(result)
    if report is None:
        return problems
    events = report["payload"]["events"]
    if len(events) != 1:
        return [f"{len(events)} events"]
    if not abs(events[0]["time"] - math.pi) <= EVENT_TOL:
        problems.append(f"event at {events[0]['time']!r}")
    if events[0]["multiplicity"] != 1:
        problems.append(f"multiplicity {events[0]['multiplicity']}")
    return problems


def check_fiber_geodesic(result):
    """The Hopf fiber from 1 is q(t) = cos(t/eta) + i sin(t/eta)."""
    report, problems = _report(result)
    if report is None:
        return problems
    payload = report["payload"]
    if payload["unit_speed"] is not True:
        problems.append("not unit speed")
    if payload["horizon"] != FIBER_HORIZON:
        problems.append(f"horizon {payload['horizon']!r}")
    angle = FIBER_HORIZON / FIBER_ETA
    exact = (math.cos(angle), math.sin(angle), 0.0, 0.0)
    err = max(abs(a - b) for a, b in zip(payload["endpoint"], exact))
    if not err <= 1e-8:
        problems.append(f"endpoint off the closed form by {err!r}")
    return problems


# ---------------------------------------------------------------------------
# workloads


def run_cli(argv):
    """``cli.main(argv)`` in-process with stdout captured."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(list(argv))
    return CliResult(code, buf.getvalue())


def sphere_bundle_ops(seed, count):
    sampler = rank.GeodesicSampler(count, seed)
    sphere, cpn = RoundSphere(5), ComplexProjective(2)
    sampler.states(sphere)
    sampler.states(cpn)
    return [
        Op(
            "S5-positive",
            lambda: rank.check_positive_spherical_rank(
                sphere, sampler, event_window=3.5, richardson=True
            ),
            lambda v: check_conjugate_at_pi(v, count, 4, certificate=False),
            count,
        ),
        Op(
            "CP2-positive",
            lambda: rank.check_positive_spherical_rank(cpn, sampler, richardson=True),
            lambda v: check_conjugate_at_pi(v, count, 1, certificate=True),
            count,
        ),
    ]


def berger_bundle_ops(seed, count):
    sampler = rank.GeodesicSampler(count, seed)
    model = rank.normalize_to_bound(BergerSphere(1.2), "upper")
    sampler.states(model)
    return [
        Op(
            "berger-positive",
            lambda: rank.check_positive_spherical_rank(model, sampler),
            lambda v: check_berger_positive(v, count),
            count,
        ),
        Op(
            "berger-weak-witness",
            lambda: rank.check_weak_spherical_rank(model, "upper", sampler, method="witness"),
            lambda v: check_weak_witness(v, count),
            count,
        ),
    ]


def survey_cli_ops(seed, count):
    report_argv = [
        "berger-report", "--etas", str(REPORT_ETA), "--count", str(count), "--seed", str(seed),
    ]
    conj_argv = [
        "conjugate", "--model", "cpn", "--cpn-n", "2",
        "--horizon", str(CONJUGATE_HORIZON), "--seed", str(seed),
    ]
    geo_argv = [
        "geodesic", "--model", "berger", "--eta", str(FIBER_ETA),
        "--direction", "fiber", "--horizon", str(FIBER_HORIZON),
    ]
    # the models and samples the three commands build
    sampler = rank.GeodesicSampler(count, seed)
    sampler.states(rank.normalize_to_bound(BergerSphere(REPORT_ETA), "upper"))
    rank.GeodesicSampler(cli.DEFAULT_MANIFEST["sampler"]["count"], seed).states(
        ComplexProjective(2)
    )
    BergerSphere(FIBER_ETA)
    cli.make_parser()
    # berger-report decides positive, weak-upper and weak-lower rank on
    # ``count`` geodesics; the single-geodesic commands count as one each.
    return [
        Op("berger-report", lambda: run_cli(report_argv), check_berger_report, 3 * count),
        Op("conjugate-cpn", lambda: run_cli(conj_argv), check_cpn_conjugate, 1),
        Op("geodesic-fiber", lambda: run_cli(geo_argv), check_fiber_geodesic, 1),
    ]


WORKLOADS = {
    "sphere-bundle": lambda seed: sphere_bundle_ops(seed, BUNDLE_COUNT),
    "berger-bundle": lambda seed: berger_bundle_ops(seed, BUNDLE_COUNT),
    "survey-cli": lambda seed: survey_cli_ops(seed, REPORT_COUNT),
}


def build(name, seed):
    """Models, samples and ops of a workload."""
    return WORKLOADS[name](seed)
