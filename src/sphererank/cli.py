"""Command-line front end.

A run is described by a JSON manifest (model, normalization, sampler,
integrator, tolerances, output); individual flags override manifest fields.
Every command emits a JSON report embedding the effective manifest, and the
tabular payloads can additionally be written as CSV.  Exit codes: 0 success
(rank verdict holds), 1 rank verdict fails, 2 error or precondition failure.
"""

from __future__ import annotations

import argparse
import copy
import json
import math
import sys
import time

import numpy as np
import scipy

from . import __version__
from .errors import ParameterError
from .geodesics import GeodesicState, geodesic_flow, normal_frame
from .geometry import (
    BergerSphere,
    ComplexProjective,
    Point,
    RoundSphere,
    Scaled,
    Tangent,
    curvature_bounds,
    curvature_scan,
    unwrap,
)
from .jacobi import curvature_profile, detect_events, jacobi_propagate
from .rank import (
    GeodesicSampler,
    berger_report,
    check_positive_spherical_rank,
    check_weak_spherical_rank,
    normalize_to_bound,
)

DEFAULT_MANIFEST = {
    "model": {"kind": "round", "dim": 3},
    "normalization": "none",
    "sampler": {"count": 200, "seed": 12345, "stratification": "include-special"},
    "integrator": {"step": 1e-3, "horizon": 3.5},
    "tolerances": {
        "time_tol": 1e-6,
        "rank_tol": 1e-7,
        "weak_tol": 1e-5,
        "curv_tol": 1e-8,
    },
    "output": {"format": "json", "path": None},
    "eta_list": None,
}

_MODEL_KEYS = {
    "round": {"kind", "dim"},
    "berger": {"kind", "eta"},
    "cpn": {"kind", "n"},
    "scaled": {"kind", "base", "lam"},
}


# ---------------------------------------------------------------------------
# manifest handling


def _check_keys(section, allowed, context):
    unknown = set(section) - set(allowed)
    if unknown:
        raise ParameterError(f"unknown manifest keys in {context}: {sorted(unknown)}")


def validate_manifest(manifest):
    _check_keys(manifest, DEFAULT_MANIFEST, "manifest")
    model = manifest["model"]
    kind = model.get("kind")
    if kind not in _MODEL_KEYS:
        raise ParameterError(f"unknown model kind: {kind!r}")
    _check_keys(model, _MODEL_KEYS[kind], f"model ({kind})")
    if manifest["normalization"] not in ("none", "upper", "lower"):
        raise ParameterError("normalization must be one of none/upper/lower")
    _check_keys(manifest["sampler"], {"count", "seed", "stratification"}, "sampler")
    _check_keys(manifest["integrator"], {"step", "horizon"}, "integrator")
    _check_keys(
        manifest["tolerances"],
        {"time_tol", "rank_tol", "weak_tol", "curv_tol"},
        "tolerances",
    )
    _check_keys(manifest["output"], {"format", "path"}, "output")
    if manifest["output"]["format"] not in ("json", "csv"):
        raise ParameterError("output format must be json or csv")
    samp = manifest["sampler"]
    if int(samp["count"]) < 1:
        raise ParameterError("sampler count must be positive")
    if samp["stratification"] not in ("uniform", "include-special"):
        raise ParameterError("stratification must be uniform or include-special")
    integ = manifest["integrator"]
    for key in ("step", "horizon"):
        if not (float(integ[key]) > 0):
            raise ParameterError(f"integrator {key} must be positive")
    for key, val in manifest["tolerances"].items():
        if not (float(val) > 0):
            raise ParameterError(f"tolerance {key} must be positive")
    if manifest["eta_list"] is not None:
        if not isinstance(manifest["eta_list"], list) or not all(
            isinstance(x, (int, float)) for x in manifest["eta_list"]
        ):
            raise ParameterError("eta_list must be a list of numbers")
    return manifest


def load_manifest(path=None, overrides=None):
    manifest = copy.deepcopy(DEFAULT_MANIFEST)
    if path is not None:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        if not isinstance(data, dict):
            raise ParameterError("manifest must be a JSON object")
        _check_keys(data, DEFAULT_MANIFEST, "manifest")
        for key, value in data.items():
            if key != "model" and isinstance(value, dict) and isinstance(manifest.get(key), dict):
                manifest[key].update(value)
            else:
                manifest[key] = value
    for key, value in (overrides or {}).items():
        section, _, leaf = key.partition(".")
        if leaf:
            manifest[section][leaf] = value
        else:
            manifest[section] = value
    return validate_manifest(manifest)


def build_model(spec):
    kind = spec["kind"]
    if kind == "round":
        return RoundSphere(int(spec["dim"]))
    if kind == "berger":
        return BergerSphere(float(spec["eta"]))
    if kind == "cpn":
        return ComplexProjective(int(spec["n"]))
    if kind == "scaled":
        return Scaled(build_model(spec["base"]), float(spec["lam"]))
    raise ParameterError(f"unknown model kind: {kind!r}")


def resolve_model(manifest):
    model = build_model(manifest["model"])
    if manifest["normalization"] != "none":
        model = normalize_to_bound(model, manifest["normalization"])
    return model


def _sampler(manifest):
    s = manifest["sampler"]
    return GeodesicSampler(int(s["count"]), int(s["seed"]), s["stratification"])


def resolve_initial(model, manifest, direction):
    """Initial geodesic state from a direction spec.

    ``fiber`` / ``horizontal`` select the special Berger directions at the
    identity; ``sample-<k>`` takes the k-th draw of the manifest sampler.
    """
    core, _ = unwrap(model)
    if direction in ("fiber", "horizontal"):
        if not isinstance(core, BergerSphere):
            raise ParameterError(f"direction {direction!r} requires a Berger model")
        q0 = np.array([1.0, 0.0, 0.0, 0.0])
        w = np.array([1.0, 0.0, 0.0]) if direction == "fiber" else np.array([0.0, 1.0, 0.0])
        w = w / math.sqrt(float(model.inner(w, w)))
        p = Point(q0)
        return GeodesicState(p, Tangent(p, w))
    if direction.startswith("sample"):
        _, _, num = direction.partition("-")
        k = int(num) if num else 0
        sampler = _sampler(manifest)
        if not 0 <= k < sampler.count:
            raise ParameterError("sample index must lie in [0, sampler count)")
        P, W = sampler.states(model)
        p = Point(P[k])
        return GeodesicState(p, Tangent(p, W[k]))
    raise ParameterError(f"unknown direction spec: {direction!r}")


# ---------------------------------------------------------------------------
# serialization helpers


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    return obj


def _fmt(value):
    if isinstance(value, bool) or value is None:
        return "" if value is None else str(value).lower()
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def write_csv(path, header, rows):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def build_report(command, manifest, payload, summary, wall_clock):
    return _jsonable(
        {
            "command": command,
            "manifest": manifest,
            "payload": payload,
            "verdict_summary": summary,
            "versions": {
                "sphererank": __version__,
                "numpy": np.__version__,
                "scipy": scipy.__version__,
                "python": sys.version.split()[0],
            },
            "wall_clock_seconds": wall_clock,
        }
    )


def serialize_report(report):
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def _verdict_payload(verdict, tolerances):
    return {
        "property": verdict.property_name,
        "holds": verdict.holds,
        "status": verdict.status,
        "worst_case": verdict.worst_case,
        "detail": verdict.detail,
        "tolerances": tolerances,
        "evidence": [
            {
                "index": e.index,
                "point": e.point,
                "velocity": e.velocity,
                "events": [
                    {"time": ev.time, "multiplicity": ev.multiplicity} for ev in e.events
                ],
                "passes": e.passes,
                "has_certificate": e.has_certificate,
                "certificate_deviation": e.certificate_deviation,
                "weak_deviation": e.weak_deviation,
                "excluded_samples": e.excluded_samples,
            }
            for e in verdict.evidence
        ],
    }


# ---------------------------------------------------------------------------
# commands


def cmd_scan_curvature(manifest):
    model = resolve_model(manifest)
    s = manifest["sampler"]
    scan = curvature_scan(model, int(s["count"]), int(s["seed"]))
    lo, hi = curvature_bounds(model)

    def plane(p):
        return {
            "point": p[0].coordinates,
            "u": p[1].components,
            "v": p[2].components,
        }

    payload = {
        "scanned": {
            "min": scan.minimum,
            "max": scan.maximum,
            "argmin": plane(scan.argmin),
            "argmax": plane(scan.argmax),
        },
        "closed_form": {"min": lo, "max": hi},
        "samples": scan.samples,
    }
    rows = [
        ["min", scan.minimum, lo],
        ["max", scan.maximum, hi],
    ]
    summary = f"sec range [{scan.minimum:.6g}, {scan.maximum:.6g}]"
    return payload, (["extreme", "scanned", "closed_form"], rows), summary, 0


def cmd_geodesic(manifest, direction):
    model = resolve_model(manifest)
    integ = manifest["integrator"]
    initial = resolve_initial(model, manifest, direction)
    traj = geodesic_flow(model, initial, float(integ["horizon"]), float(integ["step"]))
    closure = model.point_distance(traj.points[-1], traj.points[0])
    payload = {
        "initial_point": initial.point.coordinates,
        "initial_velocity": initial.velocity.components,
        "endpoint": traj.points[-1],
        "speed_drift": traj.speed_drift,
        "closure_distance": closure,
        "horizon": traj.horizon,
        "unit_speed": traj.unit_speed,
    }
    dp = traj.points.shape[1]
    dt = traj.velocities.shape[1]
    header = (
        ["t"]
        + [f"p{i}" for i in range(dp)]
        + [f"v{i}" for i in range(dt)]
        + ["speed"]
    )
    speeds = traj.speeds()
    rows = [
        [traj.times[i], *traj.points[i], *traj.velocities[i], speeds[i]]
        for i in range(len(traj.times))
    ]
    summary = f"geodesic integrated to t={traj.horizon:.6g}, closure {closure:.3g}"
    return payload, (header, rows), summary, 0


def cmd_conjugate(manifest, direction):
    model = resolve_model(manifest)
    integ = manifest["integrator"]
    tols = manifest["tolerances"]
    initial = resolve_initial(model, manifest, direction)
    horizon = float(integ["horizon"])
    traj = geodesic_flow(model, initial, horizon, float(integ["step"]))
    frame = normal_frame(traj)
    profile = curvature_profile(traj, frame)
    prop = jacobi_propagate(profile)
    events = detect_events(prop, (0.0, horizon), rank_tol=float(tols["rank_tol"]))
    sigma = prop.smallest_singular_values()
    payload = {
        "events": [{"time": e.time, "multiplicity": e.multiplicity} for e in events],
        "window": [0.0, horizon],
        "initial_point": initial.point.coordinates,
        "initial_velocity": initial.velocity.components,
    }
    rows = [[prop.times[i], sigma[i]] for i in range(len(prop.times))]
    summary = f"{len(events)} conjugate event(s) in (0, {horizon:.6g}]"
    return payload, (["t", "sigma_min"], rows), summary, 0


def cmd_rank(manifest, prop):
    model = resolve_model(manifest)
    tols = manifest["tolerances"]
    sampler = _sampler(manifest)
    step = float(manifest["integrator"]["step"])
    if prop == "positive-spherical":
        verdict = check_positive_spherical_rank(
            model,
            sampler,
            time_tol=float(tols["time_tol"]),
            curv_tol=float(tols["curv_tol"]),
            rank_tol=float(tols["rank_tol"]),
            step=step,
        )
    elif prop in ("weak-upper", "weak-lower"):
        side = prop.split("-")[1]
        verdict = check_weak_spherical_rank(
            model,
            side,
            sampler,
            tol=float(tols["weak_tol"]),
            step=step,
        )
    else:
        raise ParameterError(f"unknown rank property: {prop!r}")
    payload = _verdict_payload(verdict, tols)
    if verdict.status != "ok":
        code = 2
        summary = "precondition-failed"
    else:
        code = 0 if verdict.holds else 1
        summary = "holds" if verdict.holds else "fails"
    rows = [
        [e.index, e.passes, len(e.events), e.weak_deviation, e.certificate_deviation]
        for e in verdict.evidence
    ]
    header = ["index", "passes", "n_events", "weak_deviation", "certificate_deviation"]
    return payload, (header, rows), summary, code


def cmd_berger_report(manifest):
    etas = manifest["eta_list"]
    if not etas:
        raise ParameterError("berger-report requires a non-empty eta list")
    sampler = _sampler(manifest)
    step = float(manifest["integrator"]["step"])
    rows = berger_report(etas, sampler, step=step, scan_samples=sampler.count)
    payload = {"rows": [r.as_dict() for r in rows]}
    header = [
        "eta",
        "sec_min_exact",
        "sec_max_exact",
        "sec_min_scanned",
        "sec_max_scanned",
        "fiber_time",
        "positively_curved",
        "positive_spherical_rank",
        "weak_upper",
        "weak_lower",
        "lower_normalizable",
        "note",
    ]
    table = [[r.as_dict()[k] for k in header] for r in rows]
    summary = f"{len(rows)} Berger rows"
    return payload, (header, table), summary, 0


# ---------------------------------------------------------------------------
# argument parsing


def _add_common(parser):
    parser.add_argument("--manifest", default=None, help="path to a JSON run manifest")
    parser.add_argument("--model", default=None, choices=["round", "berger", "cpn"])
    parser.add_argument("--dim", type=int, default=None, help="round-sphere dimension")
    parser.add_argument("--eta", type=float, default=None, help="Berger parameter")
    parser.add_argument("--cpn-n", type=int, default=None, help="CP^n complex dimension")
    parser.add_argument(
        "--normalization", default=None, choices=["none", "upper", "lower"]
    )
    parser.add_argument("--count", type=int, default=None)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument(
        "--stratification", default=None, choices=["uniform", "include-special"]
    )
    parser.add_argument("--step", type=float, default=None)
    parser.add_argument("--horizon", type=float, default=None)
    parser.add_argument("--time-tol", type=float, default=None)
    parser.add_argument("--rank-tol", type=float, default=None)
    parser.add_argument("--weak-tol", type=float, default=None)
    parser.add_argument("--curv-tol", type=float, default=None)
    parser.add_argument("--format", default=None, choices=["json", "csv"])
    parser.add_argument("--output", default=None, help="write the report/table here")


def _overrides(args):
    out = {}
    if args.model is not None:
        spec = {"kind": args.model}
        if args.model == "round":
            spec["dim"] = args.dim if args.dim is not None else 3
        elif args.model == "berger":
            if args.eta is None:
                raise ParameterError("--model berger requires --eta")
            spec["eta"] = args.eta
        elif args.model == "cpn":
            spec["n"] = args.cpn_n if args.cpn_n is not None else 2
        out["model"] = spec
    elif args.eta is not None:
        out["model"] = {"kind": "berger", "eta": args.eta}
    elif args.dim is not None:
        out["model"] = {"kind": "round", "dim": args.dim}
    elif args.cpn_n is not None:
        out["model"] = {"kind": "cpn", "n": args.cpn_n}
    simple = {
        "normalization": args.normalization,
        "sampler.count": args.count,
        "sampler.seed": args.seed,
        "sampler.stratification": args.stratification,
        "integrator.step": args.step,
        "integrator.horizon": args.horizon,
        "tolerances.time_tol": args.time_tol,
        "tolerances.rank_tol": args.rank_tol,
        "tolerances.weak_tol": args.weak_tol,
        "tolerances.curv_tol": args.curv_tol,
        "output.format": args.format,
        "output.path": args.output,
    }
    out.update({k: v for k, v in simple.items() if v is not None})
    return out


def make_parser():
    parser = argparse.ArgumentParser(
        prog="sphererank",
        description="conjugate points, curvature scans, and spherical-rank verdicts "
        "on model manifolds",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("scan-curvature", help="sampled sectional-curvature extremes")
    _add_common(p)

    p = sub.add_parser("geodesic", help="integrate one geodesic and trace it")
    _add_common(p)
    p.add_argument("--direction", default="sample-0")

    p = sub.add_parser("conjugate", help="conjugate events along one geodesic")
    _add_common(p)
    p.add_argument("--direction", default="sample-0")

    p = sub.add_parser("rank", help="aggregate rank verdict over sampled geodesics")
    _add_common(p)
    p.add_argument(
        "--property",
        required=True,
        choices=["positive-spherical", "weak-upper", "weak-lower"],
    )

    p = sub.add_parser("berger-report", help="survey a list of Berger parameters")
    _add_common(p)
    p.add_argument("--etas", default=None, help="comma-separated eta values")
    return parser


def main(argv=None):
    parser = make_parser()
    args = parser.parse_args(argv)
    started = time.perf_counter()
    try:
        overrides = _overrides(args)
        if args.command == "berger-report" and args.etas is not None:
            overrides["eta_list"] = [float(x) for x in args.etas.split(",") if x.strip()]
        manifest = load_manifest(args.manifest, overrides)
        if args.command == "scan-curvature":
            payload, table, summary, code = cmd_scan_curvature(manifest)
        elif args.command == "geodesic":
            payload, table, summary, code = cmd_geodesic(manifest, args.direction)
        elif args.command == "conjugate":
            payload, table, summary, code = cmd_conjugate(manifest, args.direction)
        elif args.command == "rank":
            payload, table, summary, code = cmd_rank(manifest, args.property)
        elif args.command == "berger-report":
            payload, table, summary, code = cmd_berger_report(manifest)
        else:  # pragma: no cover
            raise ParameterError(f"unknown command {args.command!r}")
    except Exception as exc:  # noqa: BLE001 - single CLI error boundary
        print(f"error: {exc}", file=sys.stderr)
        return 2

    wall = time.perf_counter() - started
    report = build_report(args.command, manifest, payload, summary, wall)
    text = serialize_report(report)
    out = manifest["output"]
    if out["path"]:
        if out["format"] == "csv":
            header, rows = table
            write_csv(out["path"], header, rows)
        else:
            with open(out["path"], "w", encoding="utf-8") as fh:
                fh.write(text)
    sys.stdout.write(text)
    return code


def console_main():  # pragma: no cover
    sys.exit(main())


if __name__ == "__main__":  # pragma: no cover
    console_main()
