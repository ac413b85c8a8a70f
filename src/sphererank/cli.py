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
import dataclasses
import json
import math
import re
import sys
import time
from typing import NamedTuple

import numpy as np
import scipy

from . import __version__
from .errors import ParameterError
from .geodesics import GeodesicState, geodesic_flow, model_step, normal_frame, positive_step
from .geometry import (
    BergerSphere,
    ComplexProjective,
    Point,
    RoundSphere,
    Scaled,
    Tangent,
    curvature_bounds,
    curvature_scan,
)
from .jacobi import DEFAULT_RANK_TOL, curvature_profile, detect_events, jacobi_propagate
from .rank import (
    BOUNDS,
    DEFAULT_CURV_TOL,
    DEFAULT_TIME_TOL,
    DEFAULT_WEAK_TOL,
    POSITIVE_SPHERICAL,
    PROPERTIES,
    STRATIFICATIONS,
    WEAK_SIDES,
    BergerReportRow,
    GeodesicSampler,
    _special_states,
    berger_report,
    check_positive_spherical_rank,
    check_weak_spherical_rank,
    normalize_to_bound,
)

DEFAULT_MANIFEST = {
    "model": {"kind": "round", "dim": 3},
    "normalization": "none",
    "sampler": {"count": 200, "seed": 12345, "stratification": GeodesicSampler.stratification},
    "integrator": {"step": None, "horizon": 3.5},
    "tolerances": {
        "time_tol": DEFAULT_TIME_TOL,
        "rank_tol": DEFAULT_RANK_TOL,
        "weak_tol": DEFAULT_WEAK_TOL,
        "curv_tol": DEFAULT_CURV_TOL,
    },
    "output": {"format": "json", "path": None},
    "eta_list": None,
}

# A manifest model section is {"kind": <kind>} and exactly the fields of the
# kind's class.
_MODEL_KINDS = {
    "round": RoundSphere,
    "berger": BergerSphere,
    "cpn": ComplexProjective,
    "scaled": Scaled,
}


class _Flag(NamedTuple):
    """A flag of every command: the manifest key it overrides, argparse options.

    A model-parameter flag sets a field of one model ``kind``; ``default`` is
    that field under ``--model <kind>`` without the flag (None: required).
    """

    key: str
    options: dict
    kind: str | None = None
    default: object = None


_FLAGS = {
    "--dim": _Flag("model.dim", {"type": int, "help": "round-sphere dimension"}, "round", 3),
    "--eta": _Flag("model.eta", {"type": float, "help": "Berger parameter"}, "berger"),
    "--cpn-n": _Flag("model.n", {"type": int, "help": "CP^n complex dimension"}, "cpn", 2),
    "--normalization": _Flag("normalization", {"choices": ["none", *BOUNDS]}),
    "--count": _Flag("sampler.count", {"type": int}),
    "--seed": _Flag("sampler.seed", {"type": int}),
    "--stratification": _Flag("sampler.stratification", {"choices": STRATIFICATIONS}),
    "--step": _Flag("integrator.step", {"type": float, "help": "default: the command's own step"}),
    "--horizon": _Flag("integrator.horizon", {"type": float}),
    "--time-tol": _Flag("tolerances.time_tol", {"type": float}),
    "--rank-tol": _Flag("tolerances.rank_tol", {"type": float}),
    "--weak-tol": _Flag("tolerances.weak_tol", {"type": float}),
    "--curv-tol": _Flag("tolerances.curv_tol", {"type": float}),
    "--format": _Flag("output.format", {"choices": ["json", "csv"]}),
    "--output": _Flag("output.path", {"help": "write the report/table here"}),
}


# ---------------------------------------------------------------------------
# manifest handling


def _check_keys(section, allowed, context):
    if not isinstance(section, dict):
        raise ParameterError(f"{context} must be a JSON object, got {section!r}")
    unknown = set(section) - set(allowed)
    if unknown:
        raise ParameterError(f"unknown manifest keys in {context}: {sorted(unknown)}")


def _whole(value, key):
    """``value`` as an int if it is a whole number (3 or 3.0), not a bool."""
    if isinstance(value, bool) or not (
        isinstance(value, int) or isinstance(value, float) and value.is_integer()
    ):
        raise ParameterError(f"{key} must be a whole number, got {value!r}")
    return int(value)


def _real(value, key):
    """``value`` as a float if it is a JSON number, not a bool."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ParameterError(f"{key} must be a number, got {value!r}")
    return float(value)


def validate_manifest(manifest):
    """Check the values of a manifest whose keys ``load_manifest`` has checked."""
    build_model(manifest["model"])
    for flag in _FLAGS.values():
        choices = flag.options.get("choices")
        section, _, leaf = flag.key.partition(".")
        if choices and (manifest[section][leaf] if leaf else manifest[section]) not in choices:
            raise ParameterError(f"{flag.key} must be one of {'/'.join(choices)}")
    _sampler(manifest)
    integ = manifest["integrator"]
    for key in ("step", "horizon"):
        if key == "step" and integ[key] is None:
            continue  # the command's own step on the model
        if not (_real(integ[key], f"integrator.{key}") > 0):
            raise ParameterError(f"integrator {key} must be positive")
    for key, val in manifest["tolerances"].items():
        if not 0 < _real(val, f"tolerances.{key}") < math.inf:  # NaN fails too
            raise ParameterError(f"tolerance {key} must be finite and positive")
    if not isinstance(manifest["eta_list"], (list, type(None))):
        raise ParameterError("eta_list must be a list of numbers")
    for eta in manifest["eta_list"] or ():
        _real(eta, "eta_list")
    return manifest


def load_manifest(path=None, overrides=None):
    manifest = copy.deepcopy(DEFAULT_MANIFEST)
    if path is not None:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        _check_keys(data, DEFAULT_MANIFEST, "manifest")
        for key, value in data.items():
            # a section is checked before a flag can write into it
            if key != "model" and isinstance(manifest[key], dict):
                _check_keys(value, manifest[key], key)
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


def build_model(spec, where="model"):
    """The model of a manifest model section, read by its class's field annotations."""
    if not isinstance(spec, dict):
        raise ParameterError(f"{where} must be a JSON object")
    kind = spec.get("kind")
    if kind not in _MODEL_KINDS:
        raise ParameterError(f"unknown model kind in {where}: {kind!r}")
    fields = {f.name: f.type for f in dataclasses.fields(_MODEL_KINDS[kind])}
    context = f"{where} ({kind})"
    _check_keys(spec, {"kind", *fields}, context)
    missing = sorted(set(fields) - set(spec))
    if missing:
        raise ParameterError(f"missing manifest keys in {context}: {missing}")
    read = {"int": _whole, "float": _real, "ManifoldModel": build_model}
    return _MODEL_KINDS[kind](
        **{name: read[ann](spec[name], f"{where}.{name}") for name, ann in fields.items()}
    )


def resolve_model(manifest):
    model = build_model(manifest["model"])
    if manifest["normalization"] != "none":
        model = normalize_to_bound(model, manifest["normalization"])
    return model


def _step(manifest, model, default=model_step):
    """The integrator step that runs on ``model``, written into the manifest when
    null: ``default(model)``, the command's own step on the model."""
    if manifest["integrator"]["step"] is None:
        manifest["integrator"]["step"] = default(model)
    return float(manifest["integrator"]["step"])


def _sampler(manifest):
    s = manifest["sampler"]
    count, seed = _whole(s["count"], "sampler.count"), _whole(s["seed"], "sampler.seed")
    return GeodesicSampler(count, seed, s["stratification"])


def resolve_initial(model, manifest, direction):
    """Initial geodesic state from a direction spec.

    A name of the model's ``special_directions`` (``fiber`` / ``horizontal``
    on Berger spheres) selects that direction, g-normalized; ``sample-<k>``
    takes the k-th draw of the manifest sampler and ``sample`` the first.
    """
    special = _special_states(model)
    if direction in special:
        return special[direction]
    sample = re.fullmatch(r"sample(?:-(\d+))?", direction)
    if sample:
        k = int(sample[1] or 0)
        sampler = _sampler(manifest)
        if not 0 <= k < sampler.count:
            raise ParameterError("sample index must lie in [0, sampler count)")
        P, W = sampler.states(model)
        p = Point(P[k])
        return GeodesicState(p, Tangent(p, W[k]))
    raise ParameterError(f"unknown direction spec for this model: {direction!r}")


# ---------------------------------------------------------------------------
# serialization helpers


def _json_default(obj):
    """numpy arrays and scalars for ``json.dumps``; ``np.float64`` is a ``float`` already."""
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


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
    return {
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


def serialize_report(report):
    return json.dumps(report, sort_keys=True, indent=2, default=_json_default) + "\n"


def _verdict_payload(verdict, tolerances):
    return {
        "property": verdict.property_name,
        "holds": verdict.holds,
        "status": verdict.status,
        "worst_case": verdict.worst_case,
        "detail": verdict.detail,
        "tolerances": tolerances,
        "evidence": [dataclasses.asdict(e) for e in verdict.evidence],
    }


# ---------------------------------------------------------------------------
# commands
#
# A command returns (payload, table, summary, exit code).  ``table()`` gives
# the CSV header and rows; it is called only when a CSV is written.


def cmd_scan_curvature(manifest, args):
    model = resolve_model(manifest)
    sampler = _sampler(manifest)
    scan = curvature_scan(model, sampler.count, sampler.seed)
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
    return payload, lambda: (["extreme", "scanned", "closed_form"], rows), summary, 0


def cmd_geodesic(manifest, args):
    model = resolve_model(manifest)
    integ = manifest["integrator"]
    initial = resolve_initial(model, manifest, args.direction)
    traj = geodesic_flow(model, initial, float(integ["horizon"]), _step(manifest, model))
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

    def table():
        dp = traj.points.shape[1]
        dt = traj.velocities.shape[1]
        header = ["t"] + [f"p{i}" for i in range(dp)] + [f"v{i}" for i in range(dt)] + ["speed"]
        speeds = traj.speeds()
        rows = [
            [traj.times[i], *traj.points[i], *traj.velocities[i], speeds[i]]
            for i in range(len(traj.times))
        ]
        return header, rows

    summary = f"geodesic integrated to t={traj.horizon:.6g}, closure {closure:.3g}"
    return payload, table, summary, 0


def cmd_conjugate(manifest, args):
    model = resolve_model(manifest)
    integ = manifest["integrator"]
    tols = manifest["tolerances"]
    initial = resolve_initial(model, manifest, args.direction)
    horizon = float(integ["horizon"])
    traj = geodesic_flow(model, initial, horizon, _step(manifest, model))
    frame = normal_frame(traj)
    profile = curvature_profile(traj, frame)
    prop = jacobi_propagate(profile)
    events = detect_events(prop, (0.0, horizon), rank_tol=float(tols["rank_tol"]))
    payload = {
        "events": [{"time": e.time, "multiplicity": e.multiplicity} for e in events],
        "window": [0.0, horizon],
        "initial_point": initial.point.coordinates,
        "initial_velocity": initial.velocity.components,
    }

    def table():
        sigma = prop.smallest_singular_values()
        return ["t", "sigma_min"], [[prop.times[i], sigma[i]] for i in range(len(prop.times))]

    summary = f"{len(events)} conjugate event(s) in (0, {horizon:.6g}]"
    return payload, table, summary, 0


def cmd_rank(manifest, args):
    model = resolve_model(manifest)
    tols = manifest["tolerances"]
    sampler = _sampler(manifest)
    positive = args.property == POSITIVE_SPHERICAL
    step = _step(manifest, model, positive_step if positive else model_step)
    if positive:
        verdict = check_positive_spherical_rank(
            model,
            sampler,
            time_tol=float(tols["time_tol"]),
            curv_tol=float(tols["curv_tol"]),
            rank_tol=float(tols["rank_tol"]),
            step=step,
        )
    else:
        verdict = check_weak_spherical_rank(
            model,
            WEAK_SIDES[args.property],
            sampler,
            tol=float(tols["weak_tol"]),
            step=step,
        )
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
    return payload, lambda: (header, rows), summary, code


def cmd_berger_report(manifest, args):
    etas = manifest["eta_list"]
    if not etas:
        raise ParameterError("berger-report requires a non-empty eta list")
    sampler = _sampler(manifest)
    step = manifest["integrator"]["step"]  # null: each model runs at its own step
    tols = {key: float(value) for key, value in manifest["tolerances"].items()}
    rows = berger_report(etas, sampler, step=step, scan_samples=sampler.count, **tols)
    dicts = [r.as_dict() for r in rows]
    header = [f.name for f in dataclasses.fields(BergerReportRow)]
    table = [[d[k] for k in header] for d in dicts]
    summary = f"{len(rows)} Berger rows"
    return {"rows": dicts}, lambda: (header, table), summary, 0


# ---------------------------------------------------------------------------
# argument parsing


def _add_common(parser):
    parser.add_argument("--manifest", default=None, help="path to a JSON run manifest")
    kinds = [flag.kind for flag in _FLAGS.values() if flag.kind]
    parser.add_argument("--model", default=None, choices=kinds)
    for name, flag in _FLAGS.items():
        parser.add_argument(name, default=None, **flag.options)


def _overrides(args):
    """Manifest overrides from the flags given; model flags replace the model section."""
    given = {name: getattr(args, name[2:].replace("-", "_")) for name in _FLAGS}
    given = {name: value for name, value in given.items() if value is not None}
    out = {_FLAGS[name].key: value for name, value in given.items() if not _FLAGS[name].kind}
    params = [name for name in given if _FLAGS[name].kind]
    kinds = {_FLAGS[name].kind for name in params} | ({args.model} - {None})
    if len(kinds) > 1:
        named = ([f"--model {args.model}"] if args.model else []) + params
        raise ParameterError(f"{', '.join(named)}: flags of different model kinds")
    if kinds:
        (kind,) = kinds
        out["model"] = {"kind": kind}
        for name, flag in _FLAGS.items():
            if flag.kind in kinds:
                value = given.get(name, flag.default)
                if value is None:
                    raise ParameterError(f"--model {kind} requires {name}")
                out["model"][flag.key.partition(".")[2]] = value
    if getattr(args, "etas", None) is not None:
        out["eta_list"] = [float(x) for x in args.etas.split(",") if x.strip()]
    return out


def make_parser():
    parser = argparse.ArgumentParser(
        prog="sphererank",
        description="conjugate points, curvature scans, and spherical-rank verdicts "
        "on model manifolds",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("scan-curvature", help="sampled sectional-curvature extremes")
    p.set_defaults(run=cmd_scan_curvature)
    _add_common(p)

    p = sub.add_parser("geodesic", help="integrate one geodesic and trace it")
    p.set_defaults(run=cmd_geodesic)
    _add_common(p)
    p.add_argument("--direction", default="sample-0")

    p = sub.add_parser("conjugate", help="conjugate events along one geodesic")
    p.set_defaults(run=cmd_conjugate)
    _add_common(p)
    p.add_argument("--direction", default="sample-0")

    p = sub.add_parser("rank", help="aggregate rank verdict over sampled geodesics")
    p.set_defaults(run=cmd_rank)
    _add_common(p)
    p.add_argument("--property", required=True, choices=PROPERTIES)

    p = sub.add_parser("berger-report", help="survey a list of Berger parameters")
    p.set_defaults(run=cmd_berger_report)
    _add_common(p)
    p.add_argument("--etas", default=None, help="comma-separated eta values")
    return parser


def main(argv=None):
    args = make_parser().parse_args(argv)
    started = time.perf_counter()
    try:
        manifest = load_manifest(args.manifest, _overrides(args))
        payload, table, summary, code = args.run(manifest, args)
        out = manifest["output"]
        csv_table = table() if out["path"] and out["format"] == "csv" else None
        wall = time.perf_counter() - started
        text = serialize_report(build_report(args.command, manifest, payload, summary, wall))
        if csv_table is not None:
            write_csv(out["path"], *csv_table)
        elif out["path"]:
            with open(out["path"], "w", encoding="utf-8") as fh:
                fh.write(text)
    except Exception as exc:  # noqa: BLE001 - single CLI error boundary
        print(f"error: {exc}", file=sys.stderr)
        return 2
    sys.stdout.write(text)
    return code


def console_main():  # pragma: no cover
    sys.exit(main())


if __name__ == "__main__":  # pragma: no cover
    console_main()
