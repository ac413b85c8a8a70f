import dataclasses
import inspect
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

import sphererank as sr
from sphererank import cli
from sphererank.errors import ParameterError
from sphererank.jacobi import detect_events


def _run(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


# ---------------------------------------------------------------------------
# manifest handling


def test_manifest_defaults_and_overrides(tmp_path):
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"model": {"kind": "berger", "eta": 0.9}, "sampler": {"count": 7}}))
    m = cli.load_manifest(str(path), {"sampler.seed": 99})
    assert m["model"] == {"kind": "berger", "eta": 0.9}
    assert m["sampler"]["count"] == 7
    assert m["sampler"]["seed"] == 99
    assert m["integrator"]["step"] is None


def test_null_step_is_the_model_step(capsys, tmp_path):
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"integrator": {"step": None}}))
    assert cli.load_manifest(str(path))["integrator"]["step"] is None
    assert cli.load_manifest(str(path), {"integrator.step": 0.01})["integrator"]["step"] == 0.01
    for bad in (True, 0, math.nan):
        path.write_text(json.dumps({"integrator": {"step": bad}}))
        assert cli.main(["scan-curvature", "--count", "8", "--manifest", str(path)]) == 2
        assert "step" in capsys.readouterr().err
    # the report's manifest shows the step that ran: the model's step (the positive
    # check's own on it) unless --step is given
    path.write_text(json.dumps({"integrator": {"step": None}}))
    berger = ["--model", "berger", "--eta", "0.5"]
    low = sr.normalize_to_bound(sr.BergerSphere(0.5), "lower")
    for argv, step in (
        (["geodesic", *berger, "--horizon", "1"], sr.model_step(sr.BergerSphere(0.5))),
        (["conjugate", *berger, "--horizon", "1"], sr.model_step(sr.BergerSphere(0.5))),
        (["rank", "--property", "weak-lower", *berger, "--normalization", "lower"],
         sr.model_step(low)),
        (["rank", "--property", "positive-spherical", "--model", "round"],
         sr.positive_step(sr.RoundSphere(3))),
        (["geodesic", *berger, "--horizon", "1", "--step", "0.01"], 0.01),
    ):
        code, report = _run(capsys, argv + ["--count", "2", "--manifest", str(path)])
        assert code == 0, argv
        assert report["manifest"]["integrator"]["step"] == step, argv
    # berger-report runs each of its models at its own step, so the manifest keeps null
    code, report = _run(capsys, ["berger-report", "--etas", "1.2", "--count", "2"])
    assert code == 0
    assert report["manifest"]["integrator"]["step"] is None


def test_manifest_rejects_unknown_keys(tmp_path):
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"model": {"kind": "round", "dim": 3}, "mystery": 1}))
    with pytest.raises(ParameterError):
        cli.load_manifest(str(path))
    path.write_text(json.dumps({"model": {"kind": "round", "dim": 3, "eta": 1.0}}))
    with pytest.raises(ParameterError):
        cli.load_manifest(str(path))
    path.write_text(json.dumps({"sampler": {"count": -3}}))
    with pytest.raises(ParameterError):
        cli.load_manifest(str(path))
    path.write_text(json.dumps({"integrator": {"step": 0.0}}))
    with pytest.raises(ParameterError):
        cli.load_manifest(str(path))
    # each names the key: a nested unknown key, fractions where a whole number
    # belongs (int() would truncate them), a missing key, a bool count
    base = {"kind": "round", "dim": 3, "foo": 1}
    cases = [
        ({"model": {"kind": "scaled", "lam": 2.0, "base": base}}, "foo"),
        ({"model": {"kind": "round", "dim": 3.7}}, "model.dim"),
        ({"model": {"kind": "cpn", "n": 2.5}}, "model.n"),
        ({"sampler": {"count": 2.7}}, "sampler.count"),
        ({"sampler": {"seed": 1.5}}, "sampler.seed"),
        ({"sampler": {"count": True}}, "sampler.count"),
        ({"model": {"kind": "round"}}, "dim"),
        ({"model": {"kind": "scaled", "lam": 2.0, "base": {"kind": "cpn"}}}, "'n'"),
    ]
    for data, key in cases:
        path.write_text(json.dumps(data))
        with pytest.raises(ParameterError, match=key):
            cli.load_manifest(str(path))


def test_build_model_variants():
    m = cli.build_model({"kind": "scaled", "lam": 2.0, "base": {"kind": "round", "dim": 3}})
    from sphererank import RoundSphere, Scaled

    assert isinstance(m, Scaled) and isinstance(m.base, RoundSphere)
    with pytest.raises(ParameterError):
        cli.build_model({"kind": "torus"})
    # a whole number written as a float runs as that integer
    assert cli.build_model({"kind": "round", "dim": 3.0}) == RoundSphere(3)
    assert type(cli.build_model({"kind": "cpn", "n": 2.0}).n) is int
    for spec, key in [
        ({"kind": "round", "dim": 3.7}, "model.dim"),
        ({"kind": "round", "dim": True}, "model.dim"),
        ({"kind": "berger"}, "eta"),
        ({"kind": "scaled", "base": {"kind": "round", "dim": 3}}, "lam"),
        ({"kind": "scaled", "lam": 2.0, "base": {"kind": "round", "dim": 3, "foo": 1}}, "foo"),
    ]:
        with pytest.raises(ParameterError, match=key):
            cli.build_model(spec)


# ---------------------------------------------------------------------------
# commands and exit codes


def test_scan_command(capsys):
    code, report = _run(
        capsys,
        ["scan-curvature", "--model", "berger", "--eta", "1.2", "--count", "4096", "--seed", "42"],
    )
    assert code == 0
    scanned = report["payload"]["scanned"]
    closed = report["payload"]["closed_form"]
    assert closed["min"] == pytest.approx(-0.32)
    assert closed["max"] == pytest.approx(1.44)
    assert scanned["min"] == pytest.approx(-0.32, abs=1e-3)
    assert scanned["max"] == pytest.approx(1.44, abs=1e-3)


def test_scan_scaled_round(capsys):
    manifest = {
        "model": {"kind": "scaled", "lam": 2.0, "base": {"kind": "round", "dim": 3}},
        "sampler": {"count": 512, "seed": 1},
    }
    import tempfile, os

    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "m.json")
        with open(path, "w") as fh:
            json.dump(manifest, fh)
        code, report = _run(capsys, ["scan-curvature", "--manifest", path])
    assert code == 0
    assert report["payload"]["scanned"]["min"] == pytest.approx(0.25, abs=1e-10)
    assert report["payload"]["scanned"]["max"] == pytest.approx(0.25, abs=1e-10)


def test_conjugate_command_round3(capsys, tmp_path):
    trace = tmp_path / "trace.csv"
    code, report = _run(
        capsys,
        [
            "conjugate",
            "--model",
            "round",
            "--dim",
            "3",
            "--horizon",
            "4.0",
            "--step",
            "0.001",
            "--count",
            "4",
            "--format",
            "csv",
            "--output",
            str(trace),
        ],
    )
    assert code == 0
    events = report["payload"]["events"]
    assert len(events) == 1
    assert events[0]["time"] == pytest.approx(math.pi, abs=1e-6)
    assert events[0]["multiplicity"] == 2
    lines = trace.read_text().splitlines()
    assert lines[0] == "t,sigma_min"
    assert len(lines) == len(report["payload"]["events"]) * 0 + 1 + 4001


def test_conjugate_cpn_window(capsys):
    code, report = _run(
        capsys,
        ["conjugate", "--model", "cpn", "--cpn-n", "2", "--horizon", "4.0", "--count", "4"],
    )
    assert code == 0
    events = report["payload"]["events"]
    assert [(e["multiplicity"]) for e in events] == [1]


def test_conjugate_berger_upper_horizontal(capsys):
    code, report = _run(
        capsys,
        [
            "conjugate",
            "--model",
            "berger",
            "--eta",
            "1.2",
            "--normalization",
            "upper",
            "--direction",
            "horizontal",
            "--horizon",
            str(math.pi),
            "--count",
            "4",
        ],
    )
    assert code == 0
    assert report["payload"]["events"] == []


def test_rank_exit_codes(capsys):
    code, _ = _run(
        capsys,
        ["rank", "--property", "positive-spherical", "--model", "round", "--dim", "4", "--count", "8", "--seed", "3"],
    )
    assert code == 0
    code, report = _run(
        capsys,
        [
            "rank",
            "--property",
            "positive-spherical",
            "--model",
            "berger",
            "--eta",
            "1.2",
            "--normalization",
            "upper",
            "--count",
            "6",
            "--seed",
            "3",
        ],
    )
    assert code == 1
    assert report["verdict_summary"] == "fails"
    code, report = _run(
        capsys,
        ["rank", "--property", "positive-spherical", "--model", "berger", "--eta", "1.2", "--count", "4"],
    )
    assert code == 2
    assert report["verdict_summary"] == "precondition-failed"


def test_rank_weak_tol_does_not_stand_in_for_normalization(capsys):
    # Berger(1.2) has upper bound 1.44; without --normalization it is not normalized
    argv = ["rank", "--property", "weak-upper", "--model", "berger", "--eta", "1.2"]
    code = cli.main(argv + ["--weak-tol", "0.95", "--count", "4", "--seed", "3"])
    err = capsys.readouterr().err
    assert code == 2
    assert "not normalized" in err


def test_rank_weak_lower_exit(capsys):
    code, report = _run(
        capsys,
        [
            "rank",
            "--property",
            "weak-lower",
            "--model",
            "berger",
            "--eta",
            "0.8",
            "--normalization",
            "lower",
            "--count",
            "6",
            "--seed",
            "3",
        ],
    )
    assert code == 0
    assert report["payload"]["holds"] is True


def test_invalid_inputs_exit_2(capsys, tmp_path):
    code = cli.main(["rank", "--property", "positive-spherical", "--model", "berger"])
    capsys.readouterr()
    assert code == 2
    code = cli.main(["berger-report", "--etas", ""])
    capsys.readouterr()
    assert code == 2
    code = cli.main(["conjugate", "--model", "round", "--dim", "3", "--direction", "fiber"])
    capsys.readouterr()
    assert code == 2
    # a model flag must belong to --model's kind, and to one kind only
    for flags in (["--eta", "0.5", "--dim", "4"], ["--model", "round", "--eta", "0.5"],
                  ["--model", "cpn", "--dim", "7"], ["--cpn-n", "2", "--eta", "0.5"]):
        code = cli.main(["scan-curvature", "--count", "8"] + flags)
        err = capsys.readouterr().err
        assert code == 2, flags
        assert all(f in err for f in flags if f.startswith("--")), (flags, err)
    # a tolerance of inf would pass every check it guards, or fail far from the manifest
    weak = ["rank", "--property", "weak-upper", "--model", "berger", "--eta", "0.5"]
    weak += ["--normalization", "upper", "--count", "4", "--seed", "3"]
    for flag in ("--weak-tol", "--curv-tol", "--time-tol", "--rank-tol"):
        for value in ("inf", "nan", "-1e-6"):
            code = cli.main(weak + [f"{flag}={value}"])
            err = capsys.readouterr().err
            assert code == 2, (flag, value)
            assert flag[2:].replace("-", "_") in err, (flag, value)
    # a JSON boolean is not a real number, and a section must be an object;
    # each error names its key or section
    cases = [({"model": {"kind": "berger", "eta": True}}, "eta"),
             ({"integrator": {"step": True}}, "step"),
             ({"eta_list": [True]}, "eta_list"),
             ({"model": {"kind": "scaled", "lam": True, "base": {"kind": "round", "dim": 3}}},
              "lam"),
             ({"tolerances": {"weak_tol": False}}, "weak_tol"),
             ({"normalization": "sideways"}, "normalization"),
             ({"eta_list": 0.5}, "eta_list")]
    cases += [({section: 5}, section) for section in ("model", "sampler", "integrator",
                                                      "tolerances", "output")]
    path = tmp_path / "manifest.json"
    for manifest, key in cases:
        path.write_text(json.dumps(manifest))
        for argv in (["scan-curvature", "--count", "8"], ["scan-curvature"]):
            code = cli.main(argv + ["--manifest", str(path)])
            err = capsys.readouterr().err
            assert code == 2, manifest
            assert key in err, (manifest, err)


def test_non_finite_model_parameters_exit_2(capsys, tmp_path):
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(
        {"model": {"kind": "scaled", "lam": math.inf, "base": {"kind": "round", "dim": 3}}}
    ))
    cases = [(["geodesic", "--model", "berger", "--eta", "inf", "--direction", "fiber",
               "--horizon", "1"], "eta"),
             (["berger-report", "--etas", "inf", "--count", "4"], "eta"),
             (["scan-curvature", "--count", "8", "--manifest", str(path)], "lam")]
    for argv, field in cases:
        code = cli.main(argv)
        captured = capsys.readouterr()
        assert code == 2, argv
        assert captured.out == "" and field in captured.err, (argv, captured.err)


def test_a_diverged_conjugate_run_says_so(capsys):
    # at step 1.0 the flow on S^2 starts at unit speed and then blows up
    argv = ["conjugate", "--model", "round", "--dim", "2", "--step", "1.0", "--horizon", "3.5"]
    with np.errstate(all="ignore"):
        code = cli.main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "error: the integration diverged; a smaller step may help" in captured.err


def test_sample_index_outside_the_sampler_exits_2(capsys):
    # "sample--1" must not wrap round to the last draw, nor "sampleXYZ" read as "sample"
    cases = [("sample--1", 2), ("sample-4", 2), ("sample-3", 0)]
    cases += [("samples", 2), ("sampleXYZ", 2), ("sample", 0)]
    for direction, expected in cases:
        argv = ["geodesic", "--model", "round", "--count", "4", "--direction", direction]
        code = cli.main(argv + ["--horizon", "1.0"])
        capsys.readouterr()
        assert code == expected, direction


def test_berger_report_command(capsys, tmp_path):
    out = tmp_path / "rows.csv"
    code, report = _run(
        capsys,
        [
            "berger-report",
            "--etas",
            "1.0," + str(2 / math.sqrt(3)),
            "--count",
            "4",
            "--seed",
            "3",
            "--format",
            "csv",
            "--output",
            str(out),
        ],
    )
    assert code == 0
    rows = report["payload"]["rows"]
    assert rows[0]["positive_spherical_rank"] is True
    assert rows[1]["weak_lower"] is None and rows[1]["lower_normalizable"] is False
    header = out.read_text().splitlines()[0]
    assert header.startswith("eta,sec_min_exact,sec_max_exact,")


def test_report_roundtrip_and_determinism(capsys):
    argv = [
        "rank",
        "--property",
        "weak-upper",
        "--model",
        "berger",
        "--eta",
        "1.2",
        "--normalization",
        "upper",
        "--count",
        "4",
        "--seed",
        "9",
    ]
    code1 = cli.main(argv)
    out1 = capsys.readouterr().out
    code2 = cli.main(argv)
    out2 = capsys.readouterr().out
    assert code1 == code2 == 0
    r1, r2 = json.loads(out1), json.loads(out2)
    # round trip through JSON is stable
    assert json.loads(cli.serialize_report(r1)) == r1
    assert cli.serialize_report(json.loads(cli.serialize_report(r1))) == cli.serialize_report(r1)
    r1.pop("wall_clock_seconds")
    r2.pop("wall_clock_seconds")
    assert json.dumps(r1, sort_keys=True) == json.dumps(r2, sort_keys=True)
    # byte-identical modulo the wall-clock line
    l1 = [l for l in out1.splitlines() if "wall_clock_seconds" not in l]
    l2 = [l for l in out2.splitlines() if "wall_clock_seconds" not in l]
    assert l1 == l2


def test_geodesic_command_trace(capsys, tmp_path):
    trace = tmp_path / "geo.csv"
    code, report = _run(
        capsys,
        [
            "geodesic",
            "--model",
            "berger",
            "--eta",
            "0.8",
            "--direction",
            "fiber",
            "--horizon",
            str(2 * math.pi * 0.8),
            "--count",
            "4",
            "--format",
            "csv",
            "--output",
            str(trace),
        ],
    )
    assert code == 0
    assert report["payload"]["closure_distance"] < 1e-6
    header = trace.read_text().splitlines()[0]
    assert header == "t,p0,p1,p2,p3,v0,v1,v2,speed"


def test_json_output_file_is_the_report_on_stdout(capsys, tmp_path):
    path = tmp_path / "report.json"
    argv = ["geodesic", "--model", "round", "--horizon", "1.0", "--count", "4"]
    code = cli.main(argv + ["--format", "json", "--output", str(path)])
    captured = capsys.readouterr()
    assert code == 0
    assert path.read_bytes() == captured.out.encode("utf-8")
    assert json.loads(captured.out)["command"] == "geodesic"


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_unwritable_output_exits_2_with_an_error(capsys, tmp_path, fmt):
    path = tmp_path / "missing" / f"x.{fmt}"
    argv = ["geodesic", "--model", "round", "--horizon", "1.0", "--count", "4"]
    code = cli.main(argv + ["--format", fmt, "--output", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ") and str(path) in captured.err


# ---------------------------------------------------------------------------
# the CLI reads its defaults, names and evidence fields from the library


def test_manifest_defaults_are_the_library_defaults():
    def default(fn, name):
        return inspect.signature(fn).parameters[name].default

    m = cli.DEFAULT_MANIFEST
    tols = m["tolerances"]
    pos, weak = sr.check_positive_spherical_rank, sr.check_weak_spherical_rank
    assert m["integrator"]["step"] == default(pos, "step") == default(weak, "step")
    assert tols["time_tol"] == default(pos, "time_tol")
    assert tols["curv_tol"] == default(pos, "curv_tol")
    assert tols["rank_tol"] == default(pos, "rank_tol") == default(detect_events, "rank_tol")
    assert tols["weak_tol"] == default(weak, "tol")
    assert m["sampler"]["stratification"] == default(sr.GeodesicSampler, "stratification")
    for key, value in tols.items():
        assert default(sr.berger_report, key) == value, key


def test_readme_schema_is_the_default_manifest():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = re.search(r"schema with defaults:\s*```json\n(.*?)```", readme, re.S)
    assert json.loads(block[1]) == cli.DEFAULT_MANIFEST


@pytest.mark.parametrize(
    "argv",
    [
        ["--property", "positive-spherical", "--model", "round", "--dim", "3"],
        ["--property", "weak-upper", "--model", "berger", "--eta", "1.2",
         "--normalization", "upper"],
    ],
    ids=["positive", "weak-upper"],
)
def test_rank_evidence_keys_are_the_rank_evidence_fields(capsys, argv):
    code, report = _run(capsys, ["rank", *argv, "--count", "4", "--seed", "3"])
    assert code == 0
    evidence = report["payload"]["evidence"]
    fields = {f.name for f in dataclasses.fields(sr.RankEvidence)}
    assert len(evidence) == 4 and all(set(e) == fields for e in evidence)
    assert all(e["richardson_gap"] is None for e in evidence)


def test_berger_report_uses_the_manifest_tolerances(capsys):
    # Berger(0.5) upper-normalized misses the weak property by less than 0.95
    argv = ["berger-report", "--etas", "0.5", "--count", "2", "--seed", "3", "--weak-tol", "0.95"]
    code, report = _run(capsys, argv)
    assert code == 0
    assert report["manifest"]["tolerances"]["weak_tol"] == 0.95
    assert report["payload"]["rows"][0]["weak_upper"] is True
