import json
import math

import pytest

from sphererank import cli
from sphererank.errors import ParameterError


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
    assert m["integrator"]["step"] == 1e-3


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


def test_build_model_variants():
    m = cli.build_model({"kind": "scaled", "lam": 2.0, "base": {"kind": "round", "dim": 3}})
    from sphererank import RoundSphere, Scaled

    assert isinstance(m, Scaled) and isinstance(m.base, RoundSphere)
    with pytest.raises(ParameterError):
        cli.build_model({"kind": "torus"})


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


def test_invalid_inputs_exit_2(capsys):
    code = cli.main(["rank", "--property", "positive-spherical", "--model", "berger"])
    capsys.readouterr()
    assert code == 2
    code = cli.main(["berger-report", "--etas", ""])
    capsys.readouterr()
    assert code == 2
    code = cli.main(["conjugate", "--model", "round", "--dim", "3", "--direction", "fiber"])
    capsys.readouterr()
    assert code == 2


def test_sample_index_outside_the_sampler_exits_2(capsys):
    # "sample--1" parses as k = -1, which must not wrap round to the last draw
    for direction, expected in (("sample--1", 2), ("sample-4", 2), ("sample-3", 0)):
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
