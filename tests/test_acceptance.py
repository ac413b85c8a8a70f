"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Seeds are fixed so every run is reproducible.
"""

import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest

from bundle_views import bundle_views
import fd_oracle as fd
import sphererank as sr
from sphererank.geometry import ambient_from_body, pair_inner

SEED = 20240809


def _bundle_views(model, P, W, horizon, step=1e-3):
    return bundle_views(model, P, W, horizon, step)


def _passline(num, text):
    print(f"\nACCEPTANCE {num} PASS: {text}")


def test_criterion_1_berger_curvature_extremes():
    for eta in (0.5, 0.8, 1.0, 1.2):
        started = time.perf_counter()
        model = sr.BergerSphere(eta)
        scan = sr.curvature_scan(model, 10000, SEED)
        lo = min(eta**2, 4 - 3 * eta**2)
        hi = max(eta**2, 4 - 3 * eta**2)
        assert scan.minimum == pytest.approx(lo, abs=1e-3)
        assert scan.maximum == pytest.approx(hi, abs=1e-3)
        # exact formula at the frame planes
        p = sr.make_point(model, [1, 0, 0, 0])
        i = sr.make_tangent(model, p, [1, 0, 0])
        j = sr.make_tangent(model, p, [0, 1, 0])
        k = sr.make_tangent(model, p, [0, 0, 1])
        assert sr.sectional_curvature(model, i, j) == pytest.approx(eta**2, abs=1e-9)
        assert sr.sectional_curvature(model, i, k) == pytest.approx(eta**2, abs=1e-9)
        assert sr.sectional_curvature(model, j, k) == pytest.approx(4 - 3 * eta**2, abs=1e-9)
        elapsed = time.perf_counter() - started
        assert elapsed < 10.0
    _passline(1, "Berger scan extremes within 1e-3 and frame-plane values within 1e-9")


def test_criterion_2_hopf_fiber_length():
    for eta in (0.5, 0.8, 1.2):
        model = sr.BergerSphere(eta)
        p = sr.make_point(model, [1, 0, 0, 0])
        v = sr.make_tangent(model, p, [1 / eta, 0, 0])
        for step in (1e-3, 5e-4):  # built-in step/2 self-check
            traj = sr.geodesic_flow(model, sr.GeodesicState(p, v), 2 * math.pi * eta, step)
            closure = float(np.linalg.norm(traj.points[-1] - traj.points[0]))
            assert closure < 1e-6
    _passline(2, "Hopf fibers close within 1e-6 at arc length 2*pi*eta (step and step/2)")


def test_criterion_3_round_sphere_rank():
    started = time.perf_counter()
    for n in range(2, 7):
        verdict = sr.check_positive_spherical_rank(
            sr.RoundSphere(n),
            sr.GeodesicSampler(200, SEED),
            event_window=3.5,
            richardson=True,
        )
        assert verdict.holds and verdict.status == "ok"
        for e in verdict.evidence:
            assert len(e.events) == 1
            assert abs(e.events[0].time - math.pi) <= 1e-6
            assert e.events[0].multiplicity == n - 1
        assert max(e.richardson_gap for e in verdict.evidence) <= 1e-7
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    _passline(3, f"round spheres n=2..6: 200 geodesics each conjugate at pi (in {elapsed:.1f}s)")


def test_criterion_4_cpn_multiplicity_one():
    model = sr.ComplexProjective(2)
    sampler = sr.GeodesicSampler(200, SEED)
    verdict = sr.check_positive_spherical_rank(model, sampler, richardson=True)
    assert verdict.holds
    for e in verdict.evidence:
        assert abs(e.events[0].time - math.pi) <= 1e-6
        assert e.events[0].multiplicity == 1
        assert e.has_certificate and e.certificate_deviation < 1e-6

    # constant-coefficient oracle on a spot-check subset
    P, W = sampler.states(model)
    _, views = _bundle_views(model, P[:3], W[:3], 3.4)
    for profile, prop in views:
        w, Pmat = np.linalg.eigh(profile.K[0])
        for idx in range(0, len(prop.times), 157):
            t = prop.times[idx]
            diag = np.diag(
                [np.sin(t) if abs(lam - 1) < 1e-6 else 2 * np.sin(t / 2) for lam in w]
            )
            assert np.max(np.abs(prop.M[idx] - Pmat @ diag @ Pmat.T)) < 1e-7
    _passline(4, "CP^2: conjugate at pi with multiplicity 1, certificates, oracle match")


def test_criterion_5_rauch_bound_berger():
    model = sr.normalize_to_bound(sr.BergerSphere(1.2), "upper")
    verdict = sr.check_positive_spherical_rank(
        model, sr.GeodesicSampler(200, SEED), richardson=True
    )
    assert verdict.status == "ok" and not verdict.holds
    for e in verdict.evidence:
        assert all(ev.time >= math.pi - 1e-4 for ev in e.events)
    witness = verdict.evidence[verdict.worst_case]
    assert not witness.passes
    assert abs(witness.velocity[0]) < 1e-12  # purely horizontal direction
    _passline(5, "Berger(1.2) upper-normalized: no event before pi, horizontal witness fails")


def test_criterion_6_weak_spherical_rank():
    cases = [
        (sr.normalize_to_bound(sr.BergerSphere(0.8), "lower"), "lower"),
        (sr.normalize_to_bound(sr.BergerSphere(1.2), "upper"), "upper"),
    ]
    for model, side in cases:
        verdict = sr.check_weak_spherical_rank(
            model, side, sr.GeodesicSampler(100, SEED), method="witness"
        )
        assert verdict.holds
        assert max(e.weak_deviation for e in verdict.evidence) < 1e-6
        spot = sr.check_weak_spherical_rank(
            model, side, sr.GeodesicSampler(10, SEED + 1), tol=1e-5, method="search"
        )
        assert spot.holds
    _passline(6, "weak rank holds via Killing witness (<1e-6) and via search (tol 1e-5)")


def test_criterion_7_sturm_comparison_suite():
    rng = np.random.default_rng(SEED)
    for model, exact_equality in [
        (sr.normalize_to_bound(sr.BergerSphere(1.2), "upper"), False),
        (sr.RoundSphere(3), True),
    ]:
        P, W = sr.GeodesicSampler(50, SEED, "uniform").states(model)
        _, views = _bundle_views(model, P, W, math.pi / 2)
        launches = 0
        for profile, _ in views:
            traj = profile.trajectory
            E0 = np.stack([f.components[0] for f in profile.frame])
            k = E0.shape[0]
            for j in range(2):
                c = rng.normal(size=k)
                c /= np.linalg.norm(c)
                x0 = sr.Tangent(sr.Point(traj.points[0]), c @ E0)
                xp0 = None
                if j == 1:
                    cp = rng.normal(size=k)
                    cp -= (cp @ c) * c
                    xp0 = sr.Tangent(sr.Point(traj.points[0]), cp @ E0)
                res = sr.verify_sturm_bound(profile, x0, math.pi / 2, tol=1e-7, xp0=xp0)
                assert res.holds
                assert res.margin >= -1e-7
                if exact_equality and xp0 is None:
                    assert np.max(np.abs(res.norms - np.cos(res.times))) < 1e-7
                launches += 1
        assert launches == 100
    _passline(7, "|X(s)| >= cos(s) - 1e-7 on [0, pi/2]; round-sphere equality within 1e-7")


def test_criterion_8_property_suites():
    fuzz_models = [
        sr.RoundSphere(2),
        sr.RoundSphere(4),
        sr.BergerSphere(0.8),
        sr.BergerSphere(1.2),
        sr.ComplexProjective(2),
    ]

    # curvature-tensor symmetries at 1e-9, 100 random inputs per model
    for mi, model in enumerate(fuzz_models):
        from sphererank.geometry import (
            gaussians_from_uniforms,
            points_from_uniforms,
            sobol_uniforms,
        )

        dp, dt = model.point_dim, model.tangent_dim
        u = sobol_uniforms(dp + 4 * dt, 100, SEED + mi)
        Pts = points_from_uniforms(model, u[:, :dp])
        g = gaussians_from_uniforms(u[:, dp:])
        x, y, z, w = (
            model.project_tangent(Pts, g[:, i * dt : (i + 1) * dt]) for i in range(4)
        )
        Rxyz = model.curvature(x, y, z)
        assert np.max(np.abs(Rxyz + model.curvature(y, x, z))) < 1e-9
        assert np.max(np.abs(model.inner(Rxyz, w) - model.inner(model.curvature(z, w, x), y))) < 1e-9
        assert np.max(np.abs(Rxyz + model.curvature(y, z, x) + model.curvature(z, x, y))) < 1e-9

    # 100-geodesic fuzz: speed conservation (1e-8), transport isometry (1e-8),
    # Lagrangian identity (1e-7)
    for mi, model in enumerate(fuzz_models):
        P, W = sr.GeodesicSampler(20, SEED + 10 * mi, "uniform").states(model)
        bundle, views = _bundle_views(model, P, W, 2 * math.pi)
        speeds = np.sqrt(model.inner(bundle["V"], bundle["V"]))
        assert np.max(np.abs(speeds - 1.0)) < 1e-8
        gram = pair_inner(model, bundle["E"], bundle["E"])
        k = gram.shape[-1]
        assert np.max(np.abs(gram - np.eye(k))) < 1e-8
        for _, prop in views:
            assert prop.lagrangian_defect() < 1e-7

    # conjugate-time scaling under metric scaling (1e-6)
    lam = 1.4
    for model in (sr.RoundSphere(3), sr.BergerSphere(0.9), sr.ComplexProjective(2)):
        scaled = sr.Scaled(model, lam)
        P, W = sr.GeodesicSampler(8, SEED, "uniform").states(model)
        Ws = W / lam  # same directions, unit speed in the scaled metric
        _, base_views = _bundle_views(model, P, W, 3.6)
        _, scaled_views = _bundle_views(scaled, P, Ws, 3.6 * lam)
        for (_, pb), (_, ps) in zip(base_views, scaled_views):
            eb = sr.conjugate_points(pb, (0.0, 3.6))
            es = sr.conjugate_points(ps, (0.0, 3.6 * lam))
            assert len(eb) == len(es) >= 1
            for a, b in zip(eb, es):
                assert abs(b.time - lam * a.time) < 1e-6
                assert a.multiplicity == b.multiplicity

    # eta = 1 reduction to the round 3-sphere (1e-7)
    m1, m3 = sr.BergerSphere(1.0), sr.RoundSphere(3)
    P, W = sr.GeodesicSampler(10, SEED, "uniform").states(m1)
    Va = ambient_from_body(P, W)
    b1, v1 = _bundle_views(m1, P, W, 3.4)
    b3, v3 = _bundle_views(m3, P, Va, 3.4)
    # trajectories agree pointwise in the ambient sphere
    assert np.max(np.linalg.norm(b1["X"] - b3["X"], axis=-1)) < 1e-7
    for (_, p1), (_, p3) in zip(v1, v3):
        assert np.max(np.abs(p1.M - p3.M)) < 1e-7

    # closed-form vs finite-difference Berger curvature (1e-4)
    eta = 1.2
    embed, cols, metric = fd.berger_chart(eta)
    model = sr.BergerSphere(eta)
    rng = np.random.default_rng(SEED)
    for _ in range(6):
        xc = rng.normal(size=3) * 0.3
        a, b = rng.normal(size=(2, 3))
        sec_fd = fd.sectional(metric, xc, a, b, 2e-2)
        q = sr.make_point(model, embed(xc))
        C = cols(xc)
        sec_cf = sr.sectional_curvature(model, sr.Tangent(q, C @ a), sr.Tangent(q, C @ b))
        assert abs(sec_fd - sec_cf) < 1e-4

    _passline(8, "property suites green (symmetries, Lagrangian, speed, transport, "
                 "scaling, eta=1 reduction, FD curvature)")


def test_criterion_9_determinism():
    argvs = [
        [
            "rank", "--property", "positive-spherical", "--model", "round", "--dim", "3",
            "--count", "10", "--seed", str(SEED),
        ],
        [
            "scan-curvature", "--model", "berger", "--eta", "1.2",
            "--count", "4096", "--seed", str(SEED),
        ],
    ]
    for argv in argvs:
        outs = []
        for _ in range(2):
            proc = subprocess.run(
                [sys.executable, "-m", "sphererank.cli", *argv],
                capture_output=True,
                text=True,
                check=False,
            )
            assert proc.returncode in (0, 1)
            outs.append(proc.stdout)
        strip = lambda s: [l for l in s.splitlines() if "wall_clock_seconds" not in l]
        assert strip(outs[0]) == strip(outs[1])
        # sanity: reports parse and embed the manifest
        report = json.loads(outs[0])
        assert "manifest" in report and "payload" in report
    _passline(9, "repeated runs byte-identical modulo the wall-clock field")
