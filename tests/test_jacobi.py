import math

import numpy as np
import pytest

from bundle_views import (
    analyzed_bundle, bundle_propagator, bundle_views, row_views, second_solution,
)
import closed_forms as cf
import sphererank as sr
from sphererank import jacobi as jacobi_mod
from sphererank import rank as rank_mod


def _state(model, p, v):
    point = sr.make_point(model, p)
    return sr.GeodesicState(point, sr.make_tangent(model, point, v))


def _unit(model, v):
    v = np.asarray(v, dtype=float)
    return v / math.sqrt(float(model.inner(v, v)))


def _pipeline(model, p, v, horizon, step=1e-3):
    traj = sr.geodesic_flow(model, _state(model, p, v), horizon, step)
    frame = sr.normal_frame(traj)
    profile = sr.curvature_profile(traj, frame)
    return traj, profile, sr.jacobi_propagate(profile)


def _random_geodesics(model, count, seed):
    P, W = sr.GeodesicSampler(count, seed, "uniform").states(model)
    return P, W


# ---------------------------------------------------------------------------
# curvature profiles


def test_round_profile_is_identity():
    _, profile, _ = _pipeline(sr.RoundSphere(4), [1, 0, 0, 0, 0], [0, 1, 0, 0, 0], 2.0)
    assert np.max(np.abs(profile.K - np.eye(3))) < 1e-12
    assert profile.symmetry_defect < 1e-9


def test_berger_fiber_profile_is_isotropic():
    eta = 1.2
    m = sr.BergerSphere(eta)
    _, profile, _ = _pipeline(m, [1, 0, 0, 0], [1 / eta, 0, 0], 2.0)
    assert np.max(np.abs(profile.K - eta**2 * np.eye(2))) < 1e-9


def test_cpn_profile_eigenvalues_constant():
    m = sr.ComplexProjective(2)
    rng = np.random.default_rng(1)
    raw = rng.normal(size=6)
    z = sr.make_point(m, raw / np.linalg.norm(raw)).coordinates
    v = _unit(m, m.project_tangent(z, rng.normal(size=6)))
    _, profile, _ = _pipeline(m, z, v, 3.0)
    eig = np.linalg.eigvalsh(profile.K)
    assert np.max(np.abs(eig - np.array([0.25, 0.25, 1.0]))) < 1e-9


def test_profile_frame_mismatch_error():
    m = sr.RoundSphere(3)
    t1, _, _ = _pipeline(m, [1, 0, 0, 0], [0, 1, 0, 0], 1.0)
    t2 = sr.geodesic_flow(m, _state(m, [1, 0, 0, 0], [0, 0, 1, 0]), 1.0, 1e-3)
    frame2 = sr.normal_frame(t2)
    with pytest.raises(sr.DomainError):
        sr.curvature_profile(t1, frame2)


# ---------------------------------------------------------------------------
# midpoints


def _smooth(t):
    """A smooth (T, 2, 2) matrix function of the sample times."""
    t = np.asarray(t)[:, None]
    top = np.stack([np.sin(t), np.cos(2 * t)], -1)
    return np.concatenate([top, np.stack([np.exp(t / 2), t + np.sin(t) ** 2], -1)], axis=-2)


def test_interval_midpoints_are_the_four_point_stencil_on_a_uniform_grid():
    times = sr.time_grid(1.0, 0.01)
    Y = _smooth(times)
    mids = jacobi_mod.interval_midpoints(times, Y)
    stencil = (-Y[:-3] + 9.0 * Y[1:-2] + 9.0 * Y[2:-1] - Y[3:]) / 16.0
    assert np.max(np.abs(mids[1:-1] - stencil)) <= 1e-15 * np.max(np.abs(Y))


def test_interval_midpoint_edges_are_third_order_on_a_ragged_grid():
    # the node slopes at the two ends are one-sided and second order, so the
    # edge midpoints are third order: the error falls by 8 per halving in the
    # limit (7.996 at h = 0.01 on the first interval); a second-order edge
    # rule would give 4
    def edge_errors(h):
        times = sr.time_grid(1.0 + 0.3 * h, h)  # the last interval is 0.3 h
        mids = jacobi_mod.interval_midpoints(times, _smooth(times))
        err = np.max(np.abs(mids - _smooth(0.5 * (times[1:] + times[:-1]))), axis=(1, 2))
        return np.array([err[0], err[-2], err[-1]])

    assert np.all(edge_errors(0.02) > 7.5 * edge_errors(0.01))


def test_interval_midpoints_are_the_same_bits_in_blocks(monkeypatch):
    times = sr.time_grid(0.5 + 0.3e-2, 1e-2)
    Y = np.random.default_rng(3).normal(size=(len(times), 2, 3, 3))
    whole = jacobi_mod.interval_midpoints(times, Y)
    monkeypatch.setattr(jacobi_mod, "PROFILE_BLOCK", 3)
    assert np.array_equal(jacobi_mod.interval_midpoints(times, Y), whole)


# step 0.01: 0, 0.3 and 1.7 steps past a node of the 0.02 grid, and 1.5 steps
@pytest.mark.parametrize("horizon", [0.4, 0.403, 0.417, 0.015])
def test_bundle_analyzes_on_the_2x_grid_with_curvature_midpoints(horizon):
    step = 0.01
    m = sr.RoundSphere(2)
    P, W = sr.GeodesicSampler(2, 5).states(m)
    bundle = analyzed_bundle(m, P, W, horizon, step)
    times = sr.time_grid(horizon, min(2 * step, horizon))
    assert np.array_equal(bundle["times"], times)
    assert bundle["Kmid"].shape == (len(times) - 1,) + bundle["K"].shape[1:]
    for b in range(len(P)):
        profile, _ = row_views(m, bundle, b)
        assert np.array_equal(profile.midpoints(), bundle["Kmid"][:, b])


def test_evaluate_takes_an_array_of_times():
    _, _, prop = _pipeline(sr.RoundSphere(3), [1, 0, 0, 0], [0, 1, 0, 0], 2.0)
    ts = np.array([0.0, 0.31234, 1.0, 2.0])
    M, Mp = prop.evaluate(ts)
    assert M.shape == Mp.shape == (4, 2, 2)
    for t, m, mp in zip(ts, M, Mp):
        one = prop.evaluate(t)
        assert one[0].shape == (2, 2)
        assert np.array_equal(one[0], m) and np.array_equal(one[1], mp)
    assert np.max(np.abs(M - np.sin(ts)[:, None, None] * np.eye(2))) < 1e-7


# ---------------------------------------------------------------------------
# propagation


def test_round_propagator_is_sine():
    _, _, prop = _pipeline(sr.RoundSphere(3), [1, 0, 0, 0], [0, 1, 0, 0], 4.0)
    target = np.sin(prop.times)[:, None, None] * np.eye(2)
    assert np.max(np.abs(prop.M - target)) < 1e-7
    assert prop.lagrangian_defect() < 1e-7


def test_cpn_propagator_block_oracle():
    m = sr.ComplexProjective(2)
    _, profile, prop = _pipeline(
        m, [1, 0, 0, 0, 0, 0], 0.5 * np.array([0, 1, 0, 0, 0, 0.0]), 4.0
    )
    w, P = np.linalg.eigh(profile.K[0])
    for i in range(0, len(prop.times), 333):
        t = prop.times[i]
        diag = np.diag([np.sin(t) if abs(l - 1) < 1e-6 else 2 * np.sin(t / 2) for l in w])
        assert np.max(np.abs(prop.M[i] - P @ diag @ P.T)) < 1e-7


def test_berger_eta_one_propagator_matches_round3():
    m1 = sr.BergerSphere(1.0)
    m3 = sr.RoundSphere(3)
    w0 = _unit(m1, [0.4, -0.2, 0.5])
    _, _, p1 = _pipeline(m1, [1, 0, 0, 0], w0, 4.0)
    from sphererank.geometry import ambient_from_body

    v_amb = ambient_from_body(np.array([1.0, 0, 0, 0]), w0)
    _, _, p3 = _pipeline(m3, [1, 0, 0, 0], v_amb, 4.0)
    # both must equal sin(t) * I in their own frames
    target = np.sin(p1.times)[:, None, None] * np.eye(2)
    assert np.max(np.abs(p1.M - target)) < 1e-7
    assert np.max(np.abs(p3.M - target)) < 1e-7


# ---------------------------------------------------------------------------
# conjugate points


def test_round3_conjugate_event():
    _, _, prop = _pipeline(sr.RoundSphere(3), [1, 0, 0, 0], [0, 1, 0, 0], 4.0)
    events = sr.conjugate_points(prop, (0.0, 4.0))
    assert len(events) == 1
    assert events[0].time == pytest.approx(math.pi, abs=1e-6)
    assert events[0].multiplicity == 2


def test_cpn_conjugate_event_multiplicity_one():
    m = sr.ComplexProjective(2)
    v = 0.5 * np.array([0, 1, 0, 0, 0, 0.0])
    for horizon, expected in [
        (4.0, [(math.pi, 1)]),
        # every normal Jacobi field vanishing at 0 vanishes again at 2pi
        (2 * math.pi + 0.2, [(math.pi, 1), (2 * math.pi, 3)]),
    ]:
        _, _, prop = _pipeline(m, [1, 0, 0, 0, 0, 0], v, horizon)
        events = sr.conjugate_points(prop, (0.0, horizon))
        assert [(round(e.time, 6), e.multiplicity) for e in events] == [
            (round(t, 6), k) for t, k in expected
        ]


def test_crossings_within_the_time_resolution_are_one_event():
    # K = diag(1, 1 + eps) puts simple zeros of M at pi / sqrt(1 + eps) and at
    # pi, 3e-9 apart; the window (c - 1, c + 1) makes their midpoint c the
    # first bisection point, so each half holds one crossing
    traj, profile, _ = _pipeline(sr.RoundSphere(3), [1, 0, 0, 0], [0, 1, 0, 0], 6.5)
    eps = 2e-9
    K = np.broadcast_to(np.diag([1.0, 1.0 + eps]), profile.K.shape).copy()
    prop = sr.jacobi_propagate(sr.CurvatureProfile(traj, profile.frame, K, 0.0))
    c = 0.5 * (math.pi / math.sqrt(1.0 + eps) + math.pi)
    for window in ((c - 1.0, c + 1.0), (0.0, 4.0)):
        events = sr.conjugate_points(prop, window)
        assert [e.multiplicity for e in events] == [2]
        assert events[0].time == pytest.approx(c, abs=1e-8)


def test_event_times_match_closed_forms():
    # the zeros of det M on the Hermite interpolant, not a bisection midpoint
    cases = [
        (sr.RoundSphere(n), np.eye(n + 1)[0], np.eye(n + 1)[1], 7.0, [math.pi, 2 * math.pi])
        for n in (2, 4, 6)
    ]
    cases.append((
        sr.ComplexProjective(2),
        [1, 0, 0, 0, 0, 0],
        0.5 * np.array([0, 1, 0, 0, 0, 0.0]),
        2 * math.pi + 0.2,
        [math.pi, 2 * math.pi],
    ))
    for eta in (0.8, 1.2):
        expected = cf.berger_horizontal_conjugate_times(eta, 5.0)
        cases.append((sr.BergerSphere(eta), [1, 0, 0, 0], [0, 1, 0], 5.0, expected))
    for model, p, v, horizon, expected in cases:
        _, _, prop = _pipeline(model, p, v, horizon)
        events = sr.conjugate_points(prop, (0.0, horizon))
        assert len(events) == len(expected)
        for e, t in zip(events, expected):
            assert e.time == pytest.approx(t, abs=1e-10)


def test_two_crossings_in_one_grid_cell():
    # K = diag(1, 1 + eps) puts simple zeros of M at pi / sqrt(1 + eps) and at
    # pi, 3e-4 apart: both inside the grid cell of step 1e-3 that holds pi
    traj, profile, _ = _pipeline(sr.RoundSphere(3), [1, 0, 0, 0], [0, 1, 0, 0], 4.0)
    eps = 1.9e-4
    K = np.broadcast_to(np.diag([1.0, 1.0 + eps]), profile.K.shape).copy()
    prop = sr.jacobi_propagate(sr.CurvatureProfile(traj, profile.frame, K, 0.0))
    cell = np.searchsorted(prop.times, math.pi)
    assert prop.times[cell - 1] < math.pi / math.sqrt(1.0 + eps) < math.pi < prop.times[cell]
    events = sr.conjugate_points(prop, (0.0, 4.0))
    assert [e.multiplicity for e in events] == [1, 1]
    for e, t in zip(events, (math.pi / math.sqrt(1.0 + eps), math.pi)):
        assert e.time == pytest.approx(t, abs=1e-10)


def test_richardson_gap_measures_the_discretization():
    # the step and half-step event times differ by the discretization error:
    # small, but not zero
    verdict = sr.check_positive_spherical_rank(
        sr.RoundSphere(4), sr.GeodesicSampler(6, 11), richardson=True
    )
    assert verdict.holds
    for e in verdict.evidence:
        assert 0.0 < e.richardson_gap <= 1e-7


def test_zeros_that_miss_the_count_jump_raise(monkeypatch):
    # a count jump without the zeros of det M to match is an error: no event
    # is dropped or invented.  The fault is on the class: detection runs a
    # single propagator as a batch of one, on a propagator of its own
    _, _, prop = _pipeline(sr.RoundSphere(3), [1, 0, 0, 0], [0, 1, 0, 0], 4.0)
    count = sr.JacobiPropagator.morse_count
    monkeypatch.setattr(sr.JacobiPropagator, "morse_count",
                        lambda self, t: count(self, t) + (np.asarray(t) > 2.0))
    with pytest.raises(sr.DomainError):
        sr.conjugate_points(prop, (0.0, 4.0))


def test_berger_horizontal_conjugates_match_reduction_oracle():
    for eta in (0.8, 1.2):
        m = sr.BergerSphere(eta)
        _, _, prop = _pipeline(m, [1, 0, 0, 0], [0, 1, 0], 5.0)
        events = sr.conjugate_points(prop, (0.0, 5.0))
        expected = cf.berger_horizontal_conjugate_times(eta, 5.0)
        assert len(events) == len(expected)
        for e, t in zip(events, expected):
            assert e.time == pytest.approx(t, abs=1e-6)


def test_berger_normalized_upper_rauch_window():
    # max curvature 1 after normalization: no conjugate point before pi
    m = sr.normalize_to_bound(sr.BergerSphere(1.2), "upper")
    P, W = _random_geodesics(m, 12, 31)
    for _, prop in bundle_views(m, P, W, math.pi + 0.05)[1]:
        events = sr.conjugate_points(prop, (0.0, math.pi - 1e-4))
        assert events == []
        sigma = prop.smallest_singular_values()
        inside = (prop.times >= 1e-3) & (prop.times <= math.pi - 1e-3)
        assert np.min(sigma[inside]) > 0


def test_conjugate_scaling_law():
    lam = 1.4
    base = sr.BergerSphere(0.9)
    scaled = sr.Scaled(base, lam)
    w = [0.3, 0.8, -0.1]
    _, _, pb = _pipeline(base, [1, 0, 0, 0], _unit(base, w), 3.6)
    _, _, ps = _pipeline(scaled, [1, 0, 0, 0], _unit(scaled, w), 3.6 * lam)
    eb = sr.conjugate_points(pb, (0.0, 3.6))
    es = sr.conjugate_points(ps, (0.0, 3.6 * lam))
    assert len(eb) == len(es) and len(eb) >= 1
    for a, b in zip(eb, es):
        assert b.time == pytest.approx(lam * a.time, abs=1e-6)
        assert a.multiplicity == b.multiplicity


def test_eta_continuity_of_conjugate_times():
    w = [0.45, 0.6, 0.25]
    times = {}
    for eta in (1.15, 1.151):
        m = sr.BergerSphere(eta)
        _, _, prop = _pipeline(m, [1, 0, 0, 0], _unit(m, w), 3.4)
        events = sr.conjugate_points(prop, (0.0, 3.4))
        times[eta] = events[0].time
    assert abs(times[1.15] - times[1.151]) < 1e-2


def test_window_validation():
    _, _, prop = _pipeline(sr.RoundSphere(3), [1, 0, 0, 0], [0, 1, 0, 0], 2.0)
    with pytest.raises(sr.ParameterError):
        sr.conjugate_points(prop, (1.0, 1.0))
    with pytest.raises(sr.ParameterError):
        sr.conjugate_points(prop, (0.0, 3.0))


def test_fixed_endpoint_index():
    _, _, prop = _pipeline(sr.RoundSphere(3), [1, 0, 0, 0], [0, 1, 0, 0], 5.0)
    assert sr.fixed_endpoint_index(prop, 3 * math.pi / 2) == 2
    assert sr.fixed_endpoint_index(prop, math.pi / 2) == 0
    with pytest.raises(sr.AmbiguousEndpointError):
        sr.fixed_endpoint_index(prop, math.pi)
    with pytest.raises(sr.ParameterError):
        sr.fixed_endpoint_index(prop, 6.0)

    m = sr.ComplexProjective(2)
    _, _, pc = _pipeline(m, [1, 0, 0, 0, 0, 0], 0.5 * np.array([0, 1, 0, 0, 0, 0.0]), 5.0)
    assert sr.fixed_endpoint_index(pc, 3 * math.pi / 2) == 1

    # S^n: every normal direction is conjugate at each multiple of pi
    lengths = (
        1.0, math.pi - 0.01, math.pi + 0.01, 4.5, 2 * math.pi - 0.01, 2 * math.pi + 0.01, 6.9
    )
    for n in (2, 4, 6):
        e = np.eye(n + 1)
        _, _, ps = _pipeline(sr.RoundSphere(n), e[0], e[1], 7.0)
        for L in lengths:
            assert sr.fixed_endpoint_index(ps, L) == (n - 1) * math.floor(L / math.pi)
        with pytest.raises(sr.AmbiguousEndpointError):
            sr.fixed_endpoint_index(ps, 2 * math.pi)


@pytest.mark.parametrize(
    "ask",
    [lambda prop: prop.evaluate(math.nan), lambda prop: prop.morse_count(math.nan),
     lambda prop: sr.fixed_endpoint_index(prop, math.nan)],
    ids=["evaluate", "morse_count", "fixed_endpoint_index"],
)
def test_a_nan_time_is_outside_the_propagator_domain(ask):
    # a NaN time gave NaN matrices, a count of 0, and an ambiguous endpoint
    _, _, prop = _pipeline(sr.RoundSphere(3), [1, 0, 0, 0], [0, 1, 0, 0], 4.0, step=1e-2)
    with pytest.raises(sr.ParameterError, match="domain"):
        ask(prop)
    assert prop.morse_count(0.0) == prop.morse_count(-1.0) == 0  # i(t) = 0 for t <= 0


def test_fixed_endpoint_index_rejects_a_bundle():
    m = sr.RoundSphere(3)
    P, W = sr.GeodesicSampler(3, 5).states(m)
    prop = bundle_propagator(analyzed_bundle(m, P, W, 4.0, 0.01, frame=False))
    with pytest.raises(sr.ParameterError, match="single propagator"):
        sr.fixed_endpoint_index(prop, 2.0)


@pytest.mark.parametrize(
    "model",
    [sr.normalize_to_bound(sr.BergerSphere(1.2), "upper"), sr.RoundSphere(5),
     sr.ComplexProjective(3)],
    ids=["k2-berger1.2-upper", "k4-round5", "k5-cp3"],
)
@pytest.mark.parametrize("rows", [1, 40])
def test_one_solve_of_2k_columns_is_n_and_m_bit_for_bit(model, rows):
    # the weak search's [N M] from Y(0) = [I 0], Y'(0) = [0 I], against the two
    # fundamental solutions solved on their own
    P, W = sr.GeodesicSampler(rows, 3).states(model)
    bundle = analyzed_bundle(model, P, W, 1.0, sr.model_step(model), frame=False)
    K = bundle["K"]
    k = K.shape[-1]
    shape = K.shape[1:-1] + (2 * k,)
    ics = (np.broadcast_to(np.eye(k, 2 * k, d), shape) for d in (0, k))
    Y, Yp = jacobi_mod.solve_jacobi_arrays(bundle["times"], K, bundle["Kmid"], *ics)
    assert np.array_equal(Y[..., :k], second_solution(bundle))
    assert np.array_equal(Y[..., k:], bundle["M"]) and np.array_equal(Yp[..., k:], bundle["Mp"])


def test_nonpositive_rank_tol_rejected():
    # a zero or negative confirming threshold would drop every event
    _, _, prop = _pipeline(sr.RoundSphere(3), [1, 0, 0, 0], [0, 1, 0, 0], 4.0)
    for tol in (0.0, -1e-7):
        with pytest.raises(sr.ParameterError):
            sr.conjugate_points(prop, (0.0, 4.0), rank_tol=tol)
        with pytest.raises(sr.ParameterError):
            sr.check_positive_spherical_rank(
                sr.RoundSphere(3), sr.GeodesicSampler(2, 1), rank_tol=tol
            )


@pytest.mark.parametrize("shift, kept", [(1e-9, False), (1e-12, True)])
def test_an_event_is_confirmed_at_rank_tol(monkeypatch, shift, kept):
    # a root moved off the zero of det M leaves sigma_min(M) about shift * |M'|,
    # on either side of rank_tol * |M'| = 1e-10 * |M'|
    _, _, prop = _pipeline(sr.RoundSphere(3), [1, 0, 0, 0], [0, 1, 0, 0], 4.0)
    real = jacobi_mod._singular_times
    monkeypatch.setattr(jacobi_mod, "_singular_times", lambda *args: real(*args) + shift)
    events = sr.conjugate_points(prop, (0.0, 4.0), rank_tol=1e-10)
    expected = [(pytest.approx(math.pi, abs=1e-6), 2)] if kept else []
    assert [(e.time, e.multiplicity) for e in events] == expected


def test_count_on_a_coarse_grid_with_stiff_curvature():
    # K = 100 on a 0.01 analysis grid: Theta = 2 arg det(M' + iM) turns by up
    # to 4 rad per step, more than the unwrap on the bare grid can follow
    lam = 0.1
    model = sr.Scaled(sr.RoundSphere(3), lam)
    P, W = np.array([[1.0, 0, 0, 0]]), np.array([_unit(model, [0, 1, 0, 0])])
    _, [(_, prop)] = bundle_views(model, P, W, 0.8, step=0.005)
    assert np.diff(prop.times)[0] == pytest.approx(0.01)
    events = sr.conjugate_points(prop, (0.0, 0.8))
    assert [e.multiplicity for e in events] == [2, 2]
    for j, e in enumerate(events, start=1):
        assert e.time == pytest.approx(j * math.pi * lam, abs=1e-5)
    for L, index in ((0.5, 0), (1.5, 2), (2.5, 4)):
        assert sr.fixed_endpoint_index(prop, L * math.pi * lam) == index


def test_lagrangian_identity_fuzz():
    cases = [
        (sr.RoundSphere(2), 20),
        (sr.RoundSphere(4), 20),
        (sr.BergerSphere(0.8), 20),
        (sr.BergerSphere(1.2), 20),
        (sr.ComplexProjective(2), 20),
    ]
    for model, count in cases:
        P, W = _random_geodesics(model, count, 1234)
        for _, prop in bundle_views(model, P, W, 3.3)[1]:
            assert prop.lagrangian_defect() < 1e-7
            # small-time expansion M(t) = t I + O(t^3)
            i1 = 5
            t = prop.times[i1]
            assert np.max(np.abs(prop.M[i1] - t * np.eye(prop.order))) < 10 * t**3


# ---------------------------------------------------------------------------
# spherical fields


def test_spherical_field_round_sphere():
    _, profile, _ = _pipeline(sr.RoundSphere(4), [1, 0, 0, 0, 0], [0, 1, 0, 0, 0], 3.3)
    cert = sr.spherical_field(profile, 1e-6)
    assert cert is not None
    assert cert.deviation < 1e-12
    E = cert.field.components
    m = sr.RoundSphere(4)
    assert np.max(np.abs(m.inner(E, E) - 1.0)) < 1e-8


def test_spherical_field_cpn():
    m = sr.ComplexProjective(2)
    rng = np.random.default_rng(8)
    raw = rng.normal(size=6)
    z = sr.make_point(m, raw / np.linalg.norm(raw)).coordinates
    v = _unit(m, m.project_tangent(z, rng.normal(size=6)))
    _, profile, _ = _pipeline(m, z, v, 3.3)
    cert = sr.spherical_field(profile, 1e-6)
    assert cert is not None and cert.deviation < 1e-7


def test_spherical_field_absent_on_berger_horizontal():
    m = sr.normalize_to_bound(sr.BergerSphere(1.2), "upper")
    w = _unit(m, [0, 1, 0])
    _, profile, _ = _pipeline(m, [1, 0, 0, 0], w, 3.3)
    assert sr.spherical_field(profile, 1e-6) is None
    # oracle: the top eigenvector of K(t) rotates in the parallel frame
    vecs = np.linalg.eigh(profile.K)[1][..., -1]
    ref = vecs[0] / np.linalg.norm(vecs[0])
    align = np.abs(vecs @ ref)
    assert np.min(align) < 0.2  # far from constant


def test_spherical_field_certificate_implies_jacobi_residual():
    for model, p, v in [
        (sr.RoundSphere(3), [1, 0, 0, 0], [0, 1, 0, 0]),
        (sr.ComplexProjective(2), [1, 0, 0, 0, 0, 0], 0.5 * np.array([0, 1, 0, 0, 0, 0.0])),
    ]:
        _, profile, _ = _pipeline(model, p, v, 3.3)
        cert = sr.spherical_field(profile, 1e-6)
        c = cert.coefficients
        times = profile.times
        y = np.sin(times)[:, None] * c
        h = times[1] - times[0]
        n = len(times) - 2 if times[-1] - times[-2] < h * 0.999 else len(times) - 1
        interior = slice(1, n)
        second = (y[2 : n + 1] - 2 * y[interior] + y[0 : n - 1]) / h**2
        resid = second + np.einsum("tij,tj->ti", profile.K[interior], y[interior])
        assert np.max(np.abs(resid)) < 1e-6


def _single_witness(K):
    """The witness formula on one geodesic's K (T, k, k), as it was before it was stacked."""
    k = K.shape[-1]
    A = np.mean((K - np.eye(k)) @ (K - np.eye(k)), axis=0)
    c = np.linalg.eigh(A)[1][:, 0]
    resid = float(np.max(np.linalg.norm((K - np.eye(k)) @ c, axis=-1)))
    deviation = float(np.max(np.abs(np.einsum("i,tij,j->t", c, K, c) - 1.0)))
    return c, deviation, resid


@pytest.mark.parametrize(
    "model, hits",
    [(sr.RoundSphere(4), 12),
     (sr.normalize_to_bound(sr.ComplexProjective(2), "upper"), 12),
     (sr.normalize_to_bound(sr.ComplexProjective(2), "lower"), 12),
     (sr.normalize_to_bound(sr.BergerSphere(1.2), "upper"), 1),
     (sr.normalize_to_bound(sr.BergerSphere(0.6), "upper"), 0)],
    ids=["s4", "cp2-upper", "cp2-lower", "berger1.2-upper", "berger0.6-upper"],
)
def test_stacked_witness_is_bitwise_the_single_formula(model, hits):
    P, W = sr.GeodesicSampler(12, 3).states(model)
    K = analyzed_bundle(model, P, W, math.pi + 0.05, sr.model_step(model), frame=False)["K"]
    c, deviation, resid = jacobi_mod.spherical_witness(K)
    assert c.shape == (12, K.shape[-1]) and deviation.shape == resid.shape == (12,)
    for i in range(len(P)):
        want = _single_witness(K[:, i])
        assert np.array_equal(c[i], want[0])
        assert deviation[i] == want[1] and resid[i] == want[2]
    # on the upper Berger spheres most rows miss: all on Berger(0.6), all but the
    # fiber row on Berger(1.2)
    assert np.sum(resid <= rank_mod.DEFAULT_CERT_TOL) == hits
    one = jacobi_mod.spherical_witness(K[:, 0])
    assert one[0].shape == (K.shape[-1],) and np.ndim(one[1]) == np.ndim(one[2]) == 0
    assert np.array_equal(one[0], c[0]) and one[1:] == (deviation[0], resid[0])


def test_spherical_field_curvature_precondition():
    m = sr.BergerSphere(1.2)  # max curvature 1.44 > 1
    _, profile, _ = _pipeline(m, [1, 0, 0, 0], _unit(m, [0, 1, 0]), 2.0)
    with pytest.raises(sr.DomainError):
        sr.spherical_field(profile, 1e-6)


@pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1e-6])
def test_spherical_field_rejects_a_tol_that_is_not_finite_and_positive(tol):
    # a NaN tol turned off both checks, and the curvature 1.44 > 1 got a certificate
    m = sr.BergerSphere(1.2)
    _, profile, _ = _pipeline(m, [1, 0, 0, 0], _unit(m, [1, 0, 0]), 2.0, step=1e-2)
    with pytest.raises(sr.ParameterError, match="^tol must be finite and positive"):
        sr.spherical_field(profile, tol)


# ---------------------------------------------------------------------------
# comparison bound


def test_sturm_round_sphere_equality():
    m = sr.RoundSphere(3)
    _, profile, _ = _pipeline(m, [1, 0, 0, 0], [0, 1, 0, 0], 2.0)
    x0 = sr.Tangent(sr.Point(profile.trajectory.points[0]), profile.frame[0].components[0])
    res = sr.verify_sturm_bound(profile, x0, math.pi / 2)
    assert res.holds
    assert abs(res.margin) < 1e-7
    assert np.max(np.abs(res.norms - np.cos(res.times))) < 1e-7


def test_sturm_berger_normalized_holds():
    m = sr.normalize_to_bound(sr.BergerSphere(1.2), "upper")
    P, W = _random_geodesics(m, 10, 77)
    rng = np.random.default_rng(5)
    _, views = bundle_views(m, P, W, 2.0)
    for i, (profile, _) in enumerate(views):
        traj = profile.trajectory
        E0 = np.stack([f.components[0] for f in profile.frame])
        c = rng.normal(size=2)
        c /= np.linalg.norm(c)
        x0 = sr.Tangent(sr.Point(traj.points[0]), c @ E0)
        cp = np.array([-c[1], c[0]])
        xp0 = sr.Tangent(sr.Point(traj.points[0]), (0.5 * cp) @ E0) if i % 2 else None
        res = sr.verify_sturm_bound(profile, x0, math.pi / 2, xp0=xp0)
        assert res.holds
        # proof inequality |X|'' + |X| >= 0 via second differences
        h = res.times[1] - res.times[0]
        norms = res.norms
        good = norms[1:-1] > 1e-6
        second = (norms[2:] - 2 * norms[1:-1] + norms[:-2]) / h**2
        assert np.min((second + norms[1:-1])[good]) > -10 * h**2


def test_sturm_parameter_errors():
    m = sr.RoundSphere(3)
    _, profile, _ = _pipeline(m, [1, 0, 0, 0], [0, 1, 0, 0], 2.0)
    x0 = sr.Tangent(sr.Point(profile.trajectory.points[0]), profile.frame[0].components[0])
    with pytest.raises(sr.ParameterError):
        sr.verify_sturm_bound(profile, x0, math.pi)
    bad = sr.Tangent(sr.Point(profile.trajectory.points[0]), 0.5 * profile.frame[0].components[0])
    with pytest.raises(sr.DomainError):
        sr.verify_sturm_bound(profile, bad, 1.0)
    xp_bad = sr.Tangent(sr.Point(profile.trajectory.points[0]), profile.frame[0].components[0])
    with pytest.raises(sr.ParameterError):
        sr.verify_sturm_bound(profile, x0, 1.0, xp0=xp_bad)


def test_sturm_rejects_a_nan_horizon():
    # it failed later, in a min over no samples
    m = sr.RoundSphere(3)
    _, profile, _ = _pipeline(m, [1, 0, 0, 0], [0, 1, 0, 0], 2.0, step=1e-2)
    x0 = sr.Tangent(sr.Point(profile.trajectory.points[0]), profile.frame[0].components[0])
    with pytest.raises(sr.ParameterError, match="horizon"):
        sr.verify_sturm_bound(profile, x0, math.nan)


@pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1.0])
def test_sturm_rejects_a_tol_that_is_not_finite_and_positive(tol):
    # a NaN or negative tol answered holds=False, as if the bound had failed
    m = sr.RoundSphere(3)
    _, profile, _ = _pipeline(m, [1, 0, 0, 0], [0, 1, 0, 0], 2.0, step=1e-2)
    x0 = sr.Tangent(sr.Point(profile.trajectory.points[0]), profile.frame[0].components[0])
    assert sr.verify_sturm_bound(profile, x0, 1.0, tol=1e-7).holds
    with pytest.raises(sr.ParameterError, match="^tol must be finite and positive"):
        sr.verify_sturm_bound(profile, x0, 1.0, tol=tol)
