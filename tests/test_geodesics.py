import math

import numpy as np
import pytest

import closed_forms as cf
import sphererank as sr
from sphererank import geodesics as geodesics_mod
from sphererank.geodesics import (
    UNIT_STEP,
    _rk4,
    flow_arrays,
    hermite_midpoints,
    initial_normal_frame,
    time_grid,
    transport_arrays,
)
from sphererank.geometry import jmul, pair_inner


def _state(model, p, v):
    point = sr.make_point(model, p)
    return sr.GeodesicState(point, sr.make_tangent(model, point, v))


def _unit(model, p, v):
    v = np.asarray(v, dtype=float)
    return v / math.sqrt(float(model.inner(v, v)))


def test_time_grid():
    ts = sr.time_grid(1.0, 0.25)
    assert np.allclose(ts, [0, 0.25, 0.5, 0.75, 1.0])
    ts = sr.time_grid(1.0, 0.3)
    assert ts[-1] == 1.0 and len(ts) == 5
    with pytest.raises(sr.ParameterError):
        sr.time_grid(-1.0, 0.1)
    with pytest.raises(sr.ParameterError):
        sr.time_grid(0.5, 0.6)
    for horizon, step in ((math.nan, 1e-3), (math.inf, 1e-3), (1.0, math.nan), (1.0, math.inf),
                          (1.0, True)):
        with pytest.raises(sr.ParameterError):
            sr.time_grid(horizon, step)
    m = sr.RoundSphere(2)
    with pytest.raises(sr.ParameterError):
        sr.geodesic_flow(m, _state(m, [0, 0, 1], [1, 0, 0]), 1.0, math.nan)


@pytest.mark.parametrize(
    "model, step",
    [
        (sr.RoundSphere(5), UNIT_STEP),
        (sr.ComplexProjective(2), UNIT_STEP),  # sec in [1/4, 1]
        (sr.normalize_to_bound(sr.BergerSphere(0.5), "lower"), UNIT_STEP / math.sqrt(13)),
        (sr.BergerSphere(2.0), UNIT_STEP / math.sqrt(8)),  # sec in [-8, 4]
        (sr.Scaled(sr.RoundSphere(3), 0.1), UNIT_STEP / 10),
    ],
    ids=["S5", "CP2", "berger0.5-lower", "berger2", "scaled0.1"],
)
def test_model_step_is_the_unit_step_over_the_root_of_the_curvature_scale(model, step):
    assert sr.model_step(model) == pytest.approx(step, rel=1e-14)


def test_default_step_is_the_model_step():
    m = sr.BergerSphere(0.5)  # sec up to 13/4
    initial = _state(m, [1, 0, 0, 0], _unit(m, [1, 0, 0, 0], [0.3, 1.0, -0.2]))
    default = sr.geodesic_flow(m, initial, 1.0)
    explicit = sr.geodesic_flow(m, initial, 1.0, sr.model_step(m))
    assert default.step == sr.model_step(m) < UNIT_STEP
    assert np.array_equal(default.times, explicit.times)
    assert np.array_equal(default.points, explicit.points)
    assert np.array_equal(default.velocities, explicit.velocities)
    v = sr.Tangent(initial.point, 2.5 * initial.velocity.components)
    assert np.array_equal(sr.exp_map(m, initial.point, v).coordinates,
                          sr.exp_map(m, initial.point, v, sr.model_step(m)).coordinates)


def test_round_sphere_antipode():
    m = sr.RoundSphere(2)
    traj = sr.geodesic_flow(m, _state(m, [0, 0, 1], [1, 0, 0]), math.pi, 1e-3)
    assert np.linalg.norm(traj.points[-1] - np.array([0, 0, -1.0])) < 1e-8
    assert traj.unit_speed


def test_round_oracle_over_full_circle():
    m = sr.RoundSphere(3)
    p = np.array([0.5, 0.5, 0.5, 0.5])
    v = _unit(m, p, m.project_tangent(p, np.array([1.0, -0.3, 0.2, 0.1])))
    traj = sr.geodesic_flow(m, _state(m, p, v), 2 * math.pi, 1e-3)
    exact = cf.great_circle(p, v, traj.times)
    assert np.max(np.linalg.norm(traj.points - exact, axis=-1)) < 1e-8


def test_hopf_fiber_closes():
    for eta in (0.5, 0.8, 1.2):
        m = sr.BergerSphere(eta)
        traj = sr.geodesic_flow(
            m, _state(m, [1, 0, 0, 0], [1 / eta, 0, 0]), 2 * math.pi * eta, 1e-3
        )
        assert np.linalg.norm(traj.points[-1] - traj.points[0]) < 1e-6


def test_berger_closed_form_oracle():
    eta = 1.3
    m = sr.BergerSphere(eta)
    w0 = _unit(m, None, [0.3, 0.7, -0.2])
    traj = sr.geodesic_flow(m, _state(m, [1, 0, 0, 0], w0), 2.5, 1e-3)
    for i in (500, 1700, len(traj.times) - 1):
        exact = cf.berger_geodesic(eta, [1, 0, 0, 0], w0, traj.times[i])
        assert np.linalg.norm(traj.points[i] - exact) < 1e-9


def test_berger_eta_one_reduces_to_round_sphere():
    mb = sr.BergerSphere(1.0)
    m3 = sr.RoundSphere(3)
    q0 = np.array([1.0, 0, 0, 0])
    w0 = _unit(mb, None, [0.4, -0.2, 0.5])
    tb = sr.geodesic_flow(mb, _state(mb, q0, w0), 2 * math.pi, 1e-3)
    # ambient image of the same initial data on the round 3-sphere
    from sphererank.geometry import ambient_from_body

    v_amb = ambient_from_body(q0, w0)
    tr = sr.geodesic_flow(m3, _state(m3, q0, v_amb), 2 * math.pi, 1e-3)
    assert np.max(np.linalg.norm(tb.points - tr.points, axis=-1)) < 1e-8


def test_cpn_geodesic_matches_lift_oracle():
    m = sr.ComplexProjective(2)
    rng = np.random.default_rng(4)
    raw = rng.normal(size=6)
    z = sr.make_point(m, raw / np.linalg.norm(raw)).coordinates
    v = _unit(m, z, m.project_tangent(z, rng.normal(size=6)))
    traj = sr.geodesic_flow(m, _state(m, z, v), 2 * math.pi, 1e-3)
    errs = [
        np.linalg.norm(traj.points[i] - cf.cpn_geodesic(z, v, traj.times[i]))
        for i in range(0, len(traj.times), 700)
    ]
    assert max(errs) < 1e-8


def test_speed_conservation_fuzz():
    rng = np.random.default_rng(123)
    for model in (sr.RoundSphere(4), sr.BergerSphere(1.2), sr.ComplexProjective(2)):
        sampler = sr.GeodesicSampler(8, 42, "uniform")
        P, W = sampler.states(model)
        for i in range(4):
            traj = sr.geodesic_flow(
                model, sr.GeodesicState(sr.Point(P[i]), sr.Tangent(sr.Point(P[i]), W[i])), 2 * math.pi, 1e-3
            )
            assert np.max(np.abs(traj.speeds() - 1.0)) < 1e-8
            assert np.max(np.abs(np.linalg.norm(traj.points, axis=-1) - 1.0)) < 1e-12


def test_scaling_law():
    lam = 1.7
    base = sr.BergerSphere(0.9)
    scaled = sr.Scaled(base, lam)
    w = np.array([0.5, -0.3, 0.8])
    tb = sr.geodesic_flow(base, _state(base, [1, 0, 0, 0], _unit(base, None, w)), 2.0, 1e-3)
    ts = sr.geodesic_flow(scaled, _state(scaled, [1, 0, 0, 0], _unit(scaled, None, w)), 2.0 * lam, 1e-3)
    # unit-speed curve of the scaled metric at arc length lam*t matches the base at t
    for t in (0.5, 1.2, 2.0):
        a = tb.state_at(t).point.coordinates
        b = ts.state_at(lam * t).point.coordinates
        assert np.linalg.norm(a - b) < 1e-7


def test_reversibility():
    m = sr.ComplexProjective(2)
    rng = np.random.default_rng(9)
    raw = rng.normal(size=6)
    z = sr.make_point(m, raw / np.linalg.norm(raw)).coordinates
    v = _unit(m, z, m.project_tangent(z, rng.normal(size=6)))
    fwd = sr.geodesic_flow(m, _state(m, z, v), 1.5, 1e-3)
    back_state = sr.GeodesicState(
        sr.Point(fwd.points[-1]), sr.Tangent(sr.Point(fwd.points[-1]), -fwd.velocities[-1])
    )
    back = sr.geodesic_flow(m, back_state, 1.5, 1e-3)
    assert np.linalg.norm(back.points[-1] - z) < 1e-7
    assert np.linalg.norm(back.velocities[-1] + v) < 1e-7


def test_exp_map_cases():
    m = sr.RoundSphere(3)
    p = sr.make_point(m, [1, 0, 0, 0])
    assert sr.exp_map(m, p, sr.make_tangent(m, p, [0, 0, 0, 0])) is p
    e = sr.exp_map(m, p, sr.make_tangent(m, p, [0, 2 * math.pi, 0, 0]))
    assert np.linalg.norm(e.coordinates - p.coordinates) < 1e-7

    mc = sr.ComplexProjective(2)
    z = sr.make_point(mc, [1, 0, 0, 0, 0, 0])
    u = mc.project_tangent(z.coordinates, np.array([0, 1.0, 0, 0, 0, 0]))
    u = _unit(mc, z.coordinates, u)
    e2 = sr.exp_map(mc, z, sr.Tangent(z, 2 * math.pi * u))
    assert sr.point_distance(mc, e2.coordinates, z.coordinates) < 1e-6


def test_transport_examples():
    m = sr.RoundSphere(2)
    traj = sr.geodesic_flow(m, _state(m, [0, 0, 1], [1, 0, 0]), 2 * math.pi, 1e-3)
    # the velocity transports onto itself
    v0 = sr.Tangent(sr.Point(traj.points[0]), traj.velocities[0])
    out = sr.parallel_transport(traj, v0, 0.0, 2.5)
    assert np.linalg.norm(out.components - traj.state_at(2.5).velocity.components) < 1e-8
    # the unit normal returns to itself around the great circle
    n0 = sr.make_tangent(m, sr.Point(traj.points[0]), [0, 1, 0])
    n1 = sr.parallel_transport(traj, n0, 0.0, 2 * math.pi)
    assert np.linalg.norm(n1.components - n0.components) < 1e-7


def test_transport_isometry_vs_halved_step():
    eta = 0.8
    m = sr.BergerSphere(eta)
    w0 = _unit(m, None, [0.2, 0.9, -0.1])
    rng = np.random.default_rng(21)
    vec = rng.normal(size=3)
    outs = []
    for step in (1e-3, 5e-4):
        traj = sr.geodesic_flow(m, _state(m, [1, 0, 0, 0], w0), 2 * math.pi, step)
        v0 = sr.Tangent(sr.Point(traj.points[0]), vec)
        out = sr.parallel_transport(traj, v0, 0.0, 2 * math.pi)
        outs.append(out.components)
        n_in = math.sqrt(float(m.inner(vec, vec)))
        n_out = math.sqrt(float(m.inner(out.components, out.components)))
        assert abs(n_out - n_in) < 1e-7
    assert np.linalg.norm(outs[0] - outs[1]) < 1e-7


def test_transport_domain_errors():
    m = sr.RoundSphere(2)
    traj = sr.geodesic_flow(m, _state(m, [0, 0, 1], [1, 0, 0]), 1.0, 1e-3)
    v0 = sr.Tangent(sr.Point(traj.points[0]), traj.velocities[0])
    with pytest.raises(sr.ParameterError):
        sr.parallel_transport(traj, v0, 0.0, 2.0)
    wrong = sr.make_tangent(m, sr.make_point(m, [0, 1, 0]), [1, 0, 0])
    with pytest.raises(sr.DomainError):
        sr.parallel_transport(traj, wrong, 0.0, 0.5)


def test_normal_frame_round2_is_rotating_normal():
    m = sr.RoundSphere(2)
    p = np.array([0.0, 0.0, 1.0])
    v = np.array([1.0, 0.0, 0.0])
    traj = sr.geodesic_flow(m, _state(m, p, v), 2 * math.pi, 1e-3)
    frame = sr.normal_frame(traj)
    assert len(frame) == 1
    normal = np.cross(traj.points, traj.velocities)
    sign = np.sign(normal[0] @ frame[0].components[0])
    assert np.max(np.linalg.norm(frame[0].components - sign * normal, axis=-1)) < 1e-7


def _row_by_row_frame(model, X, V):
    """The initial frame's Gram-Schmidt one row at a time, as it was before the
    rows ran in lockstep."""
    k = model.dim - 1
    cands = model.tangent_basis(X)
    out = np.empty((len(X), k, model.tangent_dim))
    for b in range(len(X)):
        basis = [V[b] / np.sqrt(float(model.inner(V[b], V[b])))]
        for m in range(cands.shape[-2]):
            w = np.array(cands[b, m], dtype=float)
            for e in basis:
                w = w - float(model.inner(w, e)) * e
            nrm = np.sqrt(float(model.inner(w, w)))
            if nrm > 1e-8:
                basis.append(w / nrm)
            if len(basis) == k + 1:
                break
        out[b] = np.stack(basis[1:])
    return out


@pytest.mark.parametrize(
    "model",
    [sr.RoundSphere(2), sr.RoundSphere(5), sr.ComplexProjective(2), sr.ComplexProjective(3),
     sr.BergerSphere(1.2), sr.Scaled(sr.BergerSphere(0.5), 1.3),
     sr.Scaled(sr.ComplexProjective(2), 0.7)],
    ids=["s2", "s5", "cp2", "cp3", "berger1.2", "berger0.5-scaled", "cp2-scaled"],
)
def test_lockstep_initial_frame_is_bitwise_row_by_row(model):
    for stratification in ("uniform", "include-special"):
        X, V = sr.GeodesicSampler(16, 11, stratification).states(model)
        got = initial_normal_frame(model, X, V)
        assert np.array_equal(got, _row_by_row_frame(model, X, V))
        assert np.array_equal(initial_normal_frame(model, X[1], V[1]), got[1])


def test_lockstep_initial_frame_skips_a_candidate_along_the_velocity():
    # at the north pole of S^2 the first candidate e_0 is the velocity itself
    m = sr.RoundSphere(2)
    X, V = np.array([[0.0, 0.0, 1.0], [0.6, 0.0, 0.8]]), np.array([[1.0, 0.0, 0.0], [0, 1.0, 0]])
    got = initial_normal_frame(m, X, V)
    assert np.array_equal(got, _row_by_row_frame(m, X, V))
    assert np.array_equal(got[0], [[0.0, 1.0, 0.0]])
    assert np.array_equal(initial_normal_frame(m, X[0], V[0]), got[0])


class _StarvedSphere(sr.RoundSphere):
    """S^n whose second row gets no candidates for the frame (all are zero)."""

    def tangent_basis(self, p):
        cands = super().tangent_basis(p).copy()
        cands[1] = 0.0
        return cands


def test_lockstep_initial_frame_rejects_a_row_left_short():
    m = _StarvedSphere(2)
    X, V = sr.GeodesicSampler(3, 11).states(m)
    with pytest.raises(sr.DomainError, match="could not complete a normal frame"):
        initial_normal_frame(m, X, V)


def test_normal_frame_orthonormality_and_eta_one_reduction():
    mb = sr.BergerSphere(1.2)
    w0 = _unit(mb, None, [0.3, 0.5, 0.7])
    traj = sr.geodesic_flow(mb, _state(mb, [1, 0, 0, 0], w0), 2 * math.pi, 1e-3)
    frame = sr.normal_frame(traj)
    E = np.stack([f.components for f in frame], axis=1)
    gram = pair_inner(mb, E, E)
    assert np.max(np.abs(gram - np.eye(2))) < 1e-8
    vdot = pair_inner(mb, E, traj.velocities[:, None, :])
    assert np.max(np.abs(vdot)) < 1e-8

    # halved-step self-check
    traj2 = sr.geodesic_flow(mb, _state(mb, [1, 0, 0, 0], w0), 2 * math.pi, 5e-4)
    frame2 = sr.normal_frame(traj2)
    assert np.max(np.abs(frame[0].components[-1] - frame2[0].components[-1])) < 1e-8

    # eta = 1: body components agree with the ambient round-sphere frame
    m1 = sr.BergerSphere(1.0)
    m3 = sr.RoundSphere(3)
    w1 = _unit(m1, None, [0.4, -0.2, 0.5])
    t1 = sr.geodesic_flow(m1, _state(m1, [1, 0, 0, 0], w1), 3.0, 1e-3)
    f1 = sr.normal_frame(t1)
    from sphererank.geometry import ambient_from_body, body_components

    v_amb = ambient_from_body(np.array([1.0, 0, 0, 0]), w1)
    t3 = sr.geodesic_flow(m3, _state(m3, [1, 0, 0, 0], v_amb), 3.0, 1e-3)
    f3 = sr.normal_frame(t3)
    for a in range(2):
        body = body_components(t3.points, f3[a].components)
        assert np.max(np.linalg.norm(body - f1[a].components, axis=-1)) < 1e-7


def test_state_at_interpolation():
    m = sr.RoundSphere(3)
    p = np.array([1.0, 0, 0, 0])
    v = np.array([0.0, 1.0, 0, 0])
    traj = sr.geodesic_flow(m, _state(m, p, v), 2.0, 1e-3)
    t = 1.23456
    st = traj.state_at(t)
    assert np.linalg.norm(st.point.coordinates - cf.great_circle(p, v, t)) < 1e-10
    with pytest.raises(sr.ParameterError):
        traj.state_at(5.0)


@pytest.mark.parametrize(
    "ask",
    [lambda traj, v0: traj.state_at(math.nan),
     lambda traj, v0: sr.parallel_transport(traj, v0, math.nan, 1.0),
     lambda traj, v0: sr.parallel_transport(traj, v0, 0.0, math.nan)],
    ids=["state_at", "transport-from", "transport-to"],
)
def test_a_nan_time_is_outside_the_trajectory_domain(ask):
    # both comparisons of a NaN with the domain's ends are False: it gave NaN states
    m = sr.RoundSphere(2)
    traj = sr.geodesic_flow(m, _state(m, [0, 0, 1], [1, 0, 0]), 2.0, 1e-3)
    v0 = sr.Tangent(sr.Point(traj.points[0]), traj.velocities[0])
    with pytest.raises(sr.ParameterError, match="domain"):
        ask(traj, v0)


def test_flow_parameter_errors():
    m = sr.RoundSphere(2)
    st = _state(m, [0, 0, 1], [1, 0, 0])
    with pytest.raises(sr.ParameterError):
        sr.geodesic_flow(m, st, -1.0, 1e-3)
    with pytest.raises(sr.ParameterError):
        sr.geodesic_flow(m, st, 1.0, 0.0)


# ---------------------------------------------------------------------------
# transport coefficients computed once per grid


def _old_transport_rhs(model, w, x, v):
    """The transport derivatives as written before ``transport_coeffs``."""
    core, _ = sr.unwrap(model)
    if isinstance(core, sr.BergerSphere):
        g = core.metric_weights
        return -np.cross(v, w) + (np.cross(g * w, v) + np.cross(g * v, w)) / g
    return -np.vecdot(w, v)[..., None] * x - np.vecdot(w, jmul(v))[..., None] * jmul(x)


@pytest.mark.parametrize(
    "model",
    [sr.ComplexProjective(2), sr.Scaled(sr.ComplexProjective(3), 1.3), sr.BergerSphere(0.5),
     sr.Scaled(sr.BergerSphere(1.2), 0.8)],
    ids=["cp2", "cp3-scaled", "berger0.5", "berger1.2-scaled"],
)
def test_transport_coeffs_are_bitwise_the_old_formulas(model):
    P, W = sr.GeodesicSampler(8, 11).states(model)
    times = time_grid(0.5, 1e-3)
    X, V = flow_arrays(model, P, W, times)
    Xm, Vm = hermite_midpoints(model, times, X, V)
    E0 = initial_normal_frame(model, X[0], V[0])
    got = transport_arrays(model, times, X, V, Xm, Vm, E0)
    (want,) = _rk4(
        lambda x, v, w: (_old_transport_rhs(model, w, x, v),),
        (E0,),
        times,
        nodes=(X[..., None, :], V[..., None, :]),
        mids=(Xm[..., None, :], Vm[..., None, :]),
        project=lambda x, v, w: (model.project_tangent(x, w),),
    )
    if isinstance(sr.unwrap(model)[0], sr.BergerSphere):
        # the Berger derivative is a matrix product, which sums in another order
        assert np.all(np.abs(got - want) <= 8 * np.finfo(float).eps * np.abs(want).max())
    else:
        assert np.array_equal(got, want)


@pytest.mark.parametrize(
    "model", [sr.BergerSphere(0.5), sr.ComplexProjective(2)], ids=["berger0.5", "cp2"]
)
def test_hermite_midpoints_are_the_same_bits_in_blocks(model, monkeypatch):
    P, W = sr.GeodesicSampler(5, 11).states(model)
    times = time_grid(0.5 + 0.3e-2, 1e-2)  # 50 full intervals and a ragged one
    X, V = flow_arrays(model, P, W, times)
    whole = hermite_midpoints(model, times, X, V)
    monkeypatch.setattr(geodesics_mod, "PROFILE_BLOCK", 3)
    for got, want in zip(hermite_midpoints(model, times, X, V), whole):
        assert np.array_equal(got, want)
