"""Invariants of the integration pipeline that the closed-form suites do not pin:
off-grid parallel transport, per-geodesic health numbers in bundle views,
bit-identical verdicts across chunk sizes, and the Berger kernels, matrix
products that agree with the np.cross formulas to rounding."""

import math

import numpy as np
import pytest

from bundle_views import bundle_views
import sphererank as sr
from sphererank import geodesics
from sphererank.geometry import ambient_from_body, pair_inner, quat_mul

SEED = 20240809
EPS = np.finfo(float).eps


def _flow(model, p, v, horizon):
    point = sr.make_point(model, p)
    state = sr.GeodesicState(point, sr.make_tangent(model, point, v))
    return sr.geodesic_flow(model, state, horizon, 1e-3)


# ---------------------------------------------------------------------------
# parallel transport with endpoints off the sample grid


@pytest.mark.parametrize(
    "t_from, t_to", [(0.00037, 2.70031), (2.70031, 0.00037), (0.1234567, 5.0)]
)
def test_transport_off_grid_on_round_sphere(t_from, t_to):
    # great circle in the x-z plane: e_y is parallel and gamma' is transported to gamma'
    traj = _flow(sr.RoundSphere(2), [1.0, 0.0, 0.0], [0.0, 0.0, 1.0], 5.0)
    start, end = traj.state_at(t_from), traj.state_at(t_to)
    e_y = sr.Tangent(start.point, np.array([0.0, 1.0, 0.0]))
    normal = sr.parallel_transport(traj, e_y, t_from, t_to)
    assert np.linalg.norm(normal.components - [0.0, 1.0, 0.0]) < 1e-10
    assert np.array_equal(normal.base.coordinates, end.point.coordinates)
    vel = sr.parallel_transport(traj, start.velocity, t_from, t_to)
    assert np.linalg.norm(vel.components - end.velocity.components) < 1e-10


def test_transport_off_grid_round_trip_on_berger():
    model = sr.BergerSphere(0.8)
    w0 = np.array([0.3, 0.7, -0.2])
    traj = _flow(model, [1.0, 0.0, 0.0, 0.0], w0 / math.sqrt(float(model.inner(w0, w0))), 3.0)
    a, b = 0.00041, 2.9997
    u = sr.Tangent(traj.state_at(a).point, np.array([0.2, -0.5, 0.9]))
    there = sr.parallel_transport(traj, u, a, b)
    back = sr.parallel_transport(traj, there, b, a)
    assert np.linalg.norm(back.components - u.components) < 1e-10
    norm2 = float(model.inner(u.components, u.components))
    assert abs(float(model.inner(there.components, there.components)) - norm2) < 1e-10


# ---------------------------------------------------------------------------
# bundle views


def test_bundle_views_report_symmetry_defect():
    model = sr.ComplexProjective(2)
    P, W = sr.GeodesicSampler(3, SEED).states(model)
    bundle, views = bundle_views(model, P, W, 1.0)
    vb = bundle["V"][..., None, :]
    raw = pair_inner(model, model.curvature(bundle["E"], vb, vb), bundle["E"])
    expected = np.max(np.abs(raw - np.swapaxes(raw, -1, -2)), axis=(0, 2, 3))
    assert np.all(expected > 0)  # rounding leaves K slightly asymmetric
    for (profile, _), defect in zip(views, expected):
        assert profile.symmetry_defect == defect


# ---------------------------------------------------------------------------
# chunking


def _digest(verdict):
    return (
        verdict.holds,
        verdict.worst_case,
        verdict.detail,
        [
            (
                e.index,
                [(ev.time, ev.multiplicity) for ev in e.events],
                e.certificate_deviation,
                e.weak_deviation,
            )
            for e in verdict.evidence
        ],
    )


def test_results_bit_identical_across_chunk_sizes():
    sampler = sr.GeodesicSampler(5, SEED)
    berger = sr.normalize_to_bound(sr.BergerSphere(1.2), "upper")
    checks = [
        lambda chunk: sr.check_positive_spherical_rank(
            sr.ComplexProjective(2), sampler, chunk=chunk
        ),
        lambda chunk: sr.check_positive_spherical_rank(berger, sampler, chunk=chunk),
        lambda chunk: sr.check_weak_spherical_rank(
            berger, "upper", sampler, method="witness", chunk=chunk
        ),
    ]
    for check in checks:
        assert _digest(check(2)) == _digest(check(5))


# ---------------------------------------------------------------------------
# Berger matrix kernels against the np.cross formulas


def _unit_quaternions(rng, shape):
    q = rng.normal(size=shape + (4,))
    return q / np.linalg.norm(q, axis=-1, keepdims=True)


def _close_to(got, want):
    """Equal up to rounding: within 8 ulps of the largest reference entry."""
    return np.all(np.abs(got - want) <= 8 * EPS * np.abs(want).max())


def test_berger_rhs_equal_np_cross_formulas():
    rng = np.random.default_rng(SEED)
    model = sr.BergerSphere(1.2)
    g = model.metric_weights
    x, v = _unit_quaternions(rng, (64,)), rng.normal(size=(64, 3))
    dx, dv = model.state_rhs(x, v)
    assert _close_to(dx, ambient_from_body(x, v))
    assert _close_to(dv, 2.0 * np.cross(g * v, v) / g)
    # what the formulas do not pin: the Euler term leaves the Hopf component
    # alone, dx is tangent to the unit sphere and the flow keeps the speed
    assert np.all(dv[..., 0] == 0)
    assert np.all(np.abs(np.vecdot(x, dx)) <= 8 * EPS * np.linalg.norm(dx, axis=-1))
    assert np.all(np.abs(model.inner(v, dv)) <= 8 * EPS * model.inner(np.abs(v), np.abs(dv)))

    scaled = sr.Scaled(sr.BergerSphere(0.5), 1.7)
    g = scaled.base.metric_weights
    x, v = _unit_quaternions(rng, (64, 1)), rng.normal(size=(64, 1, 3))
    w = rng.normal(size=(64, 2, 3))
    want = -np.cross(v, w) + (np.cross(g * w, v) + np.cross(g * v, w)) / g
    assert _close_to(scaled.transport_rhs(w, x, v), want)


@pytest.mark.parametrize("shape", [(64,), ()])
def test_ambient_from_body_is_product_with_pure_quaternion(shape):
    rng = np.random.default_rng(SEED)
    q, w = _unit_quaternions(rng, shape), rng.normal(size=shape + (3,))
    pure = np.concatenate([np.zeros(shape + (1,)), w], axis=-1)
    assert np.array_equal(ambient_from_body(q, w), quat_mul(q, pure))


@pytest.mark.parametrize(
    "model",
    [sr.normalize_to_bound(sr.BergerSphere(1.2), "upper"), sr.BergerSphere(0.5)],
    ids=["berger1.2-upper", "berger0.5"],
)
def test_batch_of_one_equals_bundle_row(model):
    P, W = sr.GeodesicSampler(8, SEED).states(model)
    times = geodesics.time_grid(1.0, 1e-3)

    def flow_and_frame(p, w):
        X, V = geodesics.flow_arrays(model, p, w, times)
        Xm, Vm = geodesics.hermite_midpoints(model, times, X, V)
        return X, V, geodesics.frame_arrays(model, times, X, V, Xm, Vm)

    bundle = flow_and_frame(P, W)
    single = flow_and_frame(P[5], W[5])
    for one, many in zip(single, bundle):
        assert one.ndim == many.ndim - 1
        assert np.array_equal(one, many[:, 5])
