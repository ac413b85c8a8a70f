import math

import numpy as np
import pytest

import fd_oracle as fd
import sphererank as sr
from sphererank.geometry import jmul, pair_inner


def _berger_point(model, q=(1.0, 0.0, 0.0, 0.0)):
    return sr.make_point(model, q)


def test_metric_examples():
    m = sr.BergerSphere(0.5)
    p = _berger_point(m)
    i = sr.make_tangent(m, p, [1, 0, 0])
    assert sr.metric_inner(m, i, i) == pytest.approx(0.25, abs=1e-15)

    r2 = sr.RoundSphere(2)
    q = sr.make_point(r2, [0, 0, 1])
    u = sr.make_tangent(r2, q, [1, 0, 0])
    assert sr.metric_inner(r2, u, u) == pytest.approx(1.0, abs=1e-15)

    s = sr.Scaled(r2, 2.0)
    us = sr.make_tangent(s, q, [1, 0, 0])
    assert sr.metric_inner(s, us, us) == pytest.approx(4.0, abs=1e-14)


def test_metric_errors():
    m = sr.RoundSphere(2)
    p = sr.make_point(m, [0, 0, 1])
    q = sr.make_point(m, [0, 1, 0])
    u = sr.make_tangent(m, p, [1, 0, 0])
    v = sr.make_tangent(m, q, [1, 0, 0])
    with pytest.raises(sr.DomainError):
        sr.metric_inner(m, u, v)
    with pytest.raises(sr.DomainError):
        sr.make_point(m, [0, 0, 1.001])
    with pytest.raises(sr.DomainError):
        sr.make_tangent(m, p, [0, 0, 0.5])


def test_round_curvature_operator_formula():
    m = sr.RoundSphere(3)
    p = sr.make_point(m, [1, 0, 0, 0])
    x = sr.make_tangent(m, p, [0, 1, 0, 0])
    y = sr.make_tangent(m, p, [0, 0, 1, 0])
    out = sr.curvature_operator(m, x, y, y)
    assert np.allclose(out.components, x.components, atol=1e-15)


def test_berger_jkk_value():
    eta = 0.8
    m = sr.BergerSphere(eta)
    p = _berger_point(m)
    j = sr.make_tangent(m, p, [0, 1, 0])
    k = sr.make_tangent(m, p, [0, 0, 1])
    out = sr.curvature_operator(m, j, k, k)
    assert sr.metric_inner(m, out, j) == pytest.approx(4 - 3 * eta**2, abs=1e-12)


def test_scaled_curvature_operator_and_sec():
    base = sr.BergerSphere(0.7)
    scaled = sr.Scaled(base, 1.7)
    p = _berger_point(base)
    rng = np.random.default_rng(3)
    for _ in range(5):
        a, b, c = rng.normal(size=(3, 3))
        out_b = sr.curvature_operator(base, sr.Tangent(p, a), sr.Tangent(p, b), sr.Tangent(p, c))
        out_s = sr.curvature_operator(scaled, sr.Tangent(p, a), sr.Tangent(p, b), sr.Tangent(p, c))
        assert np.allclose(out_b.components, out_s.components, atol=1e-14)
        sec_b = sr.sectional_curvature(base, sr.Tangent(p, a), sr.Tangent(p, b))
        sec_s = sr.sectional_curvature(scaled, sr.Tangent(p, a), sr.Tangent(p, b))
        assert sec_s == pytest.approx(sec_b / 1.7**2, rel=1e-12)


def test_berger_sectional_examples():
    m = sr.BergerSphere(0.8)
    p = _berger_point(m)
    i = sr.make_tangent(m, p, [1, 0, 0])
    j = sr.make_tangent(m, p, [0, 1, 0])
    k = sr.make_tangent(m, p, [0, 0, 1])
    assert sr.sectional_curvature(m, i, j) == pytest.approx(0.64, abs=1e-12)
    assert sr.sectional_curvature(m, j, k) == pytest.approx(2.08, abs=1e-12)


def test_berger_planes_through_hopf_direction():
    # every plane containing the i-direction has curvature eta^2
    for eta in (0.6, 1.0, 1.25):
        m = sr.BergerSphere(eta)
        rng = np.random.default_rng(11)
        p = _berger_point(m)
        i = sr.make_tangent(m, p, [1, 0, 0])
        for _ in range(20):
            w = rng.normal(size=3)
            sec = sr.sectional_curvature(m, i, sr.Tangent(p, w))
            assert sec == pytest.approx(eta**2, abs=1e-9)


def test_cpn_sectional_values_and_fd_cross_check():
    m = sr.ComplexProjective(2)
    z = sr.make_point(m, [1, 0, 0, 0, 0, 0])
    u = sr.Tangent(z, 0.5 * np.array([0, 1, 0, 0, 0, 0.0]))
    ju = sr.Tangent(z, jmul(u.components))
    w = sr.Tangent(z, 0.5 * np.array([0, 0, 1, 0, 0, 0.0]))
    assert sr.sectional_curvature(m, u, ju) == pytest.approx(1.0, abs=1e-12)
    assert sr.sectional_curvature(m, u, w) == pytest.approx(0.25, abs=1e-12)

    # independent route: finite differences on the submersion chart metric
    embed, frame, metric = fd.cpn_chart(2)
    x = np.array([0.1, -0.2, 0.15, 0.05])
    rng = np.random.default_rng(5)
    for _ in range(3):
        a, b = rng.normal(size=(2, 4))
        sec_fd = fd.sectional(metric, x, a, b, 2e-2)
        zc = embed(x)
        F = frame(x)
        mm = len(zc) // 2
        lead = (zc[:mm] + 1j * zc[mm:])[np.argmax(np.abs(zc[:mm] + 1j * zc[mm:]))]
        phase = lead / abs(lead)

        def rot(sv):
            c = (sv[:mm] + 1j * sv[mm:]) / phase
            return np.concatenate([c.real, c.imag])

        q = sr.make_point(m, rot(zc))
        sec_cf = sr.sectional_curvature(m, sr.Tangent(q, rot(F @ a)), sr.Tangent(q, rot(F @ b)))
        assert sec_fd == pytest.approx(sec_cf, abs=1e-4)


def test_berger_curvature_vs_finite_differences():
    eta = 1.3
    m = sr.BergerSphere(eta)
    embed, cols, metric = fd.berger_chart(eta)
    rng = np.random.default_rng(0)
    for _ in range(4):
        x = rng.normal(size=3) * 0.3
        a, b = rng.normal(size=(2, 3))
        sec_fd = fd.sectional(metric, x, a, b, 2e-2)
        q = sr.make_point(m, embed(x))
        C = cols(x)
        sec_cf = sr.sectional_curvature(m, sr.Tangent(q, C @ a), sr.Tangent(q, C @ b))
        assert sec_fd == pytest.approx(sec_cf, abs=1e-4)


def test_degenerate_plane_error():
    m = sr.RoundSphere(2)
    p = sr.make_point(m, [0, 0, 1])
    u = sr.make_tangent(m, p, [1, 0, 0])
    with pytest.raises(sr.DegeneratePlaneError):
        sr.sectional_curvature(m, u, sr.Tangent(p, 2.0 * u.components))


def _random_tangents(model, count, seed):
    from sphererank.geometry import (
        gaussians_from_uniforms,
        points_from_uniforms,
        sobol_uniforms,
    )

    dp, dt = model.point_dim, model.tangent_dim
    u = sobol_uniforms(dp + 3 * dt, count, seed)
    P = points_from_uniforms(model, u[:, :dp])
    g = gaussians_from_uniforms(u[:, dp:])
    vs = [model.project_tangent(P, g[:, i * dt : (i + 1) * dt]) for i in range(3)]
    return P, vs


ALL_MODELS = [
    sr.RoundSphere(2),
    sr.RoundSphere(4),
    sr.BergerSphere(0.8),
    sr.BergerSphere(1.2),
    sr.ComplexProjective(2),
    sr.Scaled(sr.BergerSphere(1.1), 1.3),
]


@pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: repr(m))
def test_metric_positive_definite_on_random_pairs(model):
    P, (a, b, _) = _random_tangents(model, 1000, 99)
    g11 = model.inner(a, a)
    g22 = model.inner(b, b)
    g12 = model.inner(a, b)
    # 2x2 Gram eigenvalues: both positive wherever the pair is independent
    tr = g11 + g22
    det = g11 * g22 - g12**2
    lam_min = 0.5 * (tr - np.sqrt(np.maximum(tr**2 - 4 * det, 0.0)))
    keep = det > 1e-12 * np.maximum(g11 * g22, 1e-30)
    assert np.all(lam_min[keep] > 0)
    assert np.allclose(g12, model.inner(b, a), atol=1e-12)


@pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: repr(m))
def test_curvature_symmetries(model):
    from sphererank.geometry import gaussians_from_uniforms, sobol_uniforms

    P, (x, y, z) = _random_tangents(model, 200, 17)
    w = model.project_tangent(P, gaussians_from_uniforms(sobol_uniforms(model.tangent_dim, 200, 5)))
    Rxyz = model.curvature(x, y, z)
    # antisymmetry in the first slots
    assert np.max(np.abs(Rxyz + model.curvature(y, x, z))) < 1e-9
    # pair symmetry <R(x,y)z, w> = <R(z,w)x, y>
    lhs = model.inner(Rxyz, w)
    rhs = model.inner(model.curvature(z, w, x), y)
    assert np.max(np.abs(lhs - rhs)) < 1e-9
    # first Bianchi identity
    bianchi = Rxyz + model.curvature(y, z, x) + model.curvature(z, x, y)
    assert np.max(np.abs(bianchi)) < 1e-9


def test_scan_examples():
    scan = sr.curvature_scan(sr.BergerSphere(1.2), 10000, 42)
    assert scan.minimum == pytest.approx(-0.32, abs=1e-3)
    assert scan.maximum == pytest.approx(1.44, abs=1e-3)

    scan = sr.curvature_scan(sr.RoundSphere(4), 3000, 1)
    assert scan.minimum == pytest.approx(1.0, abs=1e-10)
    assert scan.maximum == pytest.approx(1.0, abs=1e-10)

    scan = sr.curvature_scan(sr.BergerSphere(1.0), 3000, 1)
    assert scan.minimum == pytest.approx(1.0, abs=1e-8)
    assert scan.maximum == pytest.approx(1.0, abs=1e-8)


def test_scan_deterministic_and_validated():
    s1 = sr.curvature_scan(sr.BergerSphere(0.9), 512, 7)
    s2 = sr.curvature_scan(sr.BergerSphere(0.9), 512, 7)
    assert s1.minimum == s2.minimum and s1.maximum == s2.maximum
    p, u, v = s1.argmax
    assert sr.sectional_curvature(sr.BergerSphere(0.9), u, v) == pytest.approx(s1.maximum, rel=1e-12)
    with pytest.raises(sr.ParameterError):
        sr.curvature_scan(sr.BergerSphere(0.9), 0, 7)
    s3 = sr.curvature_scan(sr.BergerSphere(0.9), np.int64(512), np.int32(7))
    assert (s3.minimum, s3.maximum) == (s1.minimum, s1.maximum)


@pytest.mark.parametrize(
    "count, seed, field",
    [(2.5, 0, "sample_count"), (10.0, 0, "sample_count"), (True, 0, "sample_count"),
     (10, None, "seed"), (10, -1, "seed"), (10, 0.0, "seed")],
)
def test_scan_rejects_a_count_or_seed_it_cannot_use(count, seed, field):
    # a float count failed in NumPy's bitwise_and, a negative seed in default_rng,
    # and a seed of None drew OS entropy
    with pytest.raises(sr.ParameterError, match=f"^{field} must be an integer"):
        sr.curvature_scan(sr.RoundSphere(3), count, seed)


def test_curvature_bounds():
    assert sr.curvature_bounds(sr.RoundSphere(5)) == (1.0, 1.0)
    assert sr.curvature_bounds(sr.BergerSphere(1.2)) == pytest.approx((-0.32, 1.44))
    assert sr.curvature_bounds(sr.ComplexProjective(3)) == (0.25, 1.0)
    assert sr.curvature_bounds(sr.ComplexProjective(1)) == (1.0, 1.0)
    lo, hi = sr.curvature_bounds(sr.Scaled(sr.RoundSphere(3), 2.0))
    assert (lo, hi) == pytest.approx((0.25, 0.25))


def test_cpn_phase_invariance():
    m = sr.ComplexProjective(2)
    rng = np.random.default_rng(2)
    raw = rng.normal(size=6)
    raw /= np.linalg.norm(raw)
    theta = 0.77

    def rotate(sv):
        mm = 3
        c = (sv[:mm] + 1j * sv[mm:]) * np.exp(1j * theta)
        return np.concatenate([c.real, c.imag])

    # canonical representative is unchanged by a phase rotation of the input
    assert np.allclose(m.canonical_point(raw), m.canonical_point(rotate(raw)), atol=1e-12)

    p = sr.make_point(m, raw)
    a = m.project_tangent(p.coordinates, rng.normal(size=6))
    b = m.project_tangent(p.coordinates, rng.normal(size=6))
    sec1 = sr.sectional_curvature(m, sr.Tangent(p, a), sr.Tangent(p, b))
    # evaluate the same plane in a rotated gauge, bypassing canonicalization
    p2 = sr.Point(rotate(p.coordinates))
    sec2 = sr.sectional_curvature(m, sr.Tangent(p2, rotate(a)), sr.Tangent(p2, rotate(b)))
    assert sec1 == pytest.approx(sec2, rel=1e-12)
    assert sr.point_distance(m, p.coordinates, rotate(p.coordinates)) < 1e-12


def test_frame_factory():
    m = sr.BergerSphere(0.8)
    p = _berger_point(m)
    e1 = sr.make_tangent(m, p, [1 / 0.8, 0, 0])
    e2 = sr.make_tangent(m, p, [0, 1, 0])
    f = sr.make_frame(m, p, [e1, e2])
    assert len(f.vectors) == 2
    with pytest.raises(sr.DomainError):
        sr.make_frame(m, p, [e1, e1])


# the interface of ``ManifoldModel``'s docstring.  A constant rescaling of the
# metric changes only the names of METRIC; ``Scaled`` answers every other as
# its base does
INTERFACE = (
    "dim", "point_dim", "tangent_dim", "inner", "pair_inner", "curvature",
    "curvature_bounds", "project_point", "project_tangent", "validate_point",
    "validate_tangent", "tangent_basis", "state_rhs", "transport_rhs",
    "transport_project", "canonical_point", "point_distance", "project_state",
    "transport_coeffs", "special_directions", "killing_direction",
)
METRIC = ("inner", "pair_inner", "curvature_bounds")
SCALED_CASES = [
    (sr.Scaled(sr.RoundSphere(3), 1.3), sr.RoundSphere(3)),
    (sr.Scaled(sr.ComplexProjective(2), 1.3), sr.ComplexProjective(2)),
    (sr.Scaled(sr.BergerSphere(0.8), 1.3), sr.BergerSphere(0.8)),
    (sr.Scaled(sr.Scaled(sr.BergerSphere(0.8), 1.3), 0.7), sr.BergerSphere(0.8)),
]
SCALED_IDS = ["round3", "cp2", "berger0.8", "nested-berger0.8"]


def _interface_inputs(model):
    """Argument tuples for each callable interface name, off and on the constraint set."""
    P, W = sr.GeodesicSampler(5, 7).states(model)
    rng = np.random.default_rng(11)
    near = P + 0.1 * rng.normal(size=P.shape)
    R = rng.normal(size=W.shape)
    w = rng.normal(size=(5, 2, model.tangent_dim))
    c = model.transport_coeffs(P, W)
    return {
        "inner": [(W, R)],
        "pair_inner": [(w, w[:, :1])],
        "curvature": [(W, R, R[::-1])],
        "curvature_bounds": [()],
        "project_point": [(near,)],
        "project_tangent": [(P, R)],
        "validate_point": [(P[0],), (2.0 * P[0],), (P[0, :-1],)],
        "validate_tangent": [(P[0], W[0]), (P[0], R[0]), (P[0], W[0, :-1])],
        "tangent_basis": [(P,)],
        "state_rhs": [(P, W)],
        "transport_rhs": [(w, *c)],
        "transport_project": [(w, *c)],
        "canonical_point": [(near,)],
        "point_distance": [(P[0], P[1]), (P[0], -P[0])],
        "project_state": [(near, R)],
        "transport_coeffs": [(P, W)],
        "special_directions": [()],
        "killing_direction": [()],
    }


def _answer(member, args):
    """The value of ``member(*args)``, or the type and text of what it raised."""
    try:
        return member(*args)
    except sr.DomainError as exc:
        return type(exc), str(exc)


def _same_bits(a, b):
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same_bits(a[k], b[k]) for k in a)
    if isinstance(a, tuple):
        return len(a) == len(b) and all(map(_same_bits, a, b))
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        a, b = np.asarray(a), np.asarray(b)
        return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
    return type(a) is type(b) and a == b


@pytest.mark.parametrize("scaled, core", SCALED_CASES, ids=SCALED_IDS)
def test_scaled_answers_every_unscaled_name_as_its_base(scaled, core):
    inputs = _interface_inputs(core)
    for name in INTERFACE:
        if name in METRIC:
            continue
        if name in inputs:
            for args in inputs[name]:
                got = _answer(getattr(scaled, name), args)
                assert _same_bits(got, _answer(getattr(core, name), args)), (name, args)
        else:
            assert _same_bits(getattr(scaled, name), getattr(core, name)), name


@pytest.mark.parametrize("scaled, core", SCALED_CASES, ids=SCALED_IDS)
def test_scaled_metric_names_scale_by_lam_squared(scaled, core):
    _, lam = sr.unwrap(scaled)
    inputs = _interface_inputs(core)
    for name in ("inner", "pair_inner"):
        for args in inputs[name]:
            assert np.allclose(getattr(scaled, name)(*args), lam**2 * getattr(core, name)(*args),
                               rtol=1e-14, atol=0.0)
    lo, hi = core.curvature_bounds()
    assert scaled.curvature_bounds() == (pytest.approx(lo / lam**2, rel=1e-14),
                                         pytest.approx(hi / lam**2, rel=1e-14))


@pytest.mark.parametrize(
    "coordinates, text",
    [([1.0, 0.0, 0.0], "must have 4 coordinates"), ([1.0, 1.0, 0.0, 0.0], "must be a unit vector")],
    ids=["wrong-size", "not-unit"],
)
def test_berger_points_are_checked(coordinates, text):
    with pytest.raises(sr.DomainError, match=f"^BergerSphere point {text}"):
        sr.make_point(sr.BergerSphere(0.8), coordinates)


def test_model_parameter_validation():
    with pytest.raises(sr.ParameterError):
        sr.RoundSphere(1)
    with pytest.raises(sr.ParameterError):
        sr.BergerSphere(0.0)
    with pytest.raises(sr.ParameterError):
        sr.ComplexProjective(0)
    with pytest.raises(sr.ParameterError):
        sr.Scaled(sr.RoundSphere(2), -1.0)


@pytest.mark.parametrize("value", [math.inf, math.nan])
@pytest.mark.parametrize(
    "build, field",
    [(sr.BergerSphere, "eta"), (lambda lam: sr.Scaled(sr.RoundSphere(2), lam), "lam")],
    ids=["berger", "scaled"],
)
def test_non_finite_model_parameters_are_rejected(build, field, value):
    with pytest.raises(sr.ParameterError, match=field):
        build(value)


@pytest.mark.parametrize(
    "build, value, field",
    [(sr.RoundSphere, 3.0, "RoundSphere dim"), (sr.RoundSphere, True, "RoundSphere dim"),
     (sr.ComplexProjective, True, "ComplexProjective n"),
     (sr.ComplexProjective, 2.0, "ComplexProjective n"),
     (sr.ComplexProjective, np.float64(2), "ComplexProjective n")],
    ids=["sphere-float", "sphere-bool", "cpn-bool", "cpn-float", "cpn-numpy-float"],
)
def test_model_dimensions_must_be_integers(build, value, field):
    # RoundSphere(3.0) failed later in the sampler, and ComplexProjective(True) built CP^1
    with pytest.raises(sr.ParameterError, match=f"^{field} must be an integer"):
        build(value)
    assert build(np.int64(2)).dim == build(2).dim


def test_pair_inner_matches_pointwise():
    m = sr.Scaled(sr.BergerSphere(0.9), 1.4)
    rng = np.random.default_rng(8)
    A = rng.normal(size=(7, 3, 3))
    B = rng.normal(size=(7, 2, 3))
    out = pair_inner(m, A, B)
    for t in range(7):
        for a in range(3):
            for b in range(2):
                assert out[t, a, b] == pytest.approx(float(m.inner(A[t, a], B[t, b])), rel=1e-12)
