import math
import os
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest

from bundle_views import analyzed_bundle, bundle_propagator, second_solution
import sphererank as sr
from sphererank import rank as rank_mod
from sphererank.geodesics import POSITIVE_UNIT_STEP, UNIT_STEP, model_step, positive_step, time_grid
from sphererank.geometry import unwrap


def _unit(model, v):
    v = np.asarray(v, dtype=float)
    return v / math.sqrt(float(model.inner(v, v)))


# ---------------------------------------------------------------------------
# sampler


def test_sampler_deterministic_and_special():
    s = sr.GeodesicSampler(8, 5)
    # a scaled model keeps the forced directions, g-unit in its own metric
    for m, lam in ((sr.BergerSphere(0.8), 1.0), (sr.Scaled(sr.BergerSphere(0.8), 1.3), 1.3)):
        P1, W1 = s.states(m)
        P2, W2 = s.states(m)
        assert np.array_equal(P1, P2) and np.array_equal(W1, W2)
        # forced fiber and horizontal directions at the identity
        assert np.array_equal(P1[:2], [[1, 0, 0, 0]] * 2)
        assert np.allclose(W1[0], [1 / (0.8 * lam), 0, 0])
        assert np.allclose(W1[1], [0, 1 / lam, 0])
        # all velocities unit, the forced rows included
        assert np.max(np.abs(m.inner(W1, W1) - 1.0)) < 1e-12

        uni = sr.GeodesicSampler(8, 5, "uniform").states(m)
        assert not np.allclose(uni[1][0], W1[0])

    with pytest.raises(sr.ParameterError):
        sr.GeodesicSampler(0, 1)
    with pytest.raises(sr.ParameterError):
        sr.GeodesicSampler(4, 1, "bogus")


@pytest.mark.parametrize(
    "count, seed, field",
    [(3.0, 5, "count"), (True, 5, "count"), (np.float64(3), 5, "count"), (3, -1, "seed"),
     (3, None, "seed"), (3, 5.0, "seed"), (3, False, "seed")],
)
def test_sampler_rejects_a_count_or_seed_it_cannot_use(count, seed, field):
    # a float count failed in NumPy's bitwise_and, a negative seed in default_rng,
    # and a seed of None drew OS entropy, breaking the verdicts' determinism
    with pytest.raises(sr.ParameterError, match=f"^{field} must be an integer"):
        sr.GeodesicSampler(count, seed).states(sr.RoundSphere(2))


def test_sampler_takes_numpy_integers():
    m = sr.BergerSphere(0.8)
    P, W = sr.GeodesicSampler(np.int64(5), np.uint32(7)).states(m)
    Q, V = sr.GeodesicSampler(5, 7).states(m)
    assert np.array_equal(P, Q) and np.array_equal(W, V)


def test_a_direction_with_no_tangential_part_is_a_domain_error(monkeypatch):
    # any direction put in its place would bias the sample
    monkeypatch.setattr(sr.RoundSphere, "project_tangent", lambda self, p, u: np.zeros_like(u))
    with pytest.raises(sr.DomainError, match="no tangential part"):
        sr.GeodesicSampler(4, 3).states(sr.RoundSphere(3))


# ---------------------------------------------------------------------------
# normalization


def test_normalize_examples():
    up = sr.normalize_to_bound(sr.BergerSphere(1.2), "upper")
    assert isinstance(up, sr.Scaled) and up.lam**2 == pytest.approx(1.44)
    low = sr.normalize_to_bound(sr.BergerSphere(0.8), "lower")
    assert low.lam**2 == pytest.approx(0.64)
    r = sr.normalize_to_bound(sr.RoundSphere(4), "upper")
    assert r.lam == pytest.approx(1.0)
    assert sr.curvature_bounds(up)[1] == pytest.approx(1.0, abs=1e-12)
    assert sr.curvature_bounds(low)[0] == pytest.approx(1.0, abs=1e-12)


def test_normalize_errors_and_idempotence():
    with pytest.raises(sr.NormalizationError):
        sr.normalize_to_bound(sr.BergerSphere(2 / math.sqrt(3)), "lower")
    with pytest.raises(sr.NormalizationError):
        sr.normalize_to_bound(sr.BergerSphere(1.5), "lower")
    with pytest.raises(sr.ParameterError):
        sr.normalize_to_bound(sr.RoundSphere(3), "sideways")
    once = sr.normalize_to_bound(sr.BergerSphere(1.2), "upper")
    twice = sr.normalize_to_bound(once, "upper")
    _, lam1 = unwrap(once)
    _, lam2 = unwrap(twice)
    assert abs(lam1 - lam2) < 1e-10


# ---------------------------------------------------------------------------
# positive spherical rank


def test_positive_rank_round_spheres():
    for n in (2, 3):
        v = sr.check_positive_spherical_rank(sr.RoundSphere(n), sr.GeodesicSampler(12, 3))
        assert v.holds and v.status == "ok"
        for e in v.evidence:
            assert len(e.events) == 1
            assert e.events[0].multiplicity == n - 1
            assert abs(e.events[0].time - math.pi) <= 1e-6
            assert e.has_certificate


def test_positive_rank_cpn():
    v = sr.check_positive_spherical_rank(sr.ComplexProjective(2), sr.GeodesicSampler(10, 3))
    assert v.holds
    for e in v.evidence:
        assert e.events[0].multiplicity == 1
        assert e.has_certificate and e.certificate_deviation < 1e-6


def test_positive_rank_fails_on_berger_with_horizontal_witness():
    m = sr.normalize_to_bound(sr.BergerSphere(1.2), "upper")
    v = sr.check_positive_spherical_rank(m, sr.GeodesicSampler(10, 3))
    assert not v.holds and v.status == "ok"
    horizontal = v.evidence[1]
    assert not horizontal.passes
    assert abs(horizontal.velocity[0]) < 1e-12  # no fiber component
    assert all(abs(e.time - math.pi) > 1e-6 for e in horizontal.events)
    # the fiber geodesic itself is conjugate at pi
    fiber = v.evidence[0]
    assert fiber.passes and fiber.events[0].multiplicity == 2


def test_positive_rank_precondition_distinct_state():
    v = sr.check_positive_spherical_rank(sr.BergerSphere(1.2), sr.GeodesicSampler(4, 3))
    assert v.status == "precondition-failed"
    assert not v.holds and v.evidence == []
    # a scaled-down round sphere has curvature 4 > 1: also a precondition failure
    v2 = sr.check_positive_spherical_rank(
        sr.Scaled(sr.RoundSphere(3), 0.5), sr.GeodesicSampler(4, 3)
    )
    assert v2.status == "precondition-failed"


class _UnderstatedSphere(sr.Scaled):
    """A scaled sphere whose stated curvature bounds hide its true curvature."""

    def curvature_bounds(self):
        return 1.0, 1.0


def test_positive_rank_sampled_curvature_precondition():
    # the stated bounds pass; the sampled K (sec = 1 / 0.81 everywhere) must not
    model = _UnderstatedSphere(sr.RoundSphere(2), 0.9)
    for richardson in (False, True):
        v = sr.check_positive_spherical_rank(
            model, sr.GeodesicSampler(4, 3), richardson=richardson
        )
        assert v.status == "precondition-failed"
        assert not v.holds and v.evidence == []
        assert "sampled curvature" in v.detail


def test_positive_rank_richardson_and_determinism():
    m = sr.RoundSphere(3)
    v1 = sr.check_positive_spherical_rank(m, sr.GeodesicSampler(6, 11), richardson=True)
    assert v1.holds
    assert max(e.richardson_gap for e in v1.evidence) <= 1e-7
    v2 = sr.check_positive_spherical_rank(m, sr.GeodesicSampler(6, 11), richardson=True)
    assert [e.events[0].time for e in v1.evidence] == [e.events[0].time for e in v2.evidence]


# ---------------------------------------------------------------------------
# Killing field witness


def test_killing_field_spans_extremal_plane():
    eta = 0.8
    m = sr.BergerSphere(eta)
    p = sr.make_point(m, [1, 0, 0, 0])
    w0 = _unit(m, [0.3, 0.8, -0.4])
    traj = sr.geodesic_flow(m, sr.GeodesicState(p, sr.Tangent(p, w0)), 2.0, 1e-3)
    J = sr.killing_jacobi_field(m, traj)
    # normal to the velocity, and sec(J, gamma') = eta^2 at every sample
    tang = m.inner(J, traj.velocities)
    assert np.max(np.abs(tang)) < 1e-10
    for i in range(0, len(traj.times), 200):
        pt = sr.Point(traj.points[i])
        sec = sr.sectional_curvature(
            m, sr.Tangent(pt, traj.velocities[i]), sr.Tangent(pt, J[i])
        )
        assert sec == pytest.approx(eta**2, abs=1e-8)


def test_killing_field_is_jacobi():
    eta = 0.8
    m = sr.BergerSphere(eta)
    p = sr.make_point(m, [1, 0, 0, 0])
    w0 = _unit(m, [0.3, 0.8, -0.4])
    traj = sr.geodesic_flow(m, sr.GeodesicState(p, sr.Tangent(p, w0)), 2.0, 1e-3)
    frame = sr.normal_frame(traj)
    profile = sr.curvature_profile(traj, frame)
    J = sr.killing_jacobi_field(m, traj)
    E = np.stack([f.components for f in frame], axis=1)
    y = m.inner(J[:, None, :], E)
    h = traj.times[1] - traj.times[0]
    n = len(traj.times) - 1
    second = (y[2:n] - 2 * y[1 : n - 1] + y[0 : n - 2]) / h**2
    resid = second + np.einsum("tij,tj->ti", profile.K[1 : n - 1], y[1 : n - 1])
    assert np.max(np.abs(resid)) < 1e-5


def test_killing_field_fiber_degenerate():
    eta = 0.8
    m = sr.BergerSphere(eta)
    p = sr.make_point(m, [1, 0, 0, 0])
    traj = sr.geodesic_flow(
        m, sr.GeodesicState(p, sr.make_tangent(m, p, [1 / eta, 0, 0])), 2.0, 1e-3
    )
    J = sr.killing_jacobi_field(m, traj)
    assert np.max(np.linalg.norm(J, axis=-1)) < 1e-10
    with pytest.raises(sr.DomainError):
        sr.killing_jacobi_field(sr.RoundSphere(3), traj)


# ---------------------------------------------------------------------------
# weak spherical rank


def test_weak_rank_berger_both_sides():
    low = sr.normalize_to_bound(sr.BergerSphere(0.8), "lower")
    v = sr.check_weak_spherical_rank(low, "lower", sr.GeodesicSampler(12, 3))
    assert v.holds
    assert max(e.weak_deviation for e in v.evidence) < 1e-7

    up = sr.normalize_to_bound(sr.BergerSphere(1.2), "upper")
    v2 = sr.check_weak_spherical_rank(up, "upper", sr.GeodesicSampler(12, 3))
    assert v2.holds
    assert max(e.weak_deviation for e in v2.evidence) < 1e-7


def test_weak_rank_round_sphere_trivial():
    m = sr.normalize_to_bound(sr.RoundSphere(3), "upper")
    v = sr.check_weak_spherical_rank(m, "upper", sr.GeodesicSampler(6, 3))
    assert v.holds
    assert max(e.weak_deviation for e in v.evidence) < 1e-10


def test_weak_rank_requires_normalization():
    with pytest.raises(sr.ParameterError):
        sr.check_weak_spherical_rank(sr.BergerSphere(0.8), "lower", sr.GeodesicSampler(4, 3))
    with pytest.raises(sr.ParameterError):
        sr.check_weak_spherical_rank(
            sr.normalize_to_bound(sr.BergerSphere(0.8), "lower"),
            "diagonal",
            sr.GeodesicSampler(4, 3),
        )


def test_weak_rank_tol_does_not_decide_normalization():
    # upper bound 1.44: a loose deviation tolerance must not pass it as normalized
    with pytest.raises(sr.ParameterError, match="not normalized"):
        sr.check_weak_spherical_rank(
            sr.BergerSphere(1.2), "upper", sr.GeodesicSampler(4, 3), tol=0.95
        )


def test_weak_rank_search_agrees_with_witness():
    up = sr.normalize_to_bound(sr.BergerSphere(1.2), "upper")
    s = sr.GeodesicSampler(4, 13)
    via_witness = sr.check_weak_spherical_rank(up, "upper", s, method="witness")
    via_search = sr.check_weak_spherical_rank(up, "upper", s, method="search")
    assert via_witness.holds and via_search.holds
    for a, b in zip(via_witness.evidence, via_search.evidence):
        assert a.weak_deviation <= 1e-5 and b.weak_deviation <= 1e-5


def test_weak_rank_vertical_geodesic_handled():
    # the forced fiber direction has an identically-zero Killing field;
    # the parallel field sin(t) c of the isotropic profile must cover it
    low = sr.normalize_to_bound(sr.BergerSphere(0.8), "lower")
    v = sr.check_weak_spherical_rank(low, "lower", sr.GeodesicSampler(2, 3))
    fiber = v.evidence[0]
    assert fiber.passes
    # the field vanishes only where sin(t) does
    times = time_grid(math.pi, 2 * model_step(low))
    assert fiber.excluded_samples == np.sum(np.abs(np.sin(times)) <= rank_mod.DEFAULT_WEAK_TOL)


@pytest.mark.parametrize(
    "model",
    [sr.ComplexProjective(2), sr.BergerSphere(1.2)],
    ids=["cp2", "berger1.2"],
)
def test_weak_rank_search_finds_field_where_theory_says_it_exists(model):
    # upper-normalized CP^2 carries sin(t) J gamma'; Berger(1.2) the Killing field
    up = sr.normalize_to_bound(model, "upper")
    v = sr.check_weak_spherical_rank(up, "upper", sr.GeodesicSampler(12, 5), method="search")
    assert v.holds
    assert max(e.weak_deviation for e in v.evidence) <= 1e-12


def test_weak_field_search_returns_exact_jacobi_field():
    up = sr.normalize_to_bound(sr.BergerSphere(1.2), "upper")
    P, W = sr.GeodesicSampler(12, 5).states(up)
    bundle = analyzed_bundle(up, P[9:10], W[9:10], math.pi, 1e-3, frame=False)
    K, M = bundle["K"][:, 0], bundle["M"][:, 0]
    N = second_solution(bundle)[:, 0]
    dev, excluded, s = sr.weak_field_search(K, M, N, 1e-5)
    assert dev <= 1e-5 and excluded == 0
    assert np.linalg.norm(s) == pytest.approx(1.0)
    k = K.shape[-1]
    y = np.einsum("tij,j->ti", N, s[:k]) + np.einsum("tij,j->ti", M, s[k:])
    residual = np.einsum("tij,tj->ti", K - np.eye(k), y)
    assert np.max(np.abs(residual)) <= 1e-10


def test_weak_rank_search_still_rejects_berger_half():
    # upper-normalized Berger(0.5) has sec(gamma', J) < 1 somewhere on every
    # sampled geodesic, whichever normal Jacobi field J is taken
    up = sr.normalize_to_bound(sr.BergerSphere(0.5), "upper")
    v = sr.check_weak_spherical_rank(up, "upper", sr.GeodesicSampler(12, 5), method="search")
    assert not v.holds
    assert not any(e.passes for e in v.evidence)


def _evidence_bits(verdict):
    return [
        ([(ev.time.hex(), ev.multiplicity) for ev in e.events], e.passes, e.richardson_gap,
         e.certificate_deviation, e.weak_deviation, e.excluded_samples)
        for e in verdict.evidence
    ]


def test_checks_default_to_the_model_step():
    # upper Berger(2) has sec down to -2, lower Berger(0.8) up to 3.25: both
    # run below their unit steps, and the default must be the explicit step bit
    # for bit: the positive check's own, model_step for the weak check
    sampler = sr.GeodesicSampler(4, 3)
    up = sr.normalize_to_bound(sr.BergerSphere(2.0), "upper")
    low = sr.normalize_to_bound(sr.BergerSphere(0.8), "lower")
    assert model_step(up) < positive_step(up) < POSITIVE_UNIT_STEP
    assert model_step(low) < UNIT_STEP
    for check, model, step, args in (
        (sr.check_positive_spherical_rank, up, positive_step(up), {"richardson": True}),
        (sr.check_weak_spherical_rank, low, model_step(low), {"side": "lower"}),
    ):
        default = check(model, sampler=sampler, **args)
        explicit = check(model, sampler=sampler, step=step, **args)
        assert default.detail == explicit.detail
        assert _evidence_bits(default) == _evidence_bits(explicit)
    fiber = sr.BergerSphere(0.5)
    assert sr.measure_fiber_time(0.5) == sr.measure_fiber_time(0.5, model_step(fiber))


# ---------------------------------------------------------------------------
# Berger report


def test_fiber_time_is_the_hopf_fiber_length():
    # the closure time is the root of the Hermite cubic of <q, u0> at its
    # upward zero, so only the flow's own error is left
    for eta in (0.3, 0.5, 0.8, 1.0, 1.2, 2.0):
        assert abs(sr.measure_fiber_time(eta) - 2 * math.pi * eta) <= 1e-10, eta


def test_berger_report_rows():
    rows = sr.berger_report(
        [0.5, 1.0, 1.1, 2 / math.sqrt(3)],
        sr.GeodesicSampler(6, 3),
        scan_samples=2048,
    )
    by_eta = {round(r.eta, 6): r for r in rows}

    r05 = by_eta[0.5]
    assert (r05.sec_min_exact, r05.sec_max_exact) == pytest.approx((0.25, 3.25))
    assert r05.fiber_time == pytest.approx(math.pi, abs=1e-6)
    assert r05.positively_curved and not r05.positive_spherical_rank

    r10 = by_eta[1.0]
    assert (r10.sec_min_exact, r10.sec_max_exact) == pytest.approx((1.0, 1.0))
    assert r10.fiber_time == pytest.approx(2 * math.pi, abs=1e-6)
    assert r10.positive_spherical_rank and r10.weak_upper and r10.weak_lower

    r11 = by_eta[1.1]
    assert r11.positively_curved
    assert r11.weak_upper and not r11.positive_spherical_rank

    redge = by_eta[round(2 / math.sqrt(3), 6)]
    assert not redge.lower_normalizable and redge.weak_lower is None
    assert "lower normalization impossible" in redge.note

    with pytest.raises(sr.ParameterError):
        sr.berger_report([], sr.GeodesicSampler(2, 1))
    with pytest.raises(sr.ParameterError):
        sr.berger_report([-0.5], sr.GeodesicSampler(2, 1))


def test_verdict_determinism_across_runs():
    m = sr.normalize_to_bound(sr.BergerSphere(1.2), "upper")
    a = sr.check_weak_spherical_rank(m, "upper", sr.GeodesicSampler(5, 21))
    b = sr.check_weak_spherical_rank(m, "upper", sr.GeodesicSampler(5, 21))
    assert [e.weak_deviation for e in a.evidence] == [e.weak_deviation for e in b.evidence]
    assert a.holds == b.holds and a.worst_case == b.worst_case


# ---------------------------------------------------------------------------
# chunking


def test_each_chunk_is_released_before_the_next_is_built(monkeypatch):
    built = []
    real = rank_mod._curvature

    def spy(*args):
        assert all(ref() is None for ref in built), "an earlier chunk's K is still alive"
        K, defect = real(*args)
        built.append(weakref.ref(K))
        return K, defect

    monkeypatch.setattr(rank_mod, "_curvature", spy)
    # a forked half run would build its K out of this process's sight
    monkeypatch.setattr(rank_mod, "_second_core_free", lambda: False)
    sampler = sr.GeodesicSampler(5, 3)
    m = sr.RoundSphere(2)
    assert sr.check_positive_spherical_rank(m, sampler, richardson=True, chunk=2).holds
    assert sr.check_weak_spherical_rank(m, "upper", sampler, method="search", chunk=2).holds
    assert len(built) == 9  # 3 chunks, twice for Richardson, then 3 for the weak check


def _verdict_digest(verdict):
    return (
        verdict.holds,
        verdict.status,
        verdict.worst_case,
        verdict.detail,
        [
            (
                e.index,
                e.passes,
                [(ev.time, ev.multiplicity) for ev in e.events],
                e.certificate_deviation,
                e.richardson_gap,
            )
            for e in verdict.evidence
        ],
    )


richardson_cases = pytest.mark.parametrize(
    "model, window",
    # horizons pi + 0.05 + 1e-6 and 4.2505: the analysis grids of the step and
    # of its Richardson half (spacings 2e-3 and 1e-3) both end in a short
    # interval, 1.6e-3 and 5.9e-4 long here and 5e-4 on both there
    [(sr.RoundSphere(4), None), (sr.Scaled(sr.ComplexProjective(2), 1.3), 4.2005),
     (sr.normalize_to_bound(sr.BergerSphere(1.2), "upper"), 4.2005)],
    ids=["round4", "cp2-scaled", "berger1.2-upper"],
)


@richardson_cases
def test_chunk_size_is_bitwise_invisible_with_richardson(model, window):
    sampler = sr.GeodesicSampler(5, 20240809)

    def run(chunk):
        return sr.check_positive_spherical_rank(
            model, sampler, event_window=window, richardson=True, chunk=chunk
        )

    small = run(3)
    assert _verdict_digest(small) == _verdict_digest(run(rank_mod.DEFAULT_CHUNK))
    assert all(len(e.events) >= 1 for e in small.evidence)


# ---------------------------------------------------------------------------
# the Richardson half run beside the run at ``step``


def _counted_forks(monkeypatch):
    forks = []
    real = os.fork

    def fork():
        forks.append(1)
        return real()

    monkeypatch.setattr(os, "fork", fork)
    return forks


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@richardson_cases
def test_the_forked_half_run_is_bitwise_the_in_process_one(monkeypatch, model, window):
    sampler = sr.GeodesicSampler(5, 20240809)
    forks = _counted_forks(monkeypatch)
    digests = []
    for forked in (False, True):
        monkeypatch.setattr(rank_mod, "_second_core_free", lambda: forked)
        digests.append(_verdict_digest(sr.check_positive_spherical_rank(
            model, sampler, event_window=window, richardson=True, chunk=3
        )))
    assert len(forks) == 2  # one child per chunk, on the forked pass only
    assert digests[0] == digests[1]
    _no_child_left()


def _failing_curvature(monkeypatch, at_step=None, at_half=None):
    """``rank._curvature`` raising ``DomainError(at_step)`` on the grid of step
    2e-3 (spacing 4e-3) and ``DomainError(at_half)`` on that of its half."""
    real = rank_mod._curvature

    def curvature(model, times, X, V):
        message = at_half if times[1] - times[0] < 3e-3 else at_step
        if message is not None:
            raise sr.DomainError(message)
        return real(model, times, X, V)

    monkeypatch.setattr(rank_mod, "_curvature", curvature)


@pytest.mark.parametrize("forked", [False, True], ids=["in-process", "forked"])
@pytest.mark.parametrize("at_step", [None, "at step"], ids=["half-raises", "both-raise"])
def test_the_first_error_of_a_chunks_runs_reaches_the_caller(monkeypatch, forked, at_step):
    monkeypatch.setattr(rank_mod, "_second_core_free", lambda: forked)
    _failing_curvature(monkeypatch, at_step=at_step, at_half="at step / 2")
    with pytest.raises(sr.DomainError, match=f"^{at_step or 'at step / 2'}$"):
        sr.check_positive_spherical_rank(
            sr.RoundSphere(2), sr.GeodesicSampler(3, 1), step=2e-3, richardson=True
        )
    _no_child_left()


def test_an_error_of_the_forked_half_run_carries_its_own_frames(monkeypatch):
    # the child sends nothing, and the half run raises again in this process
    monkeypatch.setattr(rank_mod, "_second_core_free", lambda: True)
    _failing_curvature(monkeypatch, at_half="at step / 2")
    with pytest.raises(sr.DomainError, match="^at step / 2$") as info:
        sr.check_positive_spherical_rank(
            sr.RoundSphere(2), sr.GeodesicSampler(3, 1), step=2e-3, richardson=True
        )
    # on through the half run's lambda and rank's curvature to the patched one here
    names = [entry.name for entry in info.traceback]
    assert names[-4:] == ["_beside", "<lambda>", "curvature", "curvature"]
    assert Path(info.traceback[-1].path) == Path(__file__)
    _no_child_left()


def test_a_child_that_sends_nothing_has_the_half_run_done_in_process(monkeypatch):
    # the outcome does not pickle in the child, which then exits without sending
    sampler = sr.GeodesicSampler(3, 1)
    monkeypatch.setattr(rank_mod, "_second_core_free", lambda: False)
    expected = _verdict_digest(sr.check_positive_spherical_rank(
        sr.RoundSphere(2), sampler, richardson=True
    ))

    def unpicklable(*args):
        raise TypeError("cannot pickle")

    monkeypatch.setattr(rank_mod, "_second_core_free", lambda: True)
    monkeypatch.setattr(rank_mod.pickle, "dumps", unpicklable)
    forks = _counted_forks(monkeypatch)
    verdict = sr.check_positive_spherical_rank(sr.RoundSphere(2), sampler, richardson=True)
    assert len(forks) == 1 and _verdict_digest(verdict) == expected
    _no_child_left()


def test_a_single_threaded_process_forks_the_half_run(monkeypatch):
    # unpinned BLAS runs threads of its own, so this process never forks;
    # one pinned to a single thread does, with the digest of the in-process run
    if len(os.sched_getaffinity(0)) < 2:
        pytest.skip("the half run forks only where 2 CPUs are free")
    code = (
        "import os, sys\n"
        f"sys.path.insert(0, {str(Path(__file__).parent)!r})\n"
        "import sphererank as sr\n"
        "from test_rank import _verdict_digest\n"
        "forks, real = [], os.fork\n"
        "os.fork = lambda: forks.append(1) or real()\n"
        "verdict = sr.check_positive_spherical_rank(\n"
        "    sr.RoundSphere(4), sr.GeodesicSampler(5, 20240809), richardson=True, chunk=3)\n"
        "print(len(forks))\n"
        "print(repr(_verdict_digest(verdict)))\n"
    )
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1"}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=300, env=env)
    assert proc.returncode == 0, proc.stderr
    forks, digest = proc.stdout.splitlines()
    assert forks == "2"
    monkeypatch.setattr(rank_mod, "_second_core_free", lambda: False)
    in_process = sr.check_positive_spherical_rank(
        sr.RoundSphere(4), sr.GeodesicSampler(5, 20240809), richardson=True, chunk=3
    )
    assert digest == repr(_verdict_digest(in_process))


def _report_rows(**kwargs):
    rows = sr.berger_report((0.5, 1.2), sr.GeodesicSampler(4, 3), scan_samples=256, **kwargs)
    return [repr(row.as_dict()) for row in rows]


def test_berger_report_rows_are_bitwise_the_same_forked_or_not(monkeypatch):
    # eta 1.2 has no lower normalization, so only eta 0.5 forks its weak-lower check
    forks = _counted_forks(monkeypatch)
    digests = []
    for forked in (False, True):
        monkeypatch.setattr(rank_mod, "_second_core_free", lambda: forked)
        digests.append(_report_rows())
    assert len(forks) == 1
    assert digests[0] == digests[1]
    _no_child_left()
    # and each verdict is that of its check run on its own
    sampler = sr.GeodesicSampler(4, 3)
    row = sr.berger_report([0.5], sampler, scan_samples=256)[0]
    for side, holds in (("upper", row.weak_upper), ("lower", row.weak_lower)):
        model = sr.normalize_to_bound(sr.BergerSphere(0.5), side)
        assert sr.check_weak_spherical_rank(model, side, sampler).holds == holds
    assert row.weak_upper != row.weak_lower  # so a swap of the two shows


@pytest.mark.parametrize("forked", [False, True], ids=["in-process", "forked"])
@pytest.mark.parametrize("upper_raises", [False, True], ids=["lower-raises", "both-raise"])
def test_the_first_error_of_a_report_row_reaches_the_caller(monkeypatch, forked, upper_raises):
    real = rank_mod.check_weak_spherical_rank

    def weak(model, side, *args, **kwargs):
        if side == "lower" or upper_raises:
            raise sr.DomainError(f"weak-{side}")
        return real(model, side, *args, **kwargs)

    monkeypatch.setattr(rank_mod, "check_weak_spherical_rank", weak)
    monkeypatch.setattr(rank_mod, "_second_core_free", lambda: forked)
    expected = "weak-upper" if upper_raises else "weak-lower"
    with pytest.raises(sr.DomainError, match=f"^{expected}$"):
        _report_rows()
    _no_child_left()


@pytest.mark.parametrize("placement", ["read", "unreadable", "refused"])
def test_the_forked_child_leaves_its_parents_cpu(monkeypatch, placement):
    parent = os.sched_getaffinity(0)
    if len(parent) < 2:
        pytest.skip("the child is moved only where 2 CPUs are free")
    assert rank_mod._current_cpu() in parent
    if placement == "unreadable":
        monkeypatch.setattr(rank_mod, "_current_cpu", lambda: None)
    elif placement == "refused":
        def refuse(pid, cpus):
            raise PermissionError("refused")

        monkeypatch.setattr(os, "sched_setaffinity", refuse)
    monkeypatch.setattr(rank_mod, "_second_core_free", lambda: True)
    forks = _counted_forks(monkeypatch)
    ours, child = rank_mod._beside(lambda: os.sched_getaffinity(0),
                                   lambda: os.sched_getaffinity(0))
    assert len(forks) == 1
    assert ours == parent and os.sched_getaffinity(0) == parent
    if placement == "read":
        assert child < parent and len(child) == len(parent) - 1
    else:  # the child runs where it is
        assert child == parent
    _no_child_left()


@pytest.mark.parametrize("name", ["time_tol", "curv_tol", "rank_tol", "tol", "weak_tol"])
def test_a_bool_tolerance_is_rejected(name):
    # True ran as a tolerance of 1: "conjugate at pi within 1"
    sampler = sr.GeodesicSampler(2, 3)
    with pytest.raises(sr.ParameterError, match=f"^{name} must be a number, got True$"):
        if name == "tol":
            sr.check_weak_spherical_rank(sr.RoundSphere(2), "upper", sampler, tol=True)
        elif name == "weak_tol":
            sr.berger_report([1.2], sampler, scan_samples=64, weak_tol=True)
        else:
            sr.check_positive_spherical_rank(sr.RoundSphere(2), sampler, **{name: True})


@pytest.mark.parametrize("check", ["positive", "weak"])
def test_a_flow_that_diverges_at_a_large_step_raises_domain_error(check):
    # at step 2.0 on S^2 the speed reached 7e6: the positive check died asking
    # for 1.6 PiB of Theta nodes, the weak one in SciPy's eigh
    sampler = sr.GeodesicSampler(2, 1)
    with pytest.raises(sr.DomainError, match="diverged"), np.errstate(all="ignore"):
        if check == "positive":
            sr.check_positive_spherical_rank(sr.RoundSphere(2), sampler, step=2.0)
        else:
            sr.check_weak_spherical_rank(sr.RoundSphere(2), "upper", sampler, step=2.0)


# ---------------------------------------------------------------------------
# one scheme for a geodesic alone and in a bundle


@pytest.mark.parametrize(
    "model",
    [sr.RoundSphere(4), sr.ComplexProjective(2),
     sr.normalize_to_bound(sr.BergerSphere(1.2), "upper"), sr.Scaled(sr.BergerSphere(0.5), 1.3)],
    ids=["round4", "cp2", "berger1.2-upper", "berger0.5-scaled"],
)
def test_a_geodesic_alone_at_2h_is_its_bundle_row_at_h(model):
    horizon, window = 3.3, (0.0, 3.3)
    P, W = sr.GeodesicSampler(4, 20240809).states(model)
    bundle = analyzed_bundle(model, P, W, horizon, 1e-3)
    events = rank_mod.detect_events(bundle_propagator(bundle), window)
    assert any(events)  # the comparison covers conjugate points
    for b in range(len(P)):
        p = sr.Point(P[b])
        traj = sr.geodesic_flow(model, sr.GeodesicState(p, sr.Tangent(p, W[b])), horizon, 2e-3)
        frame = sr.normal_frame(traj)
        profile = sr.curvature_profile(traj, frame)
        prop = sr.jacobi_propagate(profile)
        assert np.array_equal(traj.times, bundle["times"])
        assert np.array_equal(traj.points, bundle["X"][:, b])
        assert np.array_equal(profile.frame_components(), bundle["E"][:, b])
        assert np.array_equal(profile.K, bundle["K"][:, b])
        assert np.array_equal(prop.M, bundle["M"][:, b])
        alone = sr.conjugate_points(prop, window)
        assert [(e.time, e.multiplicity) for e in alone] == [
            (e.time, e.multiplicity) for e in events[b]
        ]


@pytest.mark.parametrize(
    "model, side, method",
    [(sr.normalize_to_bound(sr.BergerSphere(1.2), "upper"), "upper", "witness"),
     (sr.normalize_to_bound(sr.BergerSphere(0.8), "lower"), "lower", "auto")],
    ids=["berger1.2-upper-witness", "berger0.8-lower-auto"],
)
def test_weak_check_propagates_only_for_the_search(monkeypatch, model, side, method):
    calls = []
    real = rank_mod.solve_jacobi_arrays

    def spy(times, K, Kmid, Y0, Yp0):
        calls.append(Y0.shape[-1])
        return real(times, K, Kmid, Y0, Yp0)

    monkeypatch.setattr(rank_mod, "solve_jacobi_arrays", spy)
    sampler = sr.GeodesicSampler(6, 3)
    for _ in range(2):
        verdict = sr.check_weak_spherical_rank(model, side, sampler, method=method, chunk=4)
        assert verdict.holds and all(e.passes for e in verdict.evidence)
    assert calls == []
    # the search propagates once per chunk: both fundamental solutions, 2k = 4 columns
    sr.check_weak_spherical_rank(model, side, sampler, method="search", chunk=4)
    assert calls == [4, 4]


@pytest.mark.parametrize("method", ["witness", "auto"])
def test_killing_witness_transports_a_frame_only_for_the_fiber_row(monkeypatch, method):
    up = sr.normalize_to_bound(sr.BergerSphere(1.2), "upper")
    fiber = up.special_directions()["fiber"][1]
    rows = []
    real = rank_mod.frame_arrays

    def spy(model, times, X, V, *mids):
        rows.append(V[0])
        return real(model, times, X, V, *mids)

    monkeypatch.setattr(rank_mod, "frame_arrays", spy)
    verdict = sr.check_weak_spherical_rank(up, "upper", sr.GeodesicSampler(6, 3), method=method,
                                           chunk=4)
    assert verdict.holds
    # one transport, along the vertical row alone (J = 0 there, the parallel field follows)
    assert len(rows) == 1 and rows[0].shape == (1, 3)
    assert np.array_equal(np.cross(rows[0][0], fiber), np.zeros(3))
    rows.clear()
    uniform = sr.GeodesicSampler(6, 3, stratification="uniform")
    assert sr.check_weak_spherical_rank(up, "upper", uniform, method=method, chunk=4).holds
    assert rows == []


def _witness_rows(monkeypatch):
    """The number of rows of each call of ``rank.spherical_witness``, as calls are made."""
    calls = []
    real = rank_mod.spherical_witness

    def spy(K):
        calls.append(K.shape[1])
        return real(K)

    monkeypatch.setattr(rank_mod, "spherical_witness", spy)
    return calls


@pytest.mark.parametrize("method", ["search", "witness", "auto"])
def test_witness_is_read_once_per_chunk_with_open_rows(monkeypatch, method):
    calls = _witness_rows(monkeypatch)
    sampler = sr.GeodesicSampler(6, 3)
    # upper Berger(1.2): the Killing field leaves only the fiber row, in the first chunk, open
    berger = sr.normalize_to_bound(sr.BergerSphere(1.2), "upper")
    sr.check_weak_spherical_rank(berger, "upper", sampler, method=method, chunk=4)
    # upper CP^2 has no Killing direction: every row of both chunks is open
    cp2 = sr.normalize_to_bound(sr.ComplexProjective(2), "upper")
    sr.check_weak_spherical_rank(cp2, "upper", sampler, method=method, chunk=4)
    assert calls == ([] if method == "search" else [1, 4, 2])


def test_positive_check_reads_its_certificates_once_per_chunk(monkeypatch):
    calls = _witness_rows(monkeypatch)
    verdict = sr.check_positive_spherical_rank(
        sr.RoundSphere(3), sr.GeodesicSampler(6, 3), richardson=True, chunk=4
    )
    assert verdict.holds and all(e.has_certificate for e in verdict.evidence)
    assert calls == [4, 2]


def test_positive_check_reads_its_sampled_curvature_once_per_chunk(monkeypatch):
    # from the run at the step: the Richardson half run reads no eigvalsh
    calls = []
    real = np.linalg.eigvalsh

    def spy(a, *args, **kwargs):
        calls.append(a.shape[1])
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", spy)
    verdict = sr.check_positive_spherical_rank(
        sr.RoundSphere(3), sr.GeodesicSampler(6, 3), richardson=True, chunk=4
    )
    assert verdict.holds
    assert calls == [4, 2]


def _rows_per_call(monkeypatch, name):
    """The number of rows of the K that each call of ``rank.<name>(times, K, ...)``
    reads, as calls are made."""
    calls = []
    real = getattr(rank_mod, name)

    def spy(times, K, *rest):
        calls.append(K.shape[1])
        return real(times, K, *rest)

    monkeypatch.setattr(rank_mod, name, spy)
    return calls


@pytest.mark.parametrize(
    "model, method, rows",
    # upper Berger(1.2): the Killing field closes every row but the fiber, and the
    # parallel field closes the fiber; upper CP^2: the parallel field closes every
    # row; upper Berger(0.6): every row of both chunks reaches the search
    [(sr.normalize_to_bound(sr.BergerSphere(1.2), "upper"), "witness", []),
     (sr.normalize_to_bound(sr.ComplexProjective(2), "upper"), "auto", []),
     (sr.normalize_to_bound(sr.BergerSphere(0.6), "upper"), "auto", [4, 2])],
    ids=["berger1.2-upper-witness", "cp2-upper-auto", "berger0.6-upper-auto"],
)
def test_weak_check_builds_midpoints_and_solves_only_for_searched_rows(
    monkeypatch, model, method, rows
):
    mids = _rows_per_call(monkeypatch, "interval_midpoints")
    solves = _rows_per_call(monkeypatch, "solve_jacobi_arrays")
    sr.check_weak_spherical_rank(model, "upper", sr.GeodesicSampler(6, 3), method=method, chunk=4)
    assert mids == rows and solves == rows


@pytest.mark.parametrize(
    "eta, side", [(1.2, "upper"), (0.8, "lower"), (0.5, "lower")],
    ids=["berger1.2-upper", "berger0.8-lower", "berger0.5-lower"],
)
def test_fiber_row_and_search_deviations_equal_the_frame_route(eta, side):
    model = sr.normalize_to_bound(sr.BergerSphere(eta), side)
    sampler = sr.GeodesicSampler(6, 3)
    P, W = sampler.states(model)
    bundle = analyzed_bundle(model, P, W, math.pi, model_step(model), frame=False)
    times, K, M, N = bundle["times"], bundle["K"], bundle["M"], second_solution(bundle)
    fiber = _parallel_deviation(times, K[:, 0])
    searched = [
        sr.weak_field_search(K[:, i], M[:, i], N[:, i], rank_mod.DEFAULT_WEAK_TOL)[0]
        for i in range(len(P))
    ]
    for method in ("witness", "auto"):
        verdict = sr.check_weak_spherical_rank(model, side, sampler, method=method, chunk=4)
        assert verdict.evidence[0].weak_deviation == fiber
    verdict = sr.check_weak_spherical_rank(model, side, sampler, method="search", chunk=4)
    assert [e.weak_deviation for e in verdict.evidence] == searched


def _parallel_deviation(times, K):
    """Deviation of the parallel field sin(t) c of ``spherical_witness`` on ``K``, inf if none."""
    tol = rank_mod.DEFAULT_WEAK_TOL
    c, _, resid = rank_mod.spherical_witness(K)
    if resid > tol:
        return math.inf
    return rank_mod._field_deviation(K, np.sin(times)[:, None] * c, tol)[0]


class _RolledSampler:
    """A sampler's states rolled by ``shift`` rows, to move the fiber row within a chunk."""

    def __init__(self, sampler, shift):
        self.sampler, self.shift = sampler, shift

    def states(self, model):
        P, W = self.sampler.states(model)
        return np.roll(P, self.shift, axis=0), np.roll(W, self.shift, axis=0)


@pytest.mark.parametrize("eta", [1.2, 0.6], ids=["berger1.2-upper", "berger0.6-upper"])
def test_auto_deviations_equal_the_frame_route(eta):
    # upper Berger(0.6): the Killing witness fails on every row, so each falls to the
    # parallel field and the search on a frame sliced from the chunk's flow; upper
    # Berger(1.2): it holds, and only the fiber row, rolled to the second row of its
    # chunk, gets a frame
    model = sr.normalize_to_bound(sr.BergerSphere(eta), "upper")
    sampler = _RolledSampler(sr.GeodesicSampler(6, 3), 5)
    P, W = sampler.states(model)
    tol = rank_mod.DEFAULT_WEAK_TOL
    bundle = analyzed_bundle(model, P, W, math.pi, model_step(model))
    times, K, M, N = bundle["times"], bundle["K"], bundle["M"], second_solution(bundle)
    killing, _ = rank_mod._killing_deviations(model, bundle["V"], tol)
    assert math.isinf(killing[5]) and np.all(np.isfinite(killing[:5]))
    assert (eta < 1) == all(d > tol for d in killing)

    def chain(i):
        # the Killing field, then the parallel field, then the search, while above tol
        dev = killing[i]
        if dev > tol:
            dev = min(dev, _parallel_deviation(times, K[:, i]))
        if dev > tol:
            search = sr.weak_field_search(K[:, i], M[:, i], N[:, i], tol)
            dev = min(dev, search[0])
        return dev

    expected = [chain(i) for i in range(len(P))]
    verdict = sr.check_weak_spherical_rank(model, "upper", sampler, method="auto", chunk=4)
    assert [e.weak_deviation for e in verdict.evidence] == expected
    assert [e.passes for e in verdict.evidence] == [d <= tol for d in expected]


def test_a_chunk_of_parallel_and_searched_rows_equals_the_frame_route(monkeypatch):
    # No built-in model mixes the two in one chunk: upper CP^2's parallel field closes
    # every row.  A witness whose residual misses on rows 1 and 4 sends those on to
    # the search, which then solves for them alone.
    model = sr.normalize_to_bound(sr.ComplexProjective(2), "upper")
    sampler = sr.GeodesicSampler(6, 3)
    P, W = sampler.states(model)
    tol, searched = rank_mod.DEFAULT_WEAK_TOL, [1, 4]
    bundle = analyzed_bundle(model, P, W, math.pi, model_step(model), frame=False)
    times, K, M, N = bundle["times"], bundle["K"], bundle["M"], second_solution(bundle)
    expected = [
        sr.weak_field_search(K[:, i], M[:, i], N[:, i], tol)[0] if i in searched
        else _parallel_deviation(times, K[:, i])
        for i in range(len(P))
    ]
    assert all(d <= tol for d in expected)
    real = rank_mod.spherical_witness

    def witness(K):
        c, deviation, resid = real(K)
        resid[searched] = math.inf
        return c, deviation, resid

    monkeypatch.setattr(rank_mod, "spherical_witness", witness)
    solves = _rows_per_call(monkeypatch, "solve_jacobi_arrays")
    verdict = sr.check_weak_spherical_rank(model, "upper", sampler, method="auto", chunk=6)
    assert [e.weak_deviation for e in verdict.evidence] == expected
    assert solves == [len(searched)]


@pytest.mark.parametrize(
    "check, kwargs, name",
    [
        ("positive", {"chunk": 0}, "chunk"),
        ("positive", {"chunk": -4}, "chunk"),
        ("positive", {"chunk": 2.5}, "chunk"),
        ("weak", {"chunk": 0}, "chunk"),
        ("positive", {"curv_tol": math.nan}, "curv_tol"),
        ("positive", {"time_tol": -1e-6}, "time_tol"),
        ("positive", {"rank_tol": math.inf}, "rank_tol"),
        ("weak", {"tol": math.inf}, "tol"),
        ("weak", {"tol": -1e-6}, "tol"),
        ("positive", {"chunk": True}, "chunk"),
        ("weak", {"chunk": True}, "chunk"),
        ("positive", {"step": True}, "step"),
        ("weak", {"step": True}, "step"),
        # an infinite step would be one RK4 step over the whole window
        *((check, {"step": step}, "step") for step in (math.inf, math.nan, 0.0, -1.0)
          for check in ("positive", "weak")),
        # the window was run as 1.0, or rejected after a chunk's flow, or as a step
        *(("positive", {"event_window": w}, "event_window")
          for w in (True, -1.0, math.nan, math.inf)),
    ],
)
def test_rank_checks_reject_bad_chunks_and_tolerances(check, kwargs, name):
    # sec = 1 / 0.81 on the scaled sphere: a NaN curv_tol would skip the precondition
    sampler = sr.GeodesicSampler(2, 3)
    with pytest.raises(sr.ParameterError, match=f"^{name} must be"):
        if check == "positive":
            sr.check_positive_spherical_rank(sr.Scaled(sr.RoundSphere(2), 0.9), sampler, **kwargs)
        else:
            sr.check_weak_spherical_rank(sr.RoundSphere(2), "upper", sampler, **kwargs)


@pytest.mark.parametrize("check", ["positive", "weak"])
def test_a_diverged_integration_raises_domain_error(check):
    # at step 1.0 the flow on S^2 blows up (speed 56, then 9e44) and K is not finite
    sampler = sr.GeodesicSampler(2, 3)
    with pytest.raises(sr.DomainError, match="diverged"), np.errstate(all="ignore"):
        if check == "positive":
            sr.check_positive_spherical_rank(sr.RoundSphere(2), sampler, step=1.0)
        else:
            sr.check_weak_spherical_rank(sr.RoundSphere(2), "upper", sampler, step=1.0)


# ---------------------------------------------------------------------------
# the verdict rules at their boundaries


@pytest.mark.parametrize("time_tol", [1e-6, 1e-8])
@pytest.mark.parametrize("sign", [1, -1], ids=["eta-above-1", "eta-below-1"])
def test_near_round_berger_fails_on_both_sides(time_tol, sign):
    # Only the failing side is pinned: below the detection floor (|eps| near time_tol)
    # a non-CROSS passes by design, as passing means "indistinguishable from a CROSS
    # at this tolerance".  With sec <= 1 no conjugate time precedes pi; the first
    # events here lie 6 to 126 time_tol after it, so the window reaches past them.
    model = sr.normalize_to_bound(sr.BergerSphere(1 + sign * 10 * time_tol), "upper")
    verdict = sr.check_positive_spherical_rank(
        model, sr.GeodesicSampler(16, 3), time_tol, event_window=math.pi + 1e-3
    )
    assert verdict.status == "ok" and not verdict.holds
    off = [abs(e.events[0].time - math.pi) if e.events else math.inf for e in verdict.evidence]
    assert sum(d > time_tol for d in off) >= 15  # all but the fiber row of Berger(1 + eps)
    assert all(not e.passes for e, d in zip(verdict.evidence, off) if d > time_tol)


def test_an_event_before_pi_fails_its_geodesic(monkeypatch):
    # an extra event 50 time_tol before pi, injected into the first geodesic's events
    time_tol, real = rank_mod.DEFAULT_TIME_TOL, rank_mod.detect_events

    def detect(prop, window, rank_tol):
        events = real(prop, window, rank_tol=rank_tol)
        events[0].insert(0, sr.ConjugateEvent(math.pi - 50 * time_tol, 1))
        return events

    monkeypatch.setattr(rank_mod, "detect_events", detect)
    verdict = sr.check_positive_spherical_rank(sr.RoundSphere(2), sr.GeodesicSampler(3, 3))
    assert [e.passes for e in verdict.evidence] == [False, True, True]
    assert not verdict.holds and verdict.worst_case == 0


@pytest.mark.parametrize("factor, passes", [(1 / 3, False), (3, True)], ids=["d-over-3", "3d"])
def test_a_weak_row_passes_at_tol(factor, passes):
    # the fiber row of lower Berger(0.5) closes at a measured deviation d (about
    # 1.6e-10); a tol on either side of d decides that row, and only it
    model = sr.normalize_to_bound(sr.BergerSphere(0.5), "lower")
    sampler = sr.GeodesicSampler(4, 3)
    d = sr.check_weak_spherical_rank(model, "lower", sampler).evidence[0].weak_deviation
    verdict = sr.check_weak_spherical_rank(model, "lower", sampler, factor * d)
    assert [e.passes for e in verdict.evidence] == [passes, True, True, True]
    assert verdict.holds == passes


@pytest.mark.parametrize("resid, found", [(1e-5, False), (1e-7, True)])
def test_a_certificate_is_found_at_the_cert_tol(monkeypatch, resid, found):
    # a witness residual on either side of DEFAULT_CERT_TOL (1e-6) on every row
    real = rank_mod.spherical_witness

    def witness(K):
        c, deviation, _ = real(K)
        return c, deviation, np.full(K.shape[1], resid)

    monkeypatch.setattr(rank_mod, "spherical_witness", witness)
    verdict = sr.check_positive_spherical_rank(sr.ComplexProjective(2), sr.GeodesicSampler(3, 3))
    assert verdict.holds
    assert [e.has_certificate for e in verdict.evidence] == [found] * 3


def _alter_half_run(monkeypatch, alter):
    """Patch ``rank._beside`` so that ``alter`` rewrites the Richardson half run's
    per-geodesic events before the gaps are read."""
    real = rank_mod._beside

    def beside(first, second):
        result, halved = real(first, second)
        return result, alter(halved)

    monkeypatch.setattr(rank_mod, "_beside", beside)


def test_an_extra_half_run_event_is_an_infinite_gap(monkeypatch):
    # a count mismatch between the two runs is an infinite gap, never a gap of zero
    def extra(halved):
        halved[0].append(sr.ConjugateEvent(math.pi + 0.1, 1))
        return halved

    _alter_half_run(monkeypatch, extra)
    verdict = sr.check_positive_spherical_rank(
        sr.RoundSphere(3), sr.GeodesicSampler(3, 3), richardson=True
    )
    assert verdict.evidence[0].richardson_gap == math.inf
    assert [e.passes for e in verdict.evidence] == [False, True, True]
    assert not verdict.holds and verdict.worst_case == 0


@pytest.mark.parametrize("shift, passes", [(5e-7, False), (2e-8, True)])
def test_the_richardson_gap_is_judged_at_1e_7(monkeypatch, shift, passes):
    # literal shifts on either side of the agreement bound 1e-7, each far from
    # the discretization gap (< 1e-9 here)
    _alter_half_run(monkeypatch, lambda halved: [
        [sr.ConjugateEvent(e.time + shift, e.multiplicity) for e in row] for row in halved
    ])
    verdict = sr.check_positive_spherical_rank(
        sr.RoundSphere(3), sr.GeodesicSampler(3, 3), richardson=True
    )
    assert all(abs(e.richardson_gap - shift) < 1e-9 for e in verdict.evidence)
    assert [e.passes for e in verdict.evidence] == [passes] * 3
    assert verdict.status == "ok" and verdict.holds == passes


def _sphere_above_one():
    # exact curvature 1 / lam**2 = 1 + 10 curv_tol
    return sr.Scaled(sr.RoundSphere(3), (1 + 10 * rank_mod.DEFAULT_CURV_TOL) ** -0.5)


def test_a_curvature_bound_just_above_one_fails_before_any_flow(monkeypatch):
    def flow(*args):
        raise AssertionError("the flow ran")

    monkeypatch.setattr(rank_mod, "_flow", flow)
    verdict = sr.check_positive_spherical_rank(_sphere_above_one(), sr.GeodesicSampler(2, 3))
    assert verdict.status == "precondition-failed" and verdict.evidence == []
    assert verdict.detail.startswith("curvature bound 1.0000001 exceeds")


def test_a_sampled_curvature_just_above_one_fails(monkeypatch):
    # the stated maximum passes; the sampled K, 1 + 10 curv_tol everywhere, must not
    monkeypatch.setattr(rank_mod, "curvature_bounds",
                        lambda model: (model.curvature_bounds()[0], 1.0))
    verdict = sr.check_positive_spherical_rank(_sphere_above_one(), sr.GeodesicSampler(2, 3))
    assert verdict.status == "precondition-failed" and verdict.evidence == []
    assert verdict.detail.startswith("sampled curvature 1.0000001 exceeds")
