"""Spherical-rank verdicts aggregated over sampled geodesics.

"Every geodesic" is approximated by a seeded low-discrepancy sample of the
unit tangent bundle (plus forced special directions on Berger spheres).  For
each sampled geodesic the pipeline integrates the trajectory, transports a
parallel normal frame, assembles the curvature profile, and propagates the
Jacobi fundamental solution; geodesics in a chunk (``DEFAULT_CHUNK`` of them
unless ``chunk=`` says otherwise) advance in lockstep so the checks stay
fast, and each chunk's arrays are freed before the next chunk is built, so
memory is bounded by one chunk.  Verdicts are deterministic functions of
(model, sampler seed, tolerances), whatever the chunk size.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np
from scipy import linalg

from .errors import DomainError, NormalizationError, ParameterError
from .geodesics import (
    DEFAULT_STEP,
    GeodesicState,
    ParallelField,
    Trajectory,
    flow_arrays,
    frame_arrays,
    geodesic_flow,
    hermite_midpoints,  # noqa: F401 - perfbench/tracer.py wraps rank.hermite_midpoints
    time_grid,
)
from .geometry import (
    BergerSphere,
    Point,
    Scaled,
    Tangent,
    curvature_bounds,
    curvature_scan,
    points_from_uniforms,
    sobol_uniforms,
    tangents_from_uniforms,
    uniform_dims,
    unwrap,
)
from .jacobi import (
    CurvatureProfile,
    JacobiPropagator,
    detect_events,
    interval_midpoints,
    profile_arrays,
    solve_jacobi_arrays,
    spherical_witness,
)

DEFAULT_CHUNK = 128
DEFAULT_CERT_TOL = 1e-6
RICHARDSON_AGREEMENT = 1e-7

POSITIVE_SPHERICAL = "positive-spherical"
WEAK_UPPER = "weak-upper"
WEAK_LOWER = "weak-lower"


# ---------------------------------------------------------------------------
# sampling


@dataclass(frozen=True)
class GeodesicSampler:
    """Deterministic sample of unit-speed initial conditions.

    ``include-special`` forces the Hopf fiber direction and a purely
    horizontal direction into Berger-sphere samples (it is a no-op for the
    other models, which have no distinguished directions).
    """

    count: int
    seed: int
    stratification: str = "include-special"

    def __post_init__(self):
        if self.count < 1:
            raise ParameterError("sampler count must be >= 1")
        if self.stratification not in ("uniform", "include-special"):
            raise ParameterError("stratification must be 'uniform' or 'include-special'")

    def states(self, model):
        """Initial (points, unit velocities) arrays of shape (count, .)."""
        dp, dt = uniform_dims(model)
        u = sobol_uniforms(dp + dt, self.count, self.seed)
        P = points_from_uniforms(model, u[:, :dp])
        W = tangents_from_uniforms(model, P, u[:, dp:])
        core, _ = unwrap(model)
        if self.stratification == "include-special" and isinstance(core, BergerSphere):
            P = np.array(P)
            W = np.array(W)
            P[0] = np.array([1.0, 0.0, 0.0, 0.0])
            fiber = np.array([1.0, 0.0, 0.0])
            W[0] = fiber / math.sqrt(float(model.inner(fiber, fiber)))
            if self.count >= 2:
                P[1] = np.array([1.0, 0.0, 0.0, 0.0])
                horiz = np.array([0.0, 1.0, 0.0])
                W[1] = horiz / math.sqrt(float(model.inner(horiz, horiz)))
        return P, W


# ---------------------------------------------------------------------------
# verdict containers


@dataclass(eq=False)
class RankEvidence:
    """Per-geodesic record backing a rank verdict.

    ``weak_deviation`` is max |sec(gamma', J) - 1| of the best field found;
    on a failing geodesic that field is the least-squares one of
    ``weak_field_search``, not a minimax optimum.
    """

    index: int
    point: np.ndarray
    velocity: np.ndarray
    events: list
    passes: bool
    has_certificate: bool | None = None
    certificate_deviation: float | None = None
    weak_deviation: float | None = None
    excluded_samples: int = 0
    richardson_gap: float | None = None


@dataclass(eq=False)
class RankVerdict:
    """Aggregate decision for a rank property over the sampled geodesics."""

    property_name: str
    holds: bool
    status: str  # "ok" or "precondition-failed"
    evidence: list
    worst_case: int | None
    detail: str

    @property
    def precondition_ok(self):
        return self.status == "ok"


# ---------------------------------------------------------------------------
# normalization


def normalize_to_bound(model, bound):
    """Scale the metric so the requested curvature extreme becomes exactly 1.

    The exact closed-form extremes of the built-in models are used (the
    sampled scan systematically undershoots isolated extremes).
    """
    if bound not in ("upper", "lower"):
        raise ParameterError("bound must be 'upper' or 'lower'")
    lo, hi = curvature_bounds(model)
    extreme = hi if bound == "upper" else lo
    if extreme <= 0:
        raise NormalizationError(
            f"{bound} curvature bound {extreme:.6g} is not positive; cannot normalize to 1"
        )
    return Scaled(model, math.sqrt(extreme))


# ---------------------------------------------------------------------------
# batched pipeline


def _by_chunk(n, size, analyze):
    """The results of ``analyze(a, b)`` over the chunks [a, b) of range(n), concatenated.

    Each chunk is analyzed in a call of its own, so its arrays are freed
    before the next chunk is built.
    """
    return [r for a in range(0, n, size) for r in analyze(a, min(n, a + size))]


def _bundle(model, P, W, horizon, step, frame=True):
    """Integrate a geodesic bundle at ``step`` and analyze it on a 2x-coarser grid.

    The analysis grid is ``time_grid(horizon, 2 * step)`` (one interval when
    the horizon is shorter); frames, curvature profiles, and Jacobi
    propagation run on it (all schemes stay 4th order, so the coarser grid
    changes results at the 1e-11 level while halving the work).  The flow is
    integrated on that grid together with the exact midpoint of every
    interval, the ragged last one included, so the midpoint states that
    frame transport reads are flow samples.  With ``frame=False`` the states
    and the frame are dropped once K exists (the positive check reads only K).
    """
    times = time_grid(horizon, min(2 * step, horizon))
    fine = np.empty(2 * len(times) - 1)
    fine[::2], fine[1::2] = times, 0.5 * (times[:-1] + times[1:])
    X, V = flow_arrays(model, P, W, fine)
    # copies, so the fine flow is freed before transport
    Xm, Vm = X[1::2].copy(), V[1::2].copy()
    X, V = X[::2].copy(), V[::2].copy()
    E = frame_arrays(model, times, X, V, Xm, Vm)
    del Xm, Vm
    K, defect = profile_arrays(model, V, E)
    bundle = {"times": times, "K": K, "defect": defect, "step": 2 * step}
    if frame:
        bundle.update(X=X, V=V, E=E)
    del X, V, E
    bundle["Kmid"] = interval_midpoints(times, K)
    return bundle


def _propagate_bundle(bundle, with_second=False):
    times, K, Kmid = bundle["times"], bundle["K"], bundle["Kmid"]
    B, k = K.shape[1], K.shape[-1]
    eye = np.broadcast_to(np.eye(k), (B, k, k)).copy()
    ics = (np.zeros((B, k, k)), eye)
    M, Mp = solve_jacobi_arrays(times, K, Kmid, *ics)
    out = {"M": M, "Mp": Mp}
    if with_second:
        N, Np = solve_jacobi_arrays(times, K, Kmid, eye, np.zeros((B, k, k)))
        out["N"] = N
    return out


def _views(model, bundle, sols, b):
    """Per-geodesic profile/propagator objects backed by bundle slices.

    A bundle built with ``frame=False`` gives a profile with no trajectory
    and no frame fields: its K and the solutions are all detection reads.
    """
    times = bundle["times"]
    traj, fields = None, []
    if "E" in bundle:
        traj = Trajectory(model, times, bundle["X"][:, b], bundle["V"][:, b], bundle["step"])
        fields = [ParallelField(traj, bundle["E"][:, b, a]) for a in range(bundle["E"].shape[2])]
    profile = CurvatureProfile(traj, fields, bundle["K"][:, b], float(bundle["defect"][b]))
    prop = JacobiPropagator(profile, times, sols["M"][:, b], sols["Mp"][:, b])
    return profile, prop


# ---------------------------------------------------------------------------
# positive spherical rank


def check_positive_spherical_rank(
    model,
    sampler,
    time_tol=1e-6,
    curv_tol=1e-8,
    *,
    step=DEFAULT_STEP,
    event_window=None,
    richardson=False,
    rank_tol=1e-7,
    chunk=DEFAULT_CHUNK,
):
    """Decide whether every sampled geodesic is conjugate exactly at pi.

    A geodesic passes when it has a conjugate event within ``time_tol`` of pi
    and none earlier.  Requires sectional curvature at most 1 + ``curv_tol``;
    a violated bound yields the distinct "precondition-failed" status rather
    than ``holds = False``.
    """
    def unmet(what, sec):
        detail = f"{what} {sec:.9g} exceeds 1 + {curv_tol:g}"
        return RankVerdict(POSITIVE_SPHERICAL, False, "precondition-failed", [], None, detail)

    lo, hi = curvature_bounds(model)
    if hi > 1.0 + curv_tol:
        return unmet("curvature bound", hi)
    window_end = float(event_window) if event_window is not None else math.pi + time_tol
    horizon = max(math.pi, window_end) + 0.05

    P, W = sampler.states(model)
    evidence = []
    sampled_sec_max = -math.inf

    def chunk_events(a, b, step_, with_cert):
        nonlocal sampled_sec_max
        bundle = _bundle(model, P[a:b], W[a:b], horizon, step_, frame=False)
        sols = _propagate_bundle(bundle)
        sampled_sec_max = max(
            sampled_sec_max, float(np.max(np.linalg.eigvalsh(bundle["K"][::4])))
        )
        out = []
        for i in range(b - a):
            profile, prop = _views(model, bundle, sols, i)
            events = detect_events(prop, (0.0, window_end), rank_tol=rank_tol)
            cert = spherical_witness(profile.K, DEFAULT_CERT_TOL) if with_cert else None
            out.append((events, cert))
        return out

    primary = _by_chunk(len(P), chunk, lambda a, b: chunk_events(a, b, step, True))
    gaps = {}
    if richardson:
        halved = _by_chunk(len(P), chunk, lambda a, b: chunk_events(a, b, step / 2.0, False))
        for idx in range(len(P)):
            t1 = [e.time for e in primary[idx][0]]
            t2 = [e.time for e in halved[idx][0]]
            diffs = [abs(x - y) for x, y in zip(t1, t2)]
            gaps[idx] = max(diffs, default=0.0) if len(t1) == len(t2) else math.inf

    if sampled_sec_max > 1.0 + curv_tol:
        return unmet("sampled curvature", sampled_sec_max)

    for idx, (events, cert) in enumerate(primary):
        pi_events = [e for e in events if abs(e.time - math.pi) <= time_tol]
        early = [e for e in events if e.time < math.pi - time_tol]
        ok = bool(pi_events) and not early
        gap = gaps.get(idx)
        if gap is not None and not (gap <= RICHARDSON_AGREEMENT):
            ok = False
        evidence.append(
            RankEvidence(
                index=idx,
                point=P[idx],
                velocity=W[idx],
                events=events,
                passes=ok,
                has_certificate=cert is not None,
                certificate_deviation=cert[1] if cert is not None else None,
                richardson_gap=gap,
            )
        )

    holds = all(e.passes for e in evidence)
    if holds:
        worst = max(
            evidence,
            key=lambda e: min(
                (abs(ev.time - math.pi) for ev in e.events), default=math.inf
            ),
        ).index
        detail = f"all {len(evidence)} sampled geodesics conjugate at pi within {time_tol:g}"
    else:
        worst = next(e.index for e in evidence if not e.passes)
        detail = f"geodesic {worst} violates the conjugate-at-pi condition"
    detail += f"; max sampled sec = {sampled_sec_max:.9g}"
    return RankVerdict(
        property_name=POSITIVE_SPHERICAL,
        holds=holds,
        status="ok",
        evidence=evidence,
        worst_case=worst,
        detail=detail,
    )


# ---------------------------------------------------------------------------
# weak spherical rank


def _killing_field(model, V):
    """Hopf direction minus its g-projection onto the velocities ``V``."""
    hopf = np.zeros_like(V)
    hopf[..., 0] = 1.0
    num = model.inner(hopf, V)
    den = model.inner(V, V)
    return hopf - (num / den)[..., None] * V


def killing_jacobi_field(model, trajectory):
    """Normal part of the Hopf Killing field along a Berger-sphere geodesic.

    Returns frame-coefficient samples aligned with ``trajectory.times``.  The
    Killing field is the left-invariant Hopf direction itself; subtracting
    its g-projection onto the velocity leaves a normal Jacobi field spanning
    a plane of curvature eta^2 (in the unscaled metric) with the velocity.
    """
    core, _ = unwrap(model)
    if not isinstance(core, BergerSphere):
        raise DomainError("killing_jacobi_field requires a Berger sphere")
    return _killing_field(model, trajectory.velocities)


def _field_deviation(times, K, Y, tol):
    """Deviation of sec(gamma', J) from 1 for frame samples ``Y`` (T, k)."""
    norms = np.linalg.norm(Y, axis=-1)
    included = norms > tol
    if not np.any(included):
        return math.inf, int(len(times))
    n2 = norms**2
    sec = np.einsum("ti,tij,tj->t", Y, K, Y) / np.where(included, n2, 1.0)
    return float(np.max(np.abs(sec[included] - 1.0))), int(np.sum(~included))


def _killing_deviation(model, times, V, E, K, tol):
    """(deviation, excluded count) of the Killing witness for one geodesic."""
    y = model.inner(_killing_field(model, V)[:, None, :], E)
    dev, excluded = _field_deviation(times, K, y, tol)
    if excluded == len(times):
        # vertical geodesic: every plane through the velocity must be extremal
        dev = float(np.max(np.abs(np.linalg.eigvalsh(K) - 1.0)))
    return dev, excluded


def weak_field_search(times, K, M, N, tol):
    """Normal Jacobi field closest to spanning curvature-1 planes with gamma'.

    A normal Jacobi field is J = N a + M b with the precomputed fundamental
    matrices ``N`` (value) and ``M`` (derivative), i.e. J = B s with
    B = [N M] and s = (a, b).  On a normalized model K - I is semidefinite,
    so sec(gamma', J) = 1 wherever J != 0 exactly when (K - I) J = 0.  The
    returned s is the lowest eigenvector of the pencil
    (sum_t B^T (K - I)^2 B, sum_t B^T B): a field with sec = 1 exists exactly
    when its eigenvalue is zero.  On a failing geodesic the deviation is that
    of this least-squares field, not a minimax optimum.
    Returns (deviation, excluded samples, unit initial condition s).
    """
    k = K.shape[-1]
    B = np.concatenate([N, M], axis=-1)
    D = (K - np.eye(k)) @ B
    A = np.einsum("tia,tib->ab", D, D)
    C = np.einsum("tia,tib->ab", B, B)
    s = linalg.eigh(A, C, subset_by_index=[0, 0])[1][:, 0]
    s /= np.linalg.norm(s)
    dev, excluded = _field_deviation(times, K, B @ s, tol)
    return dev, excluded, s


def check_weak_spherical_rank(
    model,
    side,
    sampler,
    tol=1e-5,
    *,
    step=DEFAULT_STEP,
    method="auto",
    chunk=DEFAULT_CHUNK,
):
    """Decide whether every sampled geodesic carries a normal Jacobi field
    spanning a curvature-1 plane with the velocity.

    ``side`` states which curvature bound the model was normalized to; the
    model must already be normalized (the relevant exact bound equal to 1
    within ``tol``).  ``method`` selects the witness: "auto" tries the
    closed-form witness and falls back to the search, "witness" and "search"
    force one route.
    """
    if side not in ("upper", "lower"):
        raise ParameterError("side must be 'upper' or 'lower'")
    if method not in ("auto", "witness", "search"):
        raise ParameterError("method must be 'auto', 'witness', or 'search'")
    lo, hi = curvature_bounds(model)
    bound = hi if side == "upper" else lo
    if abs(bound - 1.0) > tol:
        raise ParameterError(
            f"model is not normalized: {side} bound is {bound:.9g}, expected 1"
        )
    core, _ = unwrap(model)
    berger = isinstance(core, BergerSphere)
    prop_name = WEAK_UPPER if side == "upper" else WEAK_LOWER

    P, W = sampler.states(model)
    uses_search = method == "search"
    want_second = uses_search or method == "auto"

    def chunk_evidence(a, b):
        bundle = _bundle(model, P[a:b], W[a:b], math.pi, step)
        sols = _propagate_bundle(bundle, with_second=want_second)
        times, K, E, V = bundle["times"], bundle["K"], bundle["E"], bundle["V"]
        out = []
        for i in range(b - a):
            idx = a + i
            dev, excluded = math.inf, 0
            if not uses_search:
                if berger:
                    dev, excluded = _killing_deviation(
                        model, times, V[:, i], E[:, i], K[:, i], tol
                    )
                else:
                    hit = spherical_witness(K[:, i], max(tol, 1e-8))
                    if hit is not None:
                        y = np.sin(times)[:, None] * hit[0]
                        dev, excluded = _field_deviation(times, K[:, i], y, tol)
            if dev > tol and method != "witness":
                dev_s, excluded_s, _ = weak_field_search(
                    times, K[:, i], sols["M"][:, i], sols["N"][:, i], tol
                )
                if dev_s < dev:
                    dev, excluded = dev_s, excluded_s
            out.append(
                RankEvidence(
                    index=idx,
                    point=P[idx],
                    velocity=W[idx],
                    events=[],
                    passes=bool(dev <= tol),
                    weak_deviation=float(dev),
                    excluded_samples=excluded,
                )
            )
        return out

    evidence = _by_chunk(len(P), chunk, chunk_evidence)
    holds = all(e.passes for e in evidence)
    worst = max(evidence, key=lambda e: e.weak_deviation).index
    if holds:
        detail = f"all {len(evidence)} geodesics carry a curvature-1 Jacobi field"
    else:
        detail = f"geodesic {worst} has deviation {max(e.weak_deviation for e in evidence):.3g}"
    return RankVerdict(
        property_name=prop_name,
        holds=holds,
        status="ok",
        evidence=evidence,
        worst_case=worst,
        detail=detail,
    )


# ---------------------------------------------------------------------------
# Berger family report


@dataclass(eq=False)
class BergerReportRow:
    """One row of the Berger-sphere family survey."""

    eta: float
    sec_min_exact: float
    sec_max_exact: float
    sec_min_scanned: float
    sec_max_scanned: float
    fiber_time: float
    positively_curved: bool
    positive_spherical_rank: bool
    weak_upper: bool
    weak_lower: bool | None
    lower_normalizable: bool
    note: str

    def as_dict(self):
        return asdict(self)


def _golden_minimize(f, a, b, tol):
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    while (b - a) > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


def measure_fiber_time(eta, step=DEFAULT_STEP):
    """Arc length at which the integrated Hopf-fiber geodesic first closes up."""
    model = BergerSphere(eta)
    q0 = np.array([1.0, 0.0, 0.0, 0.0])
    fiber = np.array([1.0 / eta, 0.0, 0.0])
    period = 2.0 * math.pi * eta
    p0 = Point(q0)
    traj = geodesic_flow(
        model, GeodesicState(p0, Tangent(p0, fiber)), 1.25 * period, step
    )
    d = np.linalg.norm(traj.points - q0, axis=-1)
    window = (traj.times > 0.5 * period) & (traj.times < 1.25 * period)
    idx = np.nonzero(window)[0]
    j = idx[np.argmin(d[idx])]
    a = traj.times[max(j - 1, 0)]
    b = traj.times[min(j + 1, len(traj.times) - 1)]

    def dist(t):
        return np.linalg.norm(traj.state_at(t).point.coordinates - q0)

    return float(_golden_minimize(dist, a, b, 1e-9))


def berger_report(etas, sampler, *, step=DEFAULT_STEP, scan_samples=10000):
    """Survey rows for a list of Berger parameters (curvature range, fiber
    closure time, and the three rank verdicts)."""
    etas = list(etas)
    if not etas:
        raise ParameterError("eta list must not be empty")
    rows = []
    for eta in etas:
        if eta <= 0:
            raise ParameterError("eta must be positive")
        model = BergerSphere(eta)
        lo, hi = curvature_bounds(model)
        scan = curvature_scan(model, scan_samples, 0)
        fiber_time = measure_fiber_time(eta, step=step)
        upper = normalize_to_bound(model, "upper")
        positive = check_positive_spherical_rank(upper, sampler, step=step)
        weak_up = check_weak_spherical_rank(upper, "upper", sampler, step=step)
        notes = []
        if lo <= 0:
            notes.append("not positively curved; lower bound <= 0, lower normalization impossible")
            weak_low = None
            lower_ok = False
        else:
            lower = normalize_to_bound(model, "lower")
            weak_low = check_weak_spherical_rank(lower, "lower", sampler, step=step).holds
            lower_ok = True
        rows.append(
            BergerReportRow(
                eta=float(eta),
                sec_min_exact=lo,
                sec_max_exact=hi,
                sec_min_scanned=scan.minimum,
                sec_max_scanned=scan.maximum,
                fiber_time=fiber_time,
                positively_curved=bool(lo > 0),
                positive_spherical_rank=bool(positive.holds),
                weak_upper=bool(weak_up.holds),
                weak_lower=weak_low,
                lower_normalizable=lower_ok,
                note="; ".join(notes),
            )
        )
    return rows
