"""Spherical-rank verdicts aggregated over sampled geodesics.

"Every geodesic" is approximated by a seeded low-discrepancy sample of the
unit tangent bundle (plus the model's forced ``special_directions``).  The
geodesics of a chunk (``DEFAULT_CHUNK`` unless ``chunk=`` says otherwise)
advance in lockstep as plain arrays: ``_flow`` integrates their states,
``_curvature`` reads the curvature profile K off a parallel normal frame,
and each check propagates the Jacobi fundamental solution from K itself
(the weak check skips the frame where the Killing field gives the answer).
The frame is freed inside ``_curvature``, the states before propagation,
a chunk before the next.  When a second core is free, ``_beside`` runs one
stage in a forked child, placed off its parent's CPU, beside another:

* a chunk's Richardson half-step run beside the run at ``step``;
* the second row half of a chunk without a Richardson pair beside the first
  (``_by_chunk``);
* a ``berger_report`` row's weak-lower check beside its fiber time and
  upper-normalized checks.

No process forks while a child of ``_beside`` runs, and a child forks none
of its own, so at most two processes share the CPUs.  A Richardson chunk
keeps its step / half-step pair rather than splitting its rows: two busy
processes slow each other down on a shared 2-core machine, where the row
split was the slower of the two on ``sphere-bundle`` (README, "The second
core").  Verdicts are deterministic functions of (model, sampler seed,
tolerances), whatever the chunk size and either way.
"""

from __future__ import annotations

import math
import os
import pickle
import signal
from dataclasses import asdict, dataclass

import numpy as np
from scipy import linalg

from .errors import DomainError, NormalizationError, ParameterError
from .geodesics import (
    PROFILE_BLOCK,
    GeodesicState,
    flow_arrays,
    frame_arrays,
    geodesic_flow,
    hermite_midpoints,
    model_step,
    positive_step,
    time_grid,
)
from .geometry import (
    BergerSphere,
    Point,
    Scaled,
    Tangent,
    _check_integer,
    curvature_bounds,
    curvature_scan,
    points_from_uniforms,
    sec_from_components,
    sobol_uniforms,
    tangents_from_uniforms,
)
from .jacobi import (
    DEFAULT_RANK_TOL,
    JacobiPropagator,
    _singular_times,
    detect_events,
    interval_midpoints,
    profile_arrays,
    solve_jacobi_arrays,
    spherical_witness,
)

DEFAULT_CHUNK = 128
DEFAULT_CERT_TOL = 1e-6
DEFAULT_TIME_TOL = 1e-6
DEFAULT_CURV_TOL = 1e-8
DEFAULT_WEAK_TOL = 1e-5
RICHARDSON_AGREEMENT = 1e-7
# a flow row whose final |speed - 1| reaches this diverged; the max over a
# chunk is at most 3e-11 at every default step, 4.5e-9 at step 0.02 on S^2
# and 7.4e6 at step 2.0 there
DIVERGED_SPEED = 1e-3

POSITIVE_SPHERICAL = "positive-spherical"
# the curvature bound (``bound`` / ``side``) each weak property normalizes to
WEAK_SIDES = {"weak-upper": "upper", "weak-lower": "lower"}
BOUNDS = tuple(WEAK_SIDES.values())
PROPERTIES = (POSITIVE_SPHERICAL, *WEAK_SIDES)
STRATIFICATIONS = ("uniform", "include-special")


# ---------------------------------------------------------------------------
# sampling


@dataclass(frozen=True)
class GeodesicSampler:
    """Deterministic sample of unit-speed initial conditions.

    ``include-special`` puts the model's ``special_directions`` (on Berger
    spheres the Hopf fiber and a purely horizontal direction), g-normalized,
    in the first rows; it is a no-op on models without any.
    """

    count: int
    seed: int
    stratification: str = STRATIFICATIONS[1]

    def __post_init__(self):
        _check_integer(self.count, 1, "count")
        _check_integer(self.seed, 0, "seed")
        if self.stratification not in STRATIFICATIONS:
            raise ParameterError(f"stratification must be one of {STRATIFICATIONS}")

    def states(self, model):
        """Initial (points, unit velocities) arrays of shape (count, .)."""
        dp = model.point_dim
        u = sobol_uniforms(dp + model.tangent_dim, self.count, self.seed)
        P = points_from_uniforms(model, u[:, :dp])
        W = tangents_from_uniforms(model, P, u[:, dp:])
        if self.stratification == "include-special":
            for i, state in zip(range(self.count), _special_states(model).values()):
                P[i], W[i] = state.point.coordinates, state.velocity.components
        return P, W


def _special_states(model):
    """The model's ``special_directions`` as states of unit speed."""
    states = {}
    for name, (q, w) in model.special_directions().items():
        p = Point(q)
        states[name] = GeodesicState(p, Tangent(p, w / math.sqrt(float(model.inner(w, w)))))
    return states


# ---------------------------------------------------------------------------
# verdict containers


@dataclass(eq=False)
class RankEvidence:
    """Per-geodesic record backing a rank verdict.

    ``weak_deviation`` is max |sec(gamma', J) - 1| of the best field found,
    over the samples where |J| > tol (``excluded_samples`` counts the
    others), and inf when no field was found.  For the Killing field it is
    read from the curvature tensor at each sample, so it carries no frame's
    error; the parallel and searched fields are read through the frame's K.
    On a failing geodesic the field is the least-squares one of
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


# ---------------------------------------------------------------------------
# normalization


def normalize_to_bound(model, bound):
    """Scale the metric so the requested curvature extreme becomes exactly 1.

    The exact closed-form extremes of the built-in models are used (the
    sampled scan systematically undershoots isolated extremes).
    """
    if bound not in BOUNDS:
        raise ParameterError(f"bound must be one of {BOUNDS}")
    lo, hi = curvature_bounds(model)
    extreme = hi if bound == "upper" else lo
    if extreme <= 0:
        raise NormalizationError(
            f"{bound} curvature bound {extreme:.6g} is not positive; cannot normalize to 1"
        )
    return Scaled(model, math.sqrt(extreme))


# ---------------------------------------------------------------------------
# batched pipeline


def _check_arguments(chunk, lengths, **tolerances):
    """``ParameterError`` naming the argument unless ``chunk`` is an integer >= 1,
    each of the ``lengths`` (name: value; the step, the event window) is None
    (the check's default) or a finite positive number, and every tolerance is
    a finite positive number; a bool is not a number here."""
    _check_integer(chunk, 1, "chunk")
    # an infinite step is one RK4 step over the whole window
    given = {name: value for name, value in lengths.items() if value is not None}
    for name, value in {**given, **tolerances}.items():
        if isinstance(value, bool):  # True would run as 1 (``time_grid`` an int step)
            raise ParameterError(f"{name} must be a number, got {value!r}")
        if not 0 < value < math.inf:  # NaN fails too
            raise ParameterError(f"{name} must be finite and positive, got {value!r}")


def _by_chunk(n, size, analyze, split=True):
    """The per-row results of ``analyze(a, b)`` over the chunks [a, b) of
    range(n), concatenated.

    Each chunk is analyzed in a call of its own, so its arrays are freed
    before the next chunk is built.  With ``split``, a chunk of 2 rows or
    more is analyzed as two row halves, the second in a forked child beside
    the first (``_beside``), when ``_may_fork()``; rows are independent, so
    the halves give the rows of the whole chunk bit for bit.  Otherwise the
    chunk runs whole: two halves in one process would each pay the per-stage
    overhead that dominates a small chunk.
    """

    def rows(a, b):
        if split and b - a >= 2 and _may_fork():
            m = (a + b) // 2
            left, right = _beside(lambda: analyze(a, m), lambda: analyze(m, b))
            return left + right
        return analyze(a, b)

    return [r for a in range(0, n, size) for r in rows(a, min(n, a + size))]


def _second_core_free():
    """Whether a forked child can run beside this process: ``os.fork`` exists,
    the process may run on at least 2 CPUs, and it runs exactly one OS thread
    (``/proc/self/task``; where that cannot be read, no).  A fork copies only
    the calling thread, so a process with more never forks."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return False
    if len(os.sched_getaffinity(0)) < 2:
        return False
    try:
        return len(os.listdir("/proc/self/task")) == 1
    except OSError:
        return False


# True while a child of ``_beside`` runs, in the parent and (inherited) in the
# child: neither forks again, so a stage run beside a child never puts a third
# process on the CPUs the two share
_child_running = False


def _may_fork():
    """Whether ``_beside`` would fork now: no child of it is running and
    ``_second_core_free()``."""
    return not _child_running and _second_core_free()


def _current_cpu():
    """The CPU this process last ran on, field 39 of ``/proc/self/stat`` (read
    after the last ")", which closes the command name), or None where that
    cannot be read."""
    try:
        with open("/proc/self/stat", "rb") as stat:
            return int(stat.read().rsplit(b")", 1)[1].split()[36])
    except (OSError, ValueError, IndexError):
        return None


def _beside(first, second):
    """``(first(), second())``, with ``second`` run in a forked child beside
    ``first`` when ``_may_fork()``, and after it otherwise.

    The kernel often leaves a forked child on its parent's CPU, so the child
    takes the parent's CPU out of its own affinity before it runs ``second``
    (where that CPU cannot be read or the call fails, it runs where it is);
    the parent's affinity is never touched.  Neither forks again until the
    parent has reaped the child (``_child_running``).  The child sends
    ``second``'s result back pickled through a pipe and ends with
    ``os._exit``; the parent always reaps it, killing it first if ``first``
    raises.  A child that sends nothing (``second`` raised, it was killed, or
    its result would not pickle) exits non-zero, and ``second`` then runs
    here after ``first``, so its error carries its own frames.
    """
    global _child_running
    pid = None
    if _may_fork():
        cpu = _current_cpu()
        read_end, write_end = os.pipe()
        _child_running = True
        try:
            pid = os.fork()
        except OSError:
            _child_running = False
            os.close(read_end)
            os.close(write_end)
    if pid is None:
        return first(), second()
    if pid == 0:
        code = 1
        try:
            os.close(read_end)
            if cpu is not None:
                try:
                    os.sched_setaffinity(0, os.sched_getaffinity(0) - {cpu})
                except OSError:
                    pass
            with os.fdopen(write_end, "wb") as pipe:
                pipe.write(pickle.dumps(second(), pickle.HIGHEST_PROTOCOL))
            code = 0
        finally:
            os._exit(code)
    os.close(write_end)
    try:
        with os.fdopen(read_end, "rb") as pipe:
            result = first()
            sent = pipe.read()
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        raise
    finally:
        status = os.waitpid(pid, 0)[1]
        _child_running = False
    if os.waitstatus_to_exitcode(status) != 0:
        return result, second()
    return result, pickle.loads(sent)


def _flow(model, P, W, horizon, step):
    """The grid ``time_grid(horizon, 2 * step)`` (one interval when the horizon
    is shorter) and the geodesics' states X, V on it.

    The rows start at unit speed; one that ends off it by ``DIVERGED_SPEED``
    or more (or not finite) diverged, and ``DomainError`` says so before any
    later stage meets its arrays.  The speed error grows along the flow, so
    only the last states are read: on S^n, CP^2 and Berger spheres, from
    the default step to 2.0, their error was the whole grid's largest, or
    both were above 1e2.
    """
    times = time_grid(horizon, min(2 * step, horizon))
    X, V = flow_arrays(model, P, W, times)
    if not np.max(np.abs(np.sqrt(model.inner(V[-1], V[-1])) - 1.0)) < DIVERGED_SPEED:
        raise DomainError("the integration diverged; a smaller step may help")
    return times, X, V


def _curvature(model, times, X, V):
    """The curvature profile K of a ``_flow`` bundle and its symmetry defect per
    geodesic.

    The frame, the curvature profile and the Jacobi propagation all run on
    the flow's grid, and the frame reads its midpoint states from
    ``hermite_midpoints``: the scheme of a single geodesic, so each row of a
    bundle at ``step`` is bit for bit the geodesic of ``geodesic_flow`` at
    ``2 * step``.  The frame is freed once K exists: the rank checks read
    only K.
    """
    E = frame_arrays(model, times, X, V, *hermite_midpoints(model, times, X, V))
    K, defect = profile_arrays(model, V, E)
    del E
    return K, defect


# ---------------------------------------------------------------------------
# positive spherical rank


def check_positive_spherical_rank(
    model,
    sampler,
    time_tol=DEFAULT_TIME_TOL,
    curv_tol=DEFAULT_CURV_TOL,
    *,
    step=None,
    event_window=None,
    richardson=False,
    rank_tol=DEFAULT_RANK_TOL,
    chunk=DEFAULT_CHUNK,
):
    """Decide whether every sampled geodesic is conjugate exactly at pi.

    A geodesic passes when it has a conjugate event within ``time_tol`` of pi
    and none earlier.  Requires sectional curvature at most 1 + ``curv_tol``;
    a violated bound yields the distinct "precondition-failed" status rather
    than ``holds = False``; the sampled curvature is read from K at ``step``.
    ``step`` None takes ``positive_step(model)``, 5/3 of ``model_step``: this
    check's Richardson gap and |t - pi| stay at least 100x inside their
    bounds there (README, "Step and accuracy").  With ``richardson`` each
    chunk runs again at ``step / 2``, and the two runs' event times must
    agree; the half run goes to a second core when ``_beside`` finds one
    free, else it follows once the K at ``step`` is freed.
    """
    _check_arguments(chunk, {"step": step, "event_window": event_window},
                     time_tol=time_tol, curv_tol=curv_tol, rank_tol=rank_tol)
    step = positive_step(model) if step is None else step

    def unmet(what, sec):
        detail = f"{what} {sec:.9g} exceeds 1 + {curv_tol:g}"
        return RankVerdict(POSITIVE_SPHERICAL, False, "precondition-failed", [], None, detail)

    lo, hi = curvature_bounds(model)
    if hi > 1.0 + curv_tol:
        return unmet("curvature bound", hi)
    window_end = float(event_window) if event_window is not None else math.pi + time_tol
    horizon = max(math.pi, window_end) + 0.05

    P, W = sampler.states(model)

    def chunk_evidence(a, b):
        """The chunk's rows at ``step`` and, with Richardson, at ``step / 2``
        beside them (``_beside``): (evidence, the row's sampled sec maximum)."""

        def curvature(step_):
            times, X, V = _flow(model, P[a:b], W[a:b], horizon, step_)
            return times, _curvature(model, times, X, V)[0]

        def conjugate_events(times, K):
            M, Mp = solve_jacobi_arrays(times, K, interval_midpoints(times, K),
                                        np.zeros(K.shape[1:]),
                                        np.broadcast_to(np.eye(K.shape[-1]), K.shape[1:]))
            prop = JacobiPropagator(times, K, M, Mp)
            return detect_events(prop, (0.0, window_end), rank_tol=rank_tol)

        def primary():
            """The events at ``step``, with the certificates and each row's
            sampled curvature maximum read from its K; K is freed on return."""
            times, K = curvature(step)
            _, cert_dev, cert_resid = spherical_witness(K)
            sec_max = np.max(np.linalg.eigvalsh(K), axis=(0, 2))
            return conjugate_events(times, K), cert_dev, cert_resid, sec_max

        if richardson:
            (found, cert_dev, cert_resid, sec_max), halved = _beside(
                primary, lambda: conjugate_events(*curvature(step / 2.0))
            )
        else:
            found, cert_dev, cert_resid, sec_max = primary()
        rows = []
        for i, events in enumerate(found):
            at_pi = any(abs(e.time - math.pi) <= time_tol for e in events)
            ok = at_pi and not any(e.time < math.pi - time_tol for e in events)
            gap = None
            if richardson:
                diffs = [abs(x.time - y.time) for x, y in zip(events, halved[i])]
                gap = max(diffs, default=0.0) if len(events) == len(halved[i]) else math.inf
                ok = ok and gap <= RICHARDSON_AGREEMENT
            cert = bool(cert_resid[i] <= DEFAULT_CERT_TOL)
            evidence = RankEvidence(
                index=a + i,
                point=P[a + i],
                velocity=W[a + i],
                events=events,
                passes=ok,
                has_certificate=cert,
                certificate_deviation=float(cert_dev[i]) if cert else None,
                richardson_gap=gap,
            )
            rows.append((evidence, float(sec_max[i])))
        return rows

    # a Richardson chunk already runs its two steps beside each other
    rows = _by_chunk(len(P), chunk, chunk_evidence, split=not richardson)
    sampled_sec_max = max(sec for _, sec in rows)
    if sampled_sec_max > 1.0 + curv_tol:
        return unmet("sampled curvature", sampled_sec_max)
    evidence = [e for e, _ in rows]

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
    return RankVerdict(POSITIVE_SPHERICAL, holds, "ok", evidence, worst, detail)


# ---------------------------------------------------------------------------
# weak spherical rank


def _killing_field(model, V):
    """The model's Killing direction minus its g-projection onto the velocities ``V``."""
    killing = model.killing_direction()
    if killing is None:
        raise DomainError(f"{type(model).__name__} has no Killing direction")
    field = np.zeros_like(V)
    field[...] = killing
    num = model.inner(field, V)
    den = model.inner(V, V)
    return field - (num / den)[..., None] * V


def killing_jacobi_field(model, trajectory):
    """Normal part of the model's Killing field, sampled at ``trajectory.times``.

    On a Berger sphere it spans a plane of curvature eta^2 (in the unscaled
    metric) with the velocity.  A model without a ``killing_direction``
    raises ``DomainError``.
    """
    return _killing_field(model, trajectory.velocities)


def _killing_deviations(model, V, tol):
    """Per row of the velocities ``V`` (T, B, d): max |sec(gamma', J) - 1| over
    the samples where |J|_g > tol (inf if none), and the number of the others.

    J is the normal part of the model's Killing field, and sec comes from the
    curvature tensor, so no frame is needed.  The samples are taken
    ``PROFILE_BLOCK`` at a time, so the temporaries do not grow with the grid.
    """
    worst, excluded = np.full(V.shape[1], -np.inf), np.zeros(V.shape[1], dtype=int)
    for a in range(0, len(V), PROFILE_BLOCK):
        v = V[a : a + PROFILE_BLOCK]
        J = _killing_field(model, v)
        num, den, _ = sec_from_components(model, v, J)
        block_worst, block_excluded = _sec_deviation(num, den, np.sqrt(model.inner(J, J)), tol)
        worst, excluded = np.maximum(worst, block_worst), excluded + block_excluded
    return np.where(excluded == len(V), np.inf, worst), excluded


def _sec_deviation(num, den, norms, tol):
    """max |num / den - 1| over the samples (axis 0) where |J| = ``norms`` > tol,
    -inf where there are none, and the number of the other samples."""
    included = norms > tol
    dev = np.abs(num / np.where(included, den, 1.0) - 1.0)
    return np.max(np.where(included, dev, -np.inf), axis=0), np.sum(~included, axis=0)


def _field_deviation(K, Y, tol):
    """Deviation of sec(gamma', J) from 1 for frame samples ``Y`` (T, k)."""
    norms = np.linalg.norm(Y, axis=-1)
    num = np.einsum("ti,tij,tj->t", Y, K, Y)
    worst, excluded = _sec_deviation(num, norms**2, norms, tol)
    return (math.inf if excluded == len(Y) else float(worst)), int(excluded)


def weak_field_search(K, M, N, tol):
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
    dev, excluded = _field_deviation(K, B @ s, tol)
    return dev, excluded, s


def check_weak_spherical_rank(
    model,
    side,
    sampler,
    tol=DEFAULT_WEAK_TOL,
    *,
    step=None,
    method="auto",
    chunk=DEFAULT_CHUNK,
):
    """Decide whether every sampled geodesic carries a normal Jacobi field
    spanning a curvature-1 plane with the velocity.

    ``side`` states which curvature bound the model was normalized to; the
    model must already be normalized (the relevant exact bound equal to 1
    within ``DEFAULT_CURV_TOL``, whatever ``tol``).

    Each chunk's flow is integrated once, and a row then runs one chain of
    fields, each stage only while the deviation is still above ``tol``,
    keeping the smallest deviation found: the normal part of the model's
    Killing field (where ``killing_direction()`` exists), read from the
    curvature tensor along the flow; the parallel field sin(t) c with
    K c = c of ``spherical_witness``, on a frame and K sliced from that flow
    for the rows still open; then ``weak_field_search``, on that K sliced
    again to the rows the parallel field leaves open.  ``method`` "auto"
    runs the whole chain, "witness" stops before the search, and "search"
    runs the search alone.  ``step`` None takes ``model_step(model)``.
    """
    _check_arguments(chunk, {"step": step}, tol=tol)
    step = model_step(model) if step is None else step
    if side not in BOUNDS:
        raise ParameterError(f"side must be one of {BOUNDS}")
    if method not in ("auto", "witness", "search"):
        raise ParameterError("method must be 'auto', 'witness', or 'search'")
    lo, hi = curvature_bounds(model)
    bound = hi if side == "upper" else lo
    if abs(bound - 1.0) > DEFAULT_CURV_TOL:
        raise ParameterError(
            f"model is not normalized: {side} bound is {bound:.9g}, expected 1"
        )
    killing_stage = method != "search" and model.killing_direction() is not None
    prop_name = next(prop for prop, bound in WEAK_SIDES.items() if bound == side)

    P, W = sampler.states(model)

    def chunk_evidence(a, b):
        times, X, V = _flow(model, P[a:b], W[a:b], math.pi, step)
        if killing_stage:
            dev, excluded = _killing_deviations(model, V, tol)
        else:
            dev, excluded = np.full(b - a, math.inf), np.zeros(b - a, dtype=int)
        # a frame, so K, only for the rows the Killing field leaves open
        rows = np.flatnonzero(dev > tol)
        X, V = X[:, rows], V[:, rows]
        if len(rows):
            K, _ = _curvature(model, times, X, V)
        del X, V

        def keep(i, found):
            if found[0] < dev[i]:
                dev[i], excluded[i] = found[:2]

        if len(rows) and method != "search":
            c, _, resid = spherical_witness(K)
            for j, i in enumerate(rows):
                if resid[j] <= max(tol, 1e-8):
                    keep(i, _field_deviation(K[:, j], np.sin(times)[:, None] * c[j], tol))
        # the search: K, and its midpoints, only for the rows still open
        still = dev[rows] > tol
        if method != "witness" and still.any():
            rows, K = rows[still], K[:, still]  # the full K is freed
            k = K.shape[-1]
            # Y = [N M]: N(0) = M'(0) = I and N'(0) = M(0) = 0, in one solve
            ics = (np.broadcast_to(np.eye(k, 2 * k, d), K.shape[1:-1] + (2 * k,)) for d in (0, k))
            Y, _ = solve_jacobi_arrays(times, K, interval_midpoints(times, K), *ics)
            for j, i in enumerate(rows):
                keep(i, weak_field_search(K[:, j], Y[:, j, :, k:], Y[:, j, :, :k], tol))
        return [
            RankEvidence(
                index=a + i,
                point=P[a + i],
                velocity=W[a + i],
                events=[],
                passes=bool(dev[i] <= tol),
                weak_deviation=float(dev[i]),
                excluded_samples=int(excluded[i]),
            )
            for i in range(b - a)
        ]

    evidence = _by_chunk(len(P), chunk, chunk_evidence)
    holds = all(e.passes for e in evidence)
    worst = max(evidence, key=lambda e: e.weak_deviation).index
    if holds:
        detail = f"all {len(evidence)} geodesics carry a curvature-1 Jacobi field"
    else:
        detail = f"geodesic {worst} has deviation {max(e.weak_deviation for e in evidence):.3g}"
    return RankVerdict(prop_name, holds, "ok", evidence, worst, detail)


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


def measure_fiber_time(eta, step=None):
    """Arc length at which the integrated Hopf-fiber geodesic first closes up.

    With u0 the initial ambient velocity, f = <q, u0> is sin(t / eta) / eta
    along the fiber, so the closure time is the upward zero of f after half a
    period: the real root of the cubic Hermite interpolant of f (node slopes
    from ``state_rhs``) in the grid cell where f changes sign, an eigenvalue
    of the companion pencil of ``_singular_times`` (the scalar case, k = 1).
    Only the flow's own error is left.  ``DomainError`` if the cell holds no
    root or more than one.  ``step`` None takes ``model_step(BergerSphere(eta))``.
    """
    model = BergerSphere(eta)
    step = model_step(model) if step is None else step
    initial, period = _special_states(model)["fiber"], 2.0 * math.pi * eta
    # a few steps past the period: the nodes before it do not depend on the horizon
    traj = geodesic_flow(model, initial, max(1.05 * period, period + 4 * step), step)
    X, V = traj.points, traj.velocities
    u0 = model.state_rhs(X[0], V[0])[0]
    f = X @ u0
    j = np.argmax((traj.times[:-1] > 0.5 * period) & (f[:-1] <= 0.0) & (f[1:] > 0.0))
    cell = slice(j, j + 2)
    times, df = traj.times[cell], model.state_rhs(X[cell], V[cell])[0] @ u0
    roots = _singular_times(times, f[cell, None, None], df[:, None, None], *times)
    if len(roots) != 1:
        raise DomainError(f"{len(roots)} zeros of <q, u0> in the closing cell of the fiber")
    return float(roots[0])


def berger_report(etas, sampler, *, step=None, scan_samples=10000,
                  time_tol=DEFAULT_TIME_TOL, curv_tol=DEFAULT_CURV_TOL,
                  rank_tol=DEFAULT_RANK_TOL, weak_tol=DEFAULT_WEAK_TOL):
    """Survey rows for a list of Berger parameters (curvature range, fiber
    closure time, and the three rank verdicts at the given tolerances); with
    ``step`` None each stage runs at its own default step on its own model:
    ``positive_step`` for the positive check, ``model_step`` for the rest.

    Where the lower normalization exists, the weak-lower check (the row's
    largest stage at eta = 0.5, whose lower-normalized sec reaches 13) runs
    in a forked child beside the fiber time and the upper-normalized checks
    (``_beside``); only its bool comes back, and errors reach the caller in
    the sequential order."""
    etas = list(etas)
    if not etas:
        raise ParameterError("eta list must not be empty")
    # before any stage runs, and naming ``weak_tol`` as the caller does
    _check_arguments(DEFAULT_CHUNK, {"step": step}, time_tol=time_tol, curv_tol=curv_tol,
                     rank_tol=rank_tol, weak_tol=weak_tol)
    rows = []
    for eta in etas:
        model = BergerSphere(eta)
        lo, hi = curvature_bounds(model)
        scan = curvature_scan(model, scan_samples, 0)

        def upper_stages():
            fiber_time = measure_fiber_time(eta, step=step)
            upper = normalize_to_bound(model, "upper")
            positive = check_positive_spherical_rank(
                upper, sampler, time_tol, curv_tol, step=step, rank_tol=rank_tol
            )
            weak_up = check_weak_spherical_rank(upper, "upper", sampler, weak_tol, step=step)
            return fiber_time, positive.holds, weak_up.holds

        def lower_stage():
            lower = normalize_to_bound(model, "lower")
            return check_weak_spherical_rank(lower, "lower", sampler, weak_tol, step=step).holds

        lower_ok = bool(lo > 0)
        if lower_ok:
            (fiber_time, positive, weak_up), weak_low = _beside(upper_stages, lower_stage)
            note = ""
        else:
            (fiber_time, positive, weak_up), weak_low = upper_stages(), None
            note = "not positively curved; lower bound <= 0, lower normalization impossible"
        rows.append(
            BergerReportRow(
                eta=float(eta),
                sec_min_exact=lo,
                sec_max_exact=hi,
                sec_min_scanned=scan.minimum,
                sec_max_scanned=scan.maximum,
                fiber_time=fiber_time,
                positively_curved=lower_ok,
                positive_spherical_rank=positive,
                weak_upper=weak_up,
                weak_lower=weak_low,
                lower_normalizable=lower_ok,
                note=note,
            )
        )
    return rows
