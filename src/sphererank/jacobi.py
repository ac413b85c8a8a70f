"""The matrix Jacobi equation: propagation, conjugate points, comparison bounds.

Working in a parallel g-orthonormal normal frame reduces the Jacobi equation
along a unit-speed geodesic to the linear system ``y'' + K(t) y = 0`` where
``K_ab(t) = <R(E_a, v) v, E_b>``.  The fundamental matrix solution with
``M(0) = 0`` and ``M'(0) = I`` encodes every Jacobi field vanishing at 0;
conjugate times are the singular times of ``M`` and multiplicities are its
rank defects.  The Maslov index of the Lagrangian frame (M, M') counts them
exactly (``JacobiPropagator.morse_count``); ``detect_events`` bisects on that
count down to one grid cell, where the conjugate times are the real roots of
det M for the cubic Hermite interpolant of (M, M').
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import linalg

from .errors import AmbiguousEndpointError, DomainError, ParameterError
from .geodesics import ParallelField, Trajectory, _hermite, _locate, _rk4
from .geometry import pair_inner

EVENT_TIME_RESOLUTION = 1e-8
DEFAULT_RANK_TOL = 1e-7
PROFILE_BLOCK = 64  # per block: samples of the curvature profile, components of its midpoints


# ---------------------------------------------------------------------------
# curvature profile


@dataclass(eq=False)
class CurvatureProfile:
    """Sampled frame components of the Jacobi operator R(., v)v along a geodesic.

    In the views of a rank bundle that kept only K, ``trajectory`` is None
    and ``frame`` is empty.
    """

    trajectory: Trajectory | None
    frame: list
    K: np.ndarray
    symmetry_defect: float

    def __post_init__(self):
        self._mid = None

    @property
    def times(self):
        return self.trajectory.times

    def midpoints(self):
        if self._mid is None:
            self._mid = interval_midpoints(self.times, self.K)
        return self._mid


def profile_arrays(model, V, E):
    """K_ab = g(R(E_a, v)v, E_b) for stacked samples.

    ``V`` has shape (T, ..., tangent_dim) and ``E`` (T, ..., k, tangent_dim),
    with the samples along each geodesic on the leading axis; the result is
    (T, ..., k, k), symmetrized, together with the symmetry defect
    max|K - K^T| over the samples of each geodesic, of shape (...).  The
    samples are taken ``PROFILE_BLOCK`` at a time, so the temporaries do not
    grow with T; every operation is per sample, so the blocks change no bit.
    """
    K = np.empty(E.shape[:-1] + E.shape[-2:-1])
    defect = np.zeros(E.shape[1:-2])
    for a in range(0, len(V), PROFILE_BLOCK):
        e, vb = E[a : a + PROFILE_BLOCK], V[a : a + PROFILE_BLOCK, ..., None, :]
        Kb = pair_inner(model, model.curvature(e, vb, vb), e)
        Kt = np.swapaxes(Kb, -1, -2)
        defect = np.maximum(defect, np.max(np.abs(Kb - Kt), axis=(0, -2, -1)))
        K[a : a + PROFILE_BLOCK] = 0.5 * (Kb + Kt)
    return K, defect


def curvature_profile(trajectory, frame):
    """Assemble the frame curvature matrix K(t) along a trajectory."""
    if not frame:
        raise DomainError("curvature_profile needs a non-empty frame")
    for f in frame:
        if f.trajectory is not trajectory:
            raise DomainError("frame fields must belong to the given trajectory")
    E = np.stack([f.components for f in frame], axis=1)  # (T, k, dt)
    gram = pair_inner(trajectory.model, E, E)
    vdot = pair_inner(trajectory.model, E, trajectory.velocities[:, None, :])
    if np.max(np.abs(gram - np.eye(E.shape[1]))) > 1e-6 or np.max(np.abs(vdot)) > 1e-6:
        raise DomainError("frame must be g-orthonormal and normal to the velocity")
    K, defect = profile_arrays(trajectory.model, trajectory.velocities, E)
    return CurvatureProfile(trajectory, list(frame), K, float(defect))


# ---------------------------------------------------------------------------
# midpoint interpolation on the sample grid


def interval_midpoints(times, Y):
    """Values of a sampled quantity at interval midpoints.

    The cubic Hermite interpolant ``_hermite`` at s = 1/2 with the node
    slopes of ``np.gradient`` (second order, one-sided at the two ends; first
    order when there are only two samples).  On a uniform stretch of the grid
    this is the (-1, 9, 9, -1)/16 stencil, 4th order; the edges and a ragged
    last interval take the same rule and are 3rd order locally, which keeps
    RK4 4th order globally.  The components are taken ``PROFILE_BLOCK`` at a
    time, so the temporaries do not grow with the bundle; every operation is
    per component, so the blocks change no bit.  (Blocks along the time axis
    would: ``np.gradient`` switches formula on a window whose spacings happen
    to be all equal.)
    """
    T = len(times)
    if T < 2:
        raise ParameterError("need at least two samples")
    Y2 = Y.reshape(T, -1)
    mids = np.empty((T - 1, Y2.shape[1]))
    h = np.diff(times)[:, None]
    for a in range(0, Y2.shape[1], PROFILE_BLOCK):
        y = Y2[:, a : a + PROFILE_BLOCK]
        D = np.gradient(y, times, axis=0, edge_order=2 if T > 2 else 1)
        mids[:, a : a + PROFILE_BLOCK] = _hermite(0.5, h, y, D)
    return mids.reshape((T - 1,) + Y.shape[1:])


# ---------------------------------------------------------------------------
# propagation


def solve_jacobi_arrays(times, K, Kmid, Y0, Yp0):
    """RK4 for ``Y'' + K(t) Y = 0`` with per-interval midpoint curvature data.

    ``Y0``/``Yp0`` may be matrices (..., k, m) or vectors (..., k); returns
    arrays with the time axis prepended.
    """
    vector = Y0.ndim == K.ndim - 2
    if vector:
        Y0, Yp0 = Y0[..., None], Yp0[..., None]
    Ys, Yps = _rk4(lambda k, y, yp: (yp, -k @ y), (Y0, Yp0), times, (K,), (Kmid,))
    if vector:
        return Ys[..., 0], Yps[..., 0]
    return Ys, Yps


@dataclass(eq=False)
class JacobiPropagator:
    """Fundamental solution M(t), M'(t) with M(0) = 0 and M'(0) = identity."""

    profile: CurvatureProfile
    times: np.ndarray
    M: np.ndarray
    Mp: np.ndarray

    def __post_init__(self):
        self._sigma = None
        self._theta = None

    @property
    def order(self):
        return self.M.shape[-1]

    def smallest_singular_values(self):
        if self._sigma is None:
            self._sigma = np.linalg.svd(self.M, compute_uv=False)[..., -1]
        return self._sigma

    def evaluate(self, t):
        """Cubic Hermite interpolation of (M, M') between samples.

        ``t`` is a time or an array of times; the result has the shape of
        ``t`` followed by (k, k).
        """
        i, s, h = _locate(self.times, t, "propagator")
        ends = np.array([i, i + 1])
        M, Mp = self.M[ends], self.Mp[ends]
        Mpp = -self.profile.K[ends] @ M  # the Jacobi equation
        if np.ndim(t):  # a scalar s broadcasts as it is, at a third of the cost of a (1, 1) s
            s, h = s[..., None, None], h[..., None, None]
        return _hermite(s, h, M, Mp)[0], _hermite(s, h, Mp, Mpp)[0]

    def morse_count(self, t):
        """Conjugate times in (0, t] with multiplicity, from the Maslov index.

        W = Z conj(Z)^-1 with Z = M' + iM is unitary and has eigenvalue 1
        exactly on ker M, where the crossing form <M'a, M'a> is positive:
        its eigen-angles pass 0 mod 2pi upward only.  Their continuous sum is
        Theta = 2 arg det Z, so the count is (Theta - sum phi_j) / 2pi with
        phi_j in [0, 2pi).  Theta is unwrapped from Theta(0) = 0 on nodes
        where it changes by less than pi/2 from one to the next, and off the
        nodes it is the next node's plus that change.
        """
        t = float(t)
        if t <= self.times[0]:
            return 0  # M(0) = 0 is the initial condition, not a conjugate point
        if self._theta is None:
            self._theta = self._theta_nodes()
        nodes, theta = self._theta
        M, Mp = self.evaluate(t)
        Z = Mp + 1j * M
        # conj(Z)^-1 Z is similar to W and has its eigenvalues
        phi = np.angle(np.linalg.eigvals(np.linalg.solve(Z.conj(), Z))) % (2.0 * math.pi)
        theta = theta[min(np.searchsorted(nodes, t), len(nodes) - 1)]
        return int(round((theta - phi.sum()) / (2.0 * math.pi)))

    def _theta_nodes(self):
        """Nodes and unwrapped Theta for ``morse_count``.

        |dTheta/dt| is at most 2k max(1, |K|), so Theta is read on evenly
        spaced nodes whose spacing times that bound stays below pi/2.
        """
        t0, t1 = self.times[0], self.times[-1]
        rate = 2.0 * self.order * max(1.0, np.linalg.norm(self.profile.K, axis=(-2, -1)).max())
        nodes = np.linspace(t0, t1, int((t1 - t0) * rate / (0.5 * math.pi)) + 2)
        M, Mp = self.evaluate(nodes)
        return nodes, np.unwrap(2.0 * np.angle(np.linalg.det(Mp + 1j * M)))

    def lagrangian_defect(self):
        """Max deviation of M^T M' - M'^T M from zero over all samples."""
        sym = np.swapaxes(self.M, -1, -2) @ self.Mp - np.swapaxes(self.Mp, -1, -2) @ self.M
        return float(np.max(np.abs(sym)))


def jacobi_propagate(profile):
    """Propagate the vanishing-at-zero fundamental solution of the Jacobi equation."""
    k = profile.K.shape[-1]
    M0 = np.zeros((k, k))
    Mp0 = np.eye(k)
    M, Mp = solve_jacobi_arrays(profile.times, profile.K, profile.midpoints(), M0, Mp0)
    return JacobiPropagator(profile, profile.times, M, Mp)


# ---------------------------------------------------------------------------
# conjugate points


@dataclass(frozen=True)
class ConjugateEvent:
    """A conjugate time along the geodesic with its multiplicity."""

    time: float
    multiplicity: int

    def __post_init__(self):
        if self.time <= 0 or self.multiplicity < 1:
            raise ParameterError("conjugate events need time > 0 and multiplicity >= 1")


def _singular_times(propagator, a, b):
    """Zeros of det M in ``(a, b]`` for the interpolant of ``evaluate``, sorted.

    On the grid cell [t_i, t_i + h] the cubic Hermite interpolant is
    M(t_i + s h) = C0 + C1 s + C2 s^2 + C3 s^3, and det M(t_i + s h) = 0
    exactly at the eigenvalues s of the companion pencil
    [[0, I, 0], [0, 0, I], [-C0, -C1, -C2]] - s diag(I, I, C3); an m-fold
    zero of M is an m-fold eigenvalue.  The finite ones that are real to
    ``EVENT_TIME_RESOLUTION`` in time count.
    """
    times, k = propagator.times, propagator.order
    roots = []
    for i in range(max(np.searchsorted(times, a, side="right") - 1, 0), np.searchsorted(times, b)):
        h = times[i + 1] - times[i]
        M0, M1 = propagator.M[i], propagator.M[i + 1]
        D0, D1 = h * propagator.Mp[i], h * propagator.Mp[i + 1]
        A, B = np.eye(3 * k, k=k), np.eye(3 * k)
        A[2 * k :] = -np.hstack([M0, D0, 3.0 * (M1 - M0) - 2.0 * D0 - D1])
        B[2 * k :, 2 * k :] = 2.0 * (M0 - M1) + D0 + D1
        s = linalg.eigvals(A, B)
        s = s[np.isfinite(s) & (h * np.abs(s.imag) <= EVENT_TIME_RESOLUTION)]
        t = times[i] + h * s.real
        roots.extend(t[(t > a) & (t <= b)])
    return np.sort(roots)


def detect_events(propagator, window, rank_tol=DEFAULT_RANK_TOL):
    """Conjugate events in ``(t0, t1]``: the zeros of det M, found exactly.

    The Morse count is nondecreasing, so equal counts at the two ends of an
    interval prove it holds no conjugate time.  The window is halved while
    the end counts differ and a grid node lies strictly inside; brackets
    sharing an end are one bracket.  In each bracket the conjugate times are
    the real roots of det M on the cubic Hermite interpolant
    (``_singular_times``); roots closer than ``EVENT_TIME_RESOLUTION`` are one
    event at their mean, with their number as the multiplicity.  The roots of
    a bracket must number its count jump, or ``DomainError`` is raised.
    ``rank_tol`` is the confirming test: an event is kept only if M has a
    singular value below ``rank_tol`` times the operator norm of M' at the
    event time.
    """
    t0, t1 = float(window[0]), float(window[1])
    if not t1 > t0:
        raise ParameterError("conjugate-point window is empty")
    if not rank_tol > 0:
        raise ParameterError("rank_tol must be positive")
    times = propagator.times
    if t0 < times[0] - 1e-9 or t1 > times[-1] + 1e-9:
        raise ParameterError("window must lie inside the propagator domain")
    t1 = min(t1, float(times[-1]))  # the interpolant ends at the last sample
    count = propagator.morse_count
    brackets, stack = [], [(t0, count(t0), t1, count(t1))]
    while stack:  # depth first, left half first: brackets come out in time order
        a, ca, b, cb = stack.pop()
        if ca == cb:
            continue
        if np.searchsorted(times, a, side="right") < np.searchsorted(times, b, side="left"):
            m = 0.5 * (a + b)
            cm = count(m)
            stack += [(m, cm, b, cb), (a, ca, m, cm)]
        elif brackets and brackets[-1][1] == a:
            brackets[-1] = (brackets[-1][0], b, brackets[-1][2] + cb - ca)
        else:
            brackets.append((a, b, cb - ca))
    events = []
    for a, b, jump in brackets:
        roots = _singular_times(propagator, a, b)
        if len(roots) != jump:
            raise DomainError(f"{len(roots)} zeros of det M in ({a!r}, {b!r}], count jump {jump}")
        for group in np.split(roots, np.flatnonzero(np.diff(roots) >= EVENT_TIME_RESOLUTION) + 1):
            t_star = float(np.mean(group))
            M, Mp = propagator.evaluate(t_star)
            sigma = np.linalg.svd(M, compute_uv=False)[-1]
            if sigma < rank_tol * max(np.linalg.norm(Mp, 2), 1e-300):
                events.append(ConjugateEvent(t_star, len(group)))
    return events


conjugate_points = detect_events


def fixed_endpoint_index(propagator, L):
    """Morse index of the fixed-endpoint problem on [0, L].

    The Morse count at ``L - 1e-6``; if the count at ``L + 1e-6`` differs,
    ``L`` is within 1e-6 of a conjugate time and ``AmbiguousEndpointError``
    is raised.
    """
    times = propagator.times
    if L <= times[0] or L > times[-1] + 1e-12:
        raise ParameterError("endpoint outside the propagator domain")
    below = propagator.morse_count(L - 1e-6)
    if propagator.morse_count(min(float(times[-1]), L + 1e-6)) != below:
        raise AmbiguousEndpointError("endpoint is itself a conjugate time")
    return below


# ---------------------------------------------------------------------------
# spherical Jacobi fields


@dataclass(eq=False)
class SphericalFieldCertificate:
    """A unit normal parallel field E with sec(E, gamma') = 1 up to ``deviation``.

    ``sin(t) E(t)`` is then a Jacobi field up to the same order.
    """

    field: ParallelField
    deviation: float
    coefficients: np.ndarray


def spherical_witness(K, tol):
    """Constant unit coefficient vector c with K(t) c = c within ``tol``, or None.

    Returns (c, deviation, eigenvector_residual) where deviation is
    max_t |c^T K(t) c - 1|.
    """
    k = K.shape[-1]
    A = np.mean((K - np.eye(k)) @ (K - np.eye(k)), axis=0)
    _, vecs = np.linalg.eigh(A)
    c = vecs[:, 0]
    resid = float(np.max(np.linalg.norm((K - np.eye(k)) @ c, axis=-1)))
    if resid > tol:
        return None
    deviation = float(np.max(np.abs(np.einsum("i,tij,j->t", c, K, c) - 1.0)))
    return c, deviation, resid


def spherical_field(profile, tol=1e-6):
    """Certificate for a parallel unit normal field spanning curvature-1 planes."""
    eigmax = float(np.max(np.linalg.eigvalsh(profile.K)))
    if eigmax > 1.0 + tol:
        raise DomainError("curvature along the geodesic exceeds 1 + tol")
    hit = spherical_witness(profile.K, tol)
    if hit is None:
        return None
    c, deviation, _ = hit
    E = np.einsum("a,tad->td", c, np.stack([f.components for f in profile.frame], axis=1))
    return SphericalFieldCertificate(
        field=ParallelField(profile.trajectory, E),
        deviation=deviation,
        coefficients=c,
    )


# ---------------------------------------------------------------------------
# comparison with the round sphere


@dataclass(frozen=True)
class SturmResult:
    """Outcome of the norm comparison against cos(s) on the unit sphere."""

    holds: bool
    margin: float
    times: np.ndarray
    norms: np.ndarray


def verify_sturm_bound(profile, x0, horizon, tol=1e-7, xp0=None):
    """Check |X(s)| >= cos(s) on [0, horizon] for the Jacobi field X.

    ``x0`` is the g-unit normal initial value X(0); the initial derivative
    has no radial part (<X'(0), X(0)> = 0) and its transverse part is the
    optional ``xp0`` (default zero).  Valid for horizons up to pi/2.
    """
    if horizon <= 0 or horizon > math.pi / 2 + 1e-12:
        raise ParameterError("comparison horizon must lie in (0, pi/2]")
    times = profile.times
    if horizon > times[-1] + 1e-12:
        raise ParameterError("horizon exceeds the profile domain")

    E = np.stack([f.components for f in profile.frame], axis=1)
    model = profile.trajectory.model
    y0 = model.inner(E[0], x0.components[None, :])
    norm0 = float(np.linalg.norm(y0))
    if abs(norm0 - 1.0) > 1e-8:
        raise DomainError("X(0) must be a g-unit vector")
    tang = model.inner(x0.components, profile.trajectory.velocities[0])
    if abs(float(tang)) > 1e-8:
        raise DomainError("X(0) must be normal to the geodesic")
    if xp0 is None:
        yp0 = np.zeros_like(y0)
    else:
        yp0 = model.inner(E[0], xp0.components[None, :])
        if abs(float(np.dot(yp0, y0))) > 1e-10:
            raise ParameterError("X'(0) must be orthogonal to X(0)")

    Y, _ = solve_jacobi_arrays(times, profile.K, profile.midpoints(), y0, yp0)
    mask = times <= horizon + 1e-12
    ts = times[mask]
    norms = np.linalg.norm(Y[mask], axis=-1)
    margin = float(np.min(norms - np.cos(ts)))
    return SturmResult(holds=bool(margin >= -tol), margin=margin, times=ts, norms=norms)
