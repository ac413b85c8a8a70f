"""Geodesic flow, parallel transport, and parallel normal frames.

Every integration runs through one classical RK4 stepper, ``_rk4``, on a
fixed arc-length grid.  Its state is a tuple of arrays that may carry a
leading batch axis, so a bundle of geodesics advances in lockstep.  The
model supplies the dynamics: ``state_rhs`` and ``project_state`` for the
geodesic (ambient second-order equation with constraint projection on the
sphere models, reduced left-invariant system with quaternion reconstruction
on the Berger sphere), ``transport_coeffs``, ``transport_rhs`` and
``project_tangent`` for parallel fields.  States between grid nodes come from
one cubic Hermite interpolator, ``_hermite``, fed with the exact state
derivatives.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ParameterError
from .geometry import ManifoldModel, Point, Tangent, make_point

DEFAULT_STEP = 1e-3
UNIT_SPEED_TOL = 1e-8


def time_grid(horizon, step):
    """Sample times: multiples of ``step`` plus the horizon endpoint."""
    if not (0 < step < np.inf and 0 < horizon < np.inf):  # NaN fails too
        raise ParameterError("step and horizon must be positive and finite")
    if step > horizon:
        raise ParameterError("step must not exceed the horizon")
    n = int(np.floor(horizon / step + 1e-12))
    times = step * np.arange(n + 1)
    if horizon - times[-1] > 1e-12 * max(1.0, horizon):
        times = np.append(times, horizon)
    else:
        times[-1] = horizon
    return times


# ---------------------------------------------------------------------------
# the stepper and the interpolator


def _rk4(rhs, y0, times, nodes=(), mids=(), project=None):
    """Classical RK4 over the grid ``times`` for a tuple-of-arrays state.

    ``rhs(*c, *y)`` returns the derivative of the state ``y`` as a tuple,
    given coefficient data ``c``: the step-``i`` rows of the arrays in
    ``nodes`` at the start of step ``i``, the step-``i`` rows of ``mids`` at
    its two midpoint stages, and the step-``i + 1`` rows of ``nodes`` at its
    end.  ``project(*c, *y)``, if given, maps the state after each step back
    onto the constraint set (``c`` is the end-node data).  Returns one array
    per state component with the time axis prepended.
    """
    y = [np.array(a, dtype=float) for a in y0]
    out = [np.empty((len(times),) + a.shape) for a in y]
    for o, a in zip(out, y):
        o[0] = a
    # rows are drawn lazily: building every row view up front fragments the heap
    node_rows, mid_rows = zip(*nodes), zip(*mids)
    c1 = next(node_rows, ())
    for i, h in enumerate(np.diff(times).tolist(), 1):
        c0, c1, cm = c1, next(node_rows, ()), next(mid_rows, ())
        half, sixth = 0.5 * h, h / 6.0
        k1 = rhs(*c0, *y)
        k2 = rhs(*cm, *[a + half * k for a, k in zip(y, k1)])
        k3 = rhs(*cm, *[a + half * k for a, k in zip(y, k2)])
        k4 = rhs(*c1, *[a + h * k for a, k in zip(y, k3)])
        y = [a + sixth * (p + 2 * q + 2 * r + s) for a, p, q, r, s in zip(y, k1, k2, k3, k4)]
        if project is not None:
            y = project(*c1, *y)
        for o, a in zip(out, y):
            o[i] = a
    return tuple(out)


def _hermite(s, h, Y, D):
    """Cubic Hermite interpolant at fraction ``s`` of every interval.

    ``Y`` holds node values and ``D`` their derivatives along a leading node
    axis; ``h`` is the interval length (scalar or broadcastable per
    interval).  Returns one value per interval.  The grouping reproduces the
    midpoint formula (Y0 + Y1)/2 + h (D0 - D1)/8 exactly at ``s = 1/2``.
    """
    h00 = (1 + 2 * s) * (1 - s) ** 2
    h10 = s * (1 - s) ** 2
    h01 = s**2 * (3 - 2 * s)
    h11 = s**2 * (s - 1)
    return h00 * Y[:-1] + h01 * Y[1:] + h * (h10 * D[:-1] + h11 * D[1:])


def _locate(times, t, domain):
    """(i, s, h): the grid interval [times[i], times[i + 1]] of length h holding
    ``t``, which lies the fraction s of the way through it.  ``t`` may be an
    array of times; i, s and h then have its shape."""
    t = np.asarray(t, dtype=float)
    if (t < times[0] - 1e-12).any() or (t > times[-1] + 1e-12).any():
        raise ParameterError(f"time outside the {domain} domain")
    i = np.minimum(np.maximum(np.searchsorted(times, t, side="right") - 1, 0), len(times) - 2)
    h = times[i + 1] - times[i]
    return i, (t - times[i]) / h, h


def _hermite_states(model, s, h, X, V):
    """Projected Hermite-interpolated states inside each interval of node states."""
    dX, dV = model.state_rhs(X, V)
    return model.project_state(_hermite(s, h, X, dX), _hermite(s, h, V, dV))


# ---------------------------------------------------------------------------
# batched flows


def flow_arrays(model, x0, v0, times):
    """Integrate the geodesic equation from (x0, v0) over ``times``.

    ``x0`` has shape (..., point_dim) and ``v0`` (..., tangent_dim); the
    returned arrays prepend the time axis.
    """
    return _rk4(model.state_rhs, (x0, v0), times, project=model.project_state)


def hermite_midpoints(model, times, X, V):
    """4th-order-accurate states at interval midpoints from node data.

    Uses the cubic Hermite interpolant with the exact state derivatives,
    then re-projects onto the constraint set.
    """
    h = np.diff(times).reshape((-1,) + (1,) * (X.ndim - 1))
    return _hermite_states(model, 0.5, h, X, V)


# ---------------------------------------------------------------------------
# trajectories


@dataclass(frozen=True, eq=False)
class GeodesicState:
    """A point together with the velocity attached to it."""

    point: Point
    velocity: Tangent


@dataclass(eq=False)
class Trajectory:
    """A sampled geodesic with cubic Hermite interpolation between samples.

    ``points`` has shape (T, point_dim) and ``velocities`` (T, tangent_dim);
    ``times`` is the arc-length grid.  Instances are treated as immutable
    after construction.
    """

    model: ManifoldModel
    times: np.ndarray
    points: np.ndarray
    velocities: np.ndarray
    step: float

    def __post_init__(self):
        self._mid = None

    def __len__(self):
        return len(self.times)

    @property
    def horizon(self):
        return float(self.times[-1])

    def speeds(self):
        return np.sqrt(self.model.inner(self.velocities, self.velocities))

    @property
    def speed_drift(self):
        s = self.speeds()
        return float(np.max(np.abs(s - s[0])) / max(s[0], 1e-300))

    @property
    def unit_speed(self):
        return bool(np.max(np.abs(self.speeds() - 1.0)) < UNIT_SPEED_TOL)

    def midpoint_states(self):
        if self._mid is None:
            self._mid = hermite_midpoints(self.model, self.times, self.points, self.velocities)
        return self._mid

    def state(self, i):
        p = Point(self.points[i])
        return GeodesicState(p, Tangent(p, self.velocities[i]))

    @property
    def states(self):
        return [self.state(i) for i in range(len(self.times))]

    def state_at(self, t):
        """Hermite-interpolated state at time ``t``, projected to the model."""
        i, s, h = _locate(self.times, float(t), "trajectory")
        X, V = self.points[i : i + 2], self.velocities[i : i + 2]
        x, v = _hermite_states(self.model, s, h, X, V)
        p = Point(x[0])
        return GeodesicState(p, Tangent(p, v[0]))


def geodesic_flow(model, initial, horizon, step=DEFAULT_STEP):
    """Integrate the geodesic through ``initial`` for the given arc length."""
    times = time_grid(horizon, step)
    x0 = initial.point.coordinates
    v0 = initial.velocity.components
    if not np.allclose(initial.velocity.base.coordinates, x0, rtol=0.0, atol=1e-12):
        raise DomainError("initial velocity must be based at the initial point")
    model.validate_point(x0)
    model.validate_tangent(x0, v0)
    X, V = flow_arrays(model, x0, v0, times)
    return Trajectory(model, times, X, V, float(step))


def exp_map(model, p, v, step=DEFAULT_STEP):
    """Endpoint of the geodesic from ``p`` with initial vector ``v``.

    The geodesic runs for arc length ``|v|_g`` with unit initial velocity
    ``v / |v|_g``; a zero vector maps to ``p`` itself.
    """
    length = float(np.sqrt(model.inner(v.components, v.components)))
    if length < 1e-14:
        return p
    h = min(step, length / 8.0)
    unit = Tangent(p, v.components / length)
    traj = geodesic_flow(model, GeodesicState(p, unit), length, h)
    return make_point(model, traj.points[-1])


# ---------------------------------------------------------------------------
# parallel transport


def transport_arrays(model, times, X, V, Xm, Vm, w0):
    """Parallel-transport ``w0`` (..., m, tangent_dim) along a sampled geodesic.

    The stages read the model's ``transport_coeffs`` of the node and midpoint
    states, whose first row is the point.
    """
    m = w0.shape[-2]
    (W,) = _rk4(
        lambda *c: (model.transport_rhs(c[-1], *c[:-1]),),
        (w0,),
        times,
        nodes=model.transport_coeffs(X, V, m),
        mids=model.transport_coeffs(Xm, Vm, m),
        project=lambda x, *c: (model.project_tangent(x, c[-1]),),
    )
    return W


def parallel_transport(trajectory, v0, t_from, t_to):
    """Transport ``v0`` from gamma(t_from) to gamma(t_to) along the trajectory.

    The nodes are the endpoints, which may lie off the grid, and the grid
    times strictly between them, in the direction of travel.
    """
    model = trajectory.model
    times = trajectory.times
    for t in (t_from, t_to):
        if t < times[0] - 1e-12 or t > times[-1] + 1e-12:
            raise ParameterError("transport endpoints must lie in the trajectory domain")
    start = trajectory.state_at(t_from)
    if model.point_distance(start.point.coordinates, v0.base.coordinates) > 1e-8:
        raise DomainError("vector is not based at gamma(t_from)")
    model.validate_tangent(start.point.coordinates, v0.components)

    if t_to == t_from:
        return Tangent(start.point, np.array(v0.components, dtype=float))

    end = trajectory.state_at(t_to)
    lo, hi = min(t_from, t_to), max(t_from, t_to)
    inner = np.nonzero((times > lo + 1e-12) & (times < hi - 1e-12))[0]
    if t_to < t_from:
        inner = inner[::-1]
    nodes = np.concatenate([[t_from], times[inner], [t_to]])
    X = np.concatenate(
        [[start.point.coordinates], trajectory.points[inner], [end.point.coordinates]]
    )
    V = np.concatenate(
        [[start.velocity.components], trajectory.velocities[inner], [end.velocity.components]]
    )
    Xm, Vm = hermite_midpoints(model, nodes, X, V)
    W = transport_arrays(model, nodes, X, V, Xm, Vm, v0.components[None, :])
    return Tangent(end.point, W[-1, 0])


# ---------------------------------------------------------------------------
# parallel normal frames


@dataclass(eq=False)
class ParallelField:
    """A parallel vector field along a trajectory, one vector per sample."""

    trajectory: Trajectory
    components: np.ndarray

    @property
    def vectors(self):
        return [
            Tangent(Point(self.trajectory.points[i]), self.components[i])
            for i in range(len(self.trajectory.times))
        ]

    def at_index(self, i):
        return Tangent(Point(self.trajectory.points[i]), self.components[i])


def initial_normal_frame(model, x0, v0):
    """Index-ordered Gram-Schmidt of the coordinate basis against gamma'(0).

    Returns an array of shape (..., dim-1, tangent_dim) of g-orthonormal
    vectors orthogonal to ``v0``.
    """
    single = x0.ndim == 1
    xb = x0[None] if single else x0
    vb = v0[None] if single else v0
    B = xb.shape[0]
    k = model.dim - 1
    cands = model.tangent_basis(xb)
    out = np.empty((B, k, model.tangent_dim))
    for b in range(B):
        speed = np.sqrt(float(model.inner(vb[b], vb[b])))
        basis = [vb[b] / speed]
        for m in range(cands.shape[-2]):
            w = np.array(cands[b, m], dtype=float)
            for e in basis:
                w = w - float(model.inner(w, e)) * e
            nrm = np.sqrt(float(model.inner(w, w)))
            if nrm > 1e-8:
                basis.append(w / nrm)
            if len(basis) == k + 1:
                break
        if len(basis) != k + 1:
            raise DomainError("could not complete a normal frame at the base point")
        out[b] = np.stack(basis[1:])
    return out[0] if single else out


def frame_arrays(model, times, X, V, Xm, Vm):
    """Parallel g-orthonormal normal frame along a batched geodesic bundle."""
    E0 = initial_normal_frame(model, X[0], V[0])
    return transport_arrays(model, times, X, V, Xm, Vm, E0)


def normal_frame(trajectory):
    """The dim-1 parallel normal fields along a unit-speed trajectory."""
    if not trajectory.unit_speed:
        raise DomainError("normal_frame requires a unit-speed trajectory")
    Xm, Vm = trajectory.midpoint_states()
    E = frame_arrays(
        trajectory.model,
        trajectory.times,
        trajectory.points,
        trajectory.velocities,
        Xm,
        Vm,
    )
    return [ParallelField(trajectory, E[:, a, :]) for a in range(E.shape[1])]
