"""Model manifolds with exact metric and curvature tensors.

Four built-in geometries are supported:

* ``RoundSphere(dim)`` -- the unit sphere in Euclidean space, curvature 1.
* ``BergerSphere(eta)`` -- the 3-sphere of unit quaternions with the
  left-invariant metric that gives the Hopf direction ``i`` length ``eta``.
* ``ComplexProjective(n)`` -- complex projective space in the normalization
  with sectional curvature range [1/4, 1].
* ``Scaled(base, lam)`` -- the same manifold with the metric multiplied by
  ``lam**2`` (so lengths scale by ``lam`` and curvature by ``1/lam**2``).

Points and tangent vectors are stored in explicit coordinates: ambient unit
vectors for the sphere models, coefficients in the left-invariant frame
``{i, j, k}`` for the Berger sphere.  Every kernel broadcasts over leading
axes so whole bundles of inputs evaluate in a single call, and everything is
a pure function of its arguments.
"""

from __future__ import annotations

import math
import numbers
import os
from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np
import scipy

from .errors import DegeneratePlaneError, DomainError, ParameterError

POINT_NORM_TOL = 1e-12
TANGENT_ORTHO_TOL = 1e-10
FRAME_ORTHO_TOL = 1e-10
PLANE_GRAM_TOL = 1e-14


# ---------------------------------------------------------------------------
# quaternion and complex helpers


def quat_mul(a, b):
    """Hamilton product, broadcasting over leading axes; layout (w, x, y, z)."""
    aw, av = a[..., :1], a[..., 1:]
    bw, bv = b[..., :1], b[..., 1:]
    w = aw * bw - np.add.reduce(av * bv, axis=-1, keepdims=True)
    v = aw * bv + bw * av + np.cross(av, bv)
    return np.concatenate([w, v], axis=-1)


def quat_conj(a):
    out = np.array(a, dtype=float, copy=True)
    out[..., 1:] *= -1.0
    return out


def body_components(q, u):
    """Components of the ambient vector ``u`` at ``q`` in the frame {i, j, k}.

    Dropping the real part of ``conj(q) * u`` projects out the radial
    direction, so this doubles as the tangential projection.
    """
    return quat_mul(quat_conj(q), u)[..., 1:]


def ambient_from_body(q, w):
    """The ambient vector ``q * (0, w)`` of the body components ``w`` at ``q``."""
    qw, qv = q[..., :1], q[..., 1:]
    v = qw * w + np.cross(qv, w)
    out = np.empty(v.shape[:-1] + (4,), dtype=v.dtype)
    out[..., 0] = -np.add.reduce(qv * w, axis=-1)
    out[..., 1:] = v
    return out


def jmul(v):
    """Multiplication by the imaginary unit on R^{2m} = C^m (real block, imaginary block)."""
    m = v.shape[-1] // 2
    return np.concatenate([-v[..., m:], v[..., :m]], axis=-1)


def _horizontal(u, p, jp):
    """``u`` minus its components along the unit vectors ``p`` and ``jp = jmul(p)``."""
    return u - np.vecdot(u, p)[..., None] * p - np.vecdot(u, jp)[..., None] * jp


# ---------------------------------------------------------------------------
# value types


@dataclass(frozen=True, eq=False)
class Point:
    """A manifold point in the model's coordinate representation."""

    coordinates: np.ndarray


@dataclass(frozen=True, eq=False)
class Tangent:
    """A tangent vector attached to ``base``."""

    base: Point
    components: np.ndarray


@dataclass(frozen=True, eq=False)
class Frame:
    """A g-orthonormal list of tangent vectors at a common base point."""

    base: Point
    vectors: tuple


# ---------------------------------------------------------------------------
# models


class ManifoldModel:
    """Common interface of the built-in geometries.

    Array arguments follow the per-model coordinate conventions and may
    carry arbitrary leading (batch) axes.  A geometry provides:

    * ``dim``, ``point_dim``, ``tangent_dim`` -- manifold dimension and the
      lengths of the point and tangent coordinate vectors;
    * ``inner(u, v)`` -- the metric; ``pair_inner(A, B)`` -- the matrix of
      metric products between the stacks ``A`` (..., k, d) and ``B``
      (..., m, d), via matmul;
    * ``curvature(x, y, z)`` -- the tensor ``R(x, y) z`` (sign convention
      ``sec(u, v) = <R(u,v)v, u> / gram``) and ``curvature_bounds()`` --
      the exact (min, max) of sectional curvature;
    * ``project_point(p)``, ``project_tangent(p, u)`` -- maps onto the
      coordinate constraint set; ``validate_point(p)``,
      ``validate_tangent(p, u)`` -- ``DomainError`` off it;
    * ``tangent_basis(p)`` -- a deterministic spanning set at ``p``;
    * ``state_rhs(x, v)`` -- the geodesic equation as the derivative of the
      state (point, velocity coordinates);
    * ``transport_rhs(w, *c)`` -- the derivative of a parallel field ``w``
      along a geodesic, given one sample's rows ``c`` of
      ``transport_coeffs`` (by default the point and the velocity), and
      ``transport_project(w, *c)`` -- ``project_tangent`` of ``w`` at the
      point of the same rows.

    ``canonical_point``, ``point_distance``, ``project_point``,
    ``project_state``, ``transport_coeffs``, ``transport_project`` and the
    two checks have defaults below (a point has ``point_dim`` coordinates and
    unit norm, a tangent ``tangent_dim`` components), and so do the two hooks
    of a geometry with distinguished directions:

    * ``special_directions()`` -- ``{name: (point, tangent components)}``,
      the directions a sampler forces and the CLI selects by name, not
      normalized; ``{}`` by default;
    * ``killing_direction()`` -- the tangent components of a Killing field
      whose normal part is the weak-rank witness; None by default.
    """

    def special_directions(self):
        """Named initial directions; a geometry without any returns ``{}``."""
        return {}

    def killing_direction(self):
        """Tangent components of the witnessing Killing field, or None."""
        return None

    def canonical_point(self, p):
        """Canonical coordinate representative (fixes the phase on CP^n)."""
        return p

    def point_distance(self, p, q):
        """Coordinate-space distance that is zero exactly on equal points."""
        return float(np.linalg.norm(p - q))

    def project_point(self, p):
        """Nearest unit vector: the points of every built-in model are unit vectors."""
        # np.linalg.norm(p, axis=-1, keepdims=True) computes the same sum, but
        # its argument handling costs more than the arithmetic once per RK4 step
        return p / np.sqrt(np.add.reduce(p * p, axis=-1, keepdims=True))

    def project_state(self, x, v):
        """Project a geodesic state (point, velocity) back onto the constraint set."""
        x = self.project_point(x)
        return x, self.project_tangent(x, v)

    def transport_coeffs(self, X, V):
        """What ``transport_rhs`` reads of the geodesic samples ``X``, ``V``,
        computed once for the whole grid rather than at every RK4 stage.

        Returns arrays with the sample axes of ``X`` followed by axes that
        broadcast over the transported vectors (a length-1 axis, or a matrix
        they multiply); the first is the point.  One sample's rows ``c`` give
        the derivative ``transport_rhs(w, *c)``.  The default is the state
        itself, (X[..., None, :], V[..., None, :]).
        """
        return X[..., None, :], V[..., None, :]

    def transport_project(self, w, *c):
        """``project_tangent`` of a transported field ``w`` at the point of the
        ``transport_coeffs`` rows ``c``, which may carry what it reads."""
        return self.project_tangent(c[0], w)

    def validate_point(self, p):
        name = type(self).__name__
        if p.shape[-1] != self.point_dim:
            raise DomainError(f"{name} point must have {self.point_dim} coordinates")
        if abs(np.linalg.norm(p) - 1.0) > POINT_NORM_TOL:
            raise DomainError(f"{name} point must be a unit vector")

    def validate_tangent(self, p, u):
        if u.shape[-1] != self.tangent_dim:
            raise DomainError(
                f"{type(self).__name__} tangent must have {self.tangent_dim} components"
            )


class _AmbientSphere(ManifoldModel):
    """Points are unit vectors in R^point_dim and geodesics are great circles.

    This holds for the round sphere and, through the horizontal lift, for
    CP^n; tangents are ambient vectors.  The metric is ``metric_scale`` times
    the ambient one; a subclass adds its own terms to the round curvature and
    tangent check here.
    """

    metric_scale = 1.0

    @property
    def tangent_dim(self):
        return self.point_dim

    def inner(self, u, v):
        return self.metric_scale * np.vecdot(u, v)

    def pair_inner(self, A, B):
        return self.metric_scale * np.matmul(A, np.swapaxes(B, -1, -2))

    def curvature(self, x, y, z):
        return np.vecdot(y, z)[..., None] * x - np.vecdot(x, z)[..., None] * y

    def state_rhs(self, x, v):
        return v, -np.vecdot(v, v)[..., None] * x

    def transport_rhs(self, w, x, v):
        return -np.vecdot(w, v)[..., None] * x

    def tangent_basis(self, p):
        eye = np.eye(self.point_dim)
        basis = np.broadcast_to(eye, p.shape[:-1] + eye.shape)
        return self.project_tangent(p[..., None, :], basis)

    def validate_tangent(self, p, u):
        super().validate_tangent(p, u)
        if abs(float(np.vecdot(u, p))) > TANGENT_ORTHO_TOL * max(1.0, float(np.linalg.norm(u))):
            raise DomainError(f"{type(self).__name__} tangent must be orthogonal to its base point")


@dataclass(frozen=True)
class RoundSphere(_AmbientSphere):
    """Unit sphere S^dim embedded in R^{dim+1}; constant curvature 1."""

    dim: int

    def __post_init__(self):
        _check_integer(self.dim, 2, "RoundSphere dim")

    @property
    def point_dim(self):
        return self.dim + 1

    def curvature_bounds(self):
        return 1.0, 1.0

    def project_tangent(self, p, u):
        return u - np.vecdot(u, p)[..., None] * p


@dataclass(frozen=True)
class BergerSphere(ManifoldModel):
    """Unit quaternions with the left-invariant metric diag(eta^2, 1, 1) on {i, j, k}.

    Tangent vectors are stored as coefficients in the left-invariant frame,
    so the metric and curvature tensors are constant matrices, and the
    geodesic and transport equations are products with constant tensors.
    Sectional curvature is eta^2 on any plane containing the Hopf direction
    and 4 - 3 eta^2 on the plane {j, k}.
    """

    eta: float
    dim = 3
    point_dim = 4
    tangent_dim = 3

    def __post_init__(self):
        if not 0 < self.eta < math.inf:  # NaN fails too
            raise ParameterError(f"BergerSphere eta must be finite and positive, got {self.eta!r}")

    @cached_property
    def metric_weights(self):
        return np.array([self.eta**2, 1.0, 1.0])

    def inner(self, u, v):
        return np.einsum("...i,...i,i->...", u, v, self.metric_weights)

    def pair_inner(self, A, B):
        return np.matmul(A * self.metric_weights, np.swapaxes(B, -1, -2))

    def curvature(self, x, y, z):
        eta = self.eta
        s = np.array([eta, 1.0, 1.0])  # {i,j,k} -> orthonormal frame
        xe, ye, ze = x * s, y * s, z * s
        k12 = k13 = eta**2
        k23 = 4.0 - 3.0 * eta**2
        w12 = xe[..., 0] * ye[..., 1] - xe[..., 1] * ye[..., 0]
        w13 = xe[..., 0] * ye[..., 2] - xe[..., 2] * ye[..., 0]
        w23 = xe[..., 1] * ye[..., 2] - xe[..., 2] * ye[..., 1]
        r1 = k12 * w12 * ze[..., 1] + k13 * w13 * ze[..., 2]
        r2 = -k12 * w12 * ze[..., 0] + k23 * w23 * ze[..., 2]
        r3 = -k13 * w13 * ze[..., 0] - k23 * w23 * ze[..., 1]
        return np.stack([r1, r2, r3], axis=-1) / s

    def curvature_bounds(self):
        a, b = self.eta**2, 4.0 - 3.0 * self.eta**2
        return min(a, b), max(a, b)

    def project_tangent(self, p, u):
        # frame coefficients carry no constraint
        return u

    @cached_property
    def _velocity_tensor(self):
        """The M_i, flattened, of x * (0, v) = x @ M(v), M(v) = sum_i v_i M_i;
        row a of M_i is e_a * (0, e_i)."""
        return ambient_from_body(np.eye(4), np.eye(3)[:, None]).reshape(3, 16)

    @cached_property
    def _euler_factors(self):
        """(c, R) with 2 (g v x v) / g = (c v_0) (v @ R), as g v x v = (eta^2 - 1) v_0 e_0 x v."""
        return 2.0 * (1.0 - self.eta**2), np.cross(np.eye(3), np.eye(3)[0])

    @cached_property
    def _transport_tensor(self):
        """The C_i, flattened, of dw = w @ L(v), L(v) = sum_i v_i C_i; row k of C_i
        is the derivative of the field e_k along the velocity e_i."""
        g, v, w = self.metric_weights, np.eye(3)[:, None], np.eye(3)
        return (-np.cross(v, w) + (np.cross(g * w, v) + np.cross(g * v, w)) / g).reshape(3, 9)

    def state_rhs(self, x, v):
        """Quaternion velocity x @ M(v) and the reduced (Euler) equation on the
        frame coefficients, whose Hopf component is exactly 0."""
        M = (v @ self._velocity_tensor).reshape(v.shape[:-1] + (4, 4))
        c, R = self._euler_factors
        return (x[..., None, :] @ M)[..., 0, :], (c * v[..., :1]) * (v @ R)

    def transport_coeffs(self, X, V):
        """The point and the matrix L(v) of ``transport_rhs`` at every sample,
        from one product over the whole grid: built in each RK4 stage, as a
        stacked (1, 3) @ (3, 9), it made one BLAS call per row."""
        L = (V @ self._transport_tensor).reshape(V.shape[:-1] + (3, 3))
        return X[..., None, :], L

    def transport_rhs(self, w, x, L):
        """w @ L(v): the derivative is bilinear in (v, w)."""
        return w @ L

    def special_directions(self):
        """The Hopf fiber ``i`` and the horizontal ``j`` at the identity."""
        q0, eye = np.array([1.0, 0.0, 0.0, 0.0]), np.eye(3)
        return {"fiber": (q0, eye[0]), "horizontal": (q0, eye[1])}

    def killing_direction(self):
        """The left-invariant Hopf field ``i``, a Killing field of every Berger metric."""
        return np.array([1.0, 0.0, 0.0])

    def tangent_basis(self, p):
        eye = np.eye(4)
        basis = np.broadcast_to(eye, p.shape[:-1] + eye.shape)
        return body_components(p[..., None, :], basis)


@dataclass(frozen=True)
class ComplexProjective(_AmbientSphere):
    """CP^n normalized so that sectional curvature lies in [1/4, 1].

    Points are unit vectors in C^{n+1}, stored as 2n+2 reals (real parts
    first), one fixed phase representative per projective class.  Tangents
    are horizontal ambient vectors: orthogonal to the base vector and to its
    imaginary-unit rotation.  The metric is 4 times the ambient one, which
    realizes the stated curvature normalization.
    """

    n: int
    metric_scale = 4.0

    def __post_init__(self):
        _check_integer(self.n, 1, "ComplexProjective n")

    @property
    def dim(self):
        return 2 * int(self.n)

    @property
    def point_dim(self):
        return 2 * int(self.n) + 2

    def curvature(self, x, y, z):
        jx, jy, jz = jmul(x), jmul(y), jmul(z)
        out = super().curvature(x, y, z)
        out += np.vecdot(jy, z)[..., None] * jx - np.vecdot(jx, z)[..., None] * jy
        out += 2.0 * np.vecdot(x, jy)[..., None] * jz
        return out

    def curvature_bounds(self):
        return (1.0, 1.0) if self.n == 1 else (0.25, 1.0)

    def project_tangent(self, p, u):
        return _horizontal(u, p, jmul(p))

    def transport_rhs(self, w, x, v, jx, jv):
        return super().transport_rhs(w, x, v) - np.vecdot(w, jv)[..., None] * jx

    def transport_project(self, w, x, v, jx, jv):
        return _horizontal(w, x, jx)

    def transport_coeffs(self, X, V):
        x, v = X[..., None, :], V[..., None, :]
        return x, v, jmul(x), jmul(v)

    def canonical_point(self, p):
        m = p.shape[-1] // 2
        zc = p[..., :m] + 1j * p[..., m:]
        idx = np.argmax(np.abs(zc), axis=-1)
        lead = np.take_along_axis(zc, idx[..., None], axis=-1)
        phase = lead / np.abs(lead)
        zc = zc / phase
        return np.concatenate([zc.real, zc.imag], axis=-1)

    def validate_tangent(self, p, u):
        super().validate_tangent(p, u)
        size = max(1.0, float(np.linalg.norm(u)))
        if abs(float(np.vecdot(u, jmul(p)))) > TANGENT_ORTHO_TOL * size:
            raise DomainError("ComplexProjective tangent must be horizontal")

    def point_distance(self, p, q):
        # phase-invariant chordal distance: align the phase, then subtract
        m = p.shape[-1] // 2
        zp = p[..., :m] + 1j * p[..., m:]
        zq = q[..., :m] + 1j * q[..., m:]
        corr = np.sum(zp * np.conj(zq), axis=-1)
        mag = np.abs(corr)
        phase = np.where(mag > 1e-300, corr / np.where(mag > 1e-300, mag, 1.0), 1.0)
        return float(np.linalg.norm(zp - phase * zq))


@dataclass(frozen=True)
class Scaled(ManifoldModel):
    """``base`` with its metric multiplied by ``lam**2``.

    Only ``inner``, ``pair_inner`` and ``curvature_bounds`` (by 1/lam^2)
    change.  The rest (the (1,3) curvature tensor, the geodesic and transport
    equations, the projections and checks, the hooks and the sizes) is
    invariant under a constant rescaling: ``__post_init__`` binds each member
    named in ``_SHARED`` from ``base`` onto the instance, shadowing the
    defaults of ``ManifoldModel`` too.  They are bound at construction, so a
    later change to the base's class is not seen by an existing ``Scaled``;
    a subclass that overrides one must leave it out of its ``_SHARED``.
    """

    base: ManifoldModel
    lam: float

    _SHARED = (
        "dim", "point_dim", "tangent_dim", "curvature", "project_point",
        "project_tangent", "project_state", "validate_point", "validate_tangent",
        "tangent_basis", "state_rhs", "transport_rhs", "transport_coeffs",
        "transport_project", "canonical_point", "point_distance",
        "special_directions", "killing_direction",
    )

    def __post_init__(self):
        if not 0 < self.lam < math.inf:  # NaN fails too
            raise ParameterError(f"Scaled lam must be finite and positive, got {self.lam!r}")
        if not isinstance(self.base, ManifoldModel):
            raise ParameterError("Scaled base must be a manifold model")
        for name in self._SHARED:
            object.__setattr__(self, name, getattr(self.base, name))

    def inner(self, u, v):
        return self.lam**2 * self.base.inner(u, v)

    def pair_inner(self, A, B):
        return self.lam**2 * self.base.pair_inner(A, B)

    def curvature_bounds(self):
        lo, hi = self.base.curvature_bounds()
        return lo / self.lam**2, hi / self.lam**2


def unwrap(model):
    """Strip ``Scaled`` wrappers; returns (core model, total scale factor)."""
    lam = 1.0
    while isinstance(model, Scaled):
        lam *= model.lam
        model = model.base
    return model, lam


# ---------------------------------------------------------------------------
# constructors


def make_point(model, coordinates):
    coords = np.asarray(coordinates, dtype=float)
    coords = model.canonical_point(coords)
    model.validate_point(coords)
    return Point(coords)


def make_tangent(model, base, components):
    comps = np.asarray(components, dtype=float)
    model.validate_point(base.coordinates)
    model.validate_tangent(base.coordinates, comps)
    return Tangent(base, comps)


def make_frame(model, base, vectors):
    vecs = tuple(vectors)
    for v in vecs:
        if not np.array_equal(v.base.coordinates, base.coordinates):
            raise DomainError("frame vectors must share the frame's base point")
    comps = np.stack([v.components for v in vecs])
    gram = model.pair_inner(comps, comps)
    if np.max(np.abs(gram - np.eye(len(vecs)))) > FRAME_ORTHO_TOL:
        raise DomainError("frame vectors must be g-orthonormal")
    return Frame(base, vecs)


def _check_shared_base(u, v):
    if u.base.coordinates.shape != v.base.coordinates.shape or not np.allclose(
        u.base.coordinates, v.base.coordinates, rtol=0.0, atol=1e-12
    ):
        raise DomainError("tangent vectors must share a base point")


# ---------------------------------------------------------------------------
# metric / curvature operations


def metric_inner(model, u, v):
    """g(u, v) for two tangent vectors at the same point."""
    _check_shared_base(u, v)
    model.validate_point(u.base.coordinates)
    model.validate_tangent(u.base.coordinates, u.components)
    model.validate_tangent(v.base.coordinates, v.components)
    return float(model.inner(u.components, v.components))


def curvature_operator(model, x, y, z):
    """R(x, y) z as a tangent vector at the shared base point."""
    _check_shared_base(x, y)
    _check_shared_base(x, z)
    out = model.curvature(x.components, y.components, z.components)
    return Tangent(x.base, out)


def sec_from_components(model, u, v):
    """Sectional curvature from raw component arrays (batched)."""
    uu = model.inner(u, u)
    vv = model.inner(v, v)
    uv = model.inner(u, v)
    den = uu * vv - uv**2
    num = model.inner(model.curvature(u, v, v), u)
    return num, den, uu * vv


def sectional_curvature(model, u, v):
    """Curvature of the plane spanned by ``u`` and ``v``."""
    _check_shared_base(u, v)
    num, den, norm2 = sec_from_components(model, u.components, v.components)
    if norm2 <= 0 or den / norm2 <= PLANE_GRAM_TOL:
        raise DegeneratePlaneError("tangent vectors are (nearly) linearly dependent")
    return float(num / den)


def pair_inner(model, A, B):
    """Matrix of metric inner products between two stacks of vectors.

    ``A`` has shape (..., k, d) and ``B`` (..., m, d); the result (..., k, m)
    holds g(A_i, B_j).  Uses matmul, which is much faster than broadcast
    reductions for the profile-sized workloads.
    """
    return model.pair_inner(A, B)


def curvature_bounds(model):
    """Exact (min, max) of sectional curvature over all 2-planes."""
    return model.curvature_bounds()


# ---------------------------------------------------------------------------
# low-discrepancy sampling helpers


SOBOL_BITS = 30


@cache
def _sobol_table():
    """(poly, vinit) of the Joe-Kuo direction table that SciPy ships, read
    from its file so that the ``scipy.stats`` package is never imported.

    The file's int64 columns are kept as uint32, as SciPy keeps them: a
    process holding the int64 arrays showed 50-60 MB of transparent huge
    pages and up to 25% more peak RSS on the ``sphere-bundle`` benchmark.
    """
    path = os.path.join(os.path.dirname(scipy.__file__), "stats", "_sobol_direction_numbers.npz")
    with np.load(path) as table:
        return table["poly"].astype(np.uint32), table["vinit"].astype(np.uint32)


@cache
def _sobol_directions(dim):
    """Unscrambled direction numbers, shape (dim, SOBOL_BITS): the Bratley-Fox
    recurrence on each primitive polynomial, column j scaled to bit 29 - j."""
    poly, vinit = _sobol_table()
    v = np.ones((dim, SOBOL_BITS), dtype=np.int64)
    for d in range(1, dim):
        p = int(poly[d])
        deg = p.bit_length() - 1
        row = [int(x) for x in vinit[d, :deg]]
        for j in range(deg, SOBOL_BITS):
            new = row[j - deg]
            for k in range(deg):
                if (p >> (deg - k - 1)) & 1:
                    new ^= row[j - k - 1] << (k + 1)
            row.append(new)
        v[d] = row
    v <<= SOBOL_BITS - 1 - np.arange(SOBOL_BITS)
    v.flags.writeable = False  # one cached array serves every caller
    return v


def _check_integer(value, least, name):
    """``ParameterError`` naming the field unless ``value`` is an integer >= ``least``
    (a bool or a float is not, a NumPy integer is)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
        raise ParameterError(f"{name} must be an integer >= {least}, got {value!r}")


def sobol_uniforms(dim, count, seed):
    """First ``count`` points of a scrambled Sobol' sequence, clipped away from {0, 1}.

    Joe and Kuo's direction numbers with Matousek's linear matrix scramble and
    digital shift, bit for bit the points of ``scipy.stats.qmc.Sobol(dim,
    scramble=True, seed=seed)``: ``np.random.default_rng(seed)`` draws the
    shift bits, then the lower-triangular scramble matrices (unit diagonal,
    applied over GF(2) to each direction number, most significant bit
    first); the shift is the first point and the rest follow in Gray-code
    order.  Building them here keeps ``scipy.stats`` out of the process:
    ``import sphererank`` took a median 1.51 s with it and takes 0.58 s
    without (10 fresh processes on a 2-core machine).
    """
    if count < 1:
        raise ParameterError("sample count must be >= 1")
    limit = len(_sobol_table()[0])
    if not 1 <= dim <= limit:
        raise ParameterError(f"Sobol' dimension must be in [1, {limit}], got {dim}")
    rng = np.random.default_rng(seed)
    bits = np.arange(SOBOL_BITS)
    shift = rng.integers(2, size=(dim, SOBOL_BITS), dtype=np.uint32) @ (1 << bits)
    scramble = np.tril(rng.integers(2, size=(dim, SOBOL_BITS, SOBOL_BITS), dtype=np.uint32))
    scramble[:, bits, bits] = 1
    # row r of a scramble matrix gives bit r (most significant first) of the
    # scrambled direction number, over GF(2)
    msb = SOBOL_BITS - 1 - bits
    v = (_sobol_directions(dim)[:, :, None] >> msb) & 1
    v = (((v @ scramble.transpose(0, 2, 1)) & 1) << msb).sum(-1)
    # point i >= 1 is point i - 1 XOR the direction number of i's lowest set bit
    i = np.arange(1, count)
    x = np.bitwise_xor.accumulate(np.vstack([shift, v.T[np.bitwise_count((i & -i) - 1)]]), axis=0)
    return np.clip(x * 2.0**-SOBOL_BITS, 1e-12, 1.0 - 1e-12)


# Cephes' ndtri: the rational approximations of the inverse normal
# distribution, in x - 1/2 on the middle branch and in 1/x, x = sqrt(-2 log y),
# on the tails (P1/Q1 for y above exp(-32), P2/Q2 below)
_NDTRI_S2PI = 2.50662827463100050242e0
_NDTRI_EXP_M2 = 0.13533528323661269189
_NDTRI_P0 = (-5.99633501014107895267e1, 9.80010754185999661536e1, -5.66762857469070293439e1,
             1.39312609387279679503e1, -1.23916583867381258016e0)
_NDTRI_Q0 = (1.95448858338141759834e0, 4.67627912898881538453e0, 8.63602421390890590575e1,
             -2.25462687854119370527e2, 2.00260212380060660359e2, -8.20372256168333339912e1,
             1.59056225126211695515e1, -1.18331621121330003142e0)
_NDTRI_P1 = (4.05544892305962419923e0, 3.15251094599893866154e1, 5.71628192246421288162e1,
             4.40805073893200834700e1, 1.46849561928858024014e1, 2.18663306850790267539e0,
             -1.40256079171354495875e-1, -3.50424626827848203418e-2, -8.57456785154685413611e-4)
_NDTRI_Q1 = (1.57799883256466749731e1, 4.53907635128879210584e1, 4.13172038254672030440e1,
             1.50425385692907503408e1, 2.50464946208309415979e0, -1.42182922854787788574e-1,
             -3.80806407691578277194e-2, -9.33259480895457427372e-4)
_NDTRI_P2 = (3.23774891776946035970e0, 6.91522889068984211695e0, 3.93881025292474443415e0,
             1.33303460815807542389e0, 2.01485389549179081538e-1, 1.23716634817820021358e-2,
             3.01581553508235416007e-4, 2.65806974686737550832e-6, 6.23974539184983293730e-9)
_NDTRI_Q2 = (6.02427039364742014255e0, 3.67983563856160859403e0, 1.37702099489081330271e0,
             2.16236993594496635890e-1, 1.34204006088543189037e-2, 3.28014464682127739104e-4,
             2.89247864745380683936e-6, 6.79019408009981274425e-9)


def _horner(x, coefficients, ans):
    """Cephes' ``polevl`` (``ans`` the leading coefficient) and ``p1evl``
    (``ans`` = x + the first coefficient), in their order of operations."""
    for c in coefficients:
        ans = ans * x + c
    return ans


def _log(x):
    """``math.log`` (the C library's) elementwise: NumPy's SIMD ``log`` differs
    from it in the last bit on a few inputs in 10^5, and ndtri's bits follow it."""
    return np.fromiter(map(math.log, x.tolist()), float, len(x))


def gaussians_from_uniforms(u):
    """Standard normal quantiles of ``u`` in (0, 1), bit for bit the values of
    ``scipy.special.ndtri`` (and so of ``scipy.stats.norm.ppf``).

    This is Cephes' ``ndtri`` in NumPy, which keeps ``scipy.special`` out of
    the process.  ``u`` above 1 - exp(-2) is reflected to y = 1 - u; on the
    middle branch, y in (exp(-2), 1 - exp(-2)], the quantile is y - 1/2 times
    a rational function of (y - 1/2)^2, and on the tails it is +-(x0 - x1)
    with x = sqrt(-2 log y), x0 = x - log(x) / x and x1 a rational function
    of 1/x.
    """
    u = np.asarray(u, dtype=float)
    y = u.ravel()
    flip = y > 1.0 - _NDTRI_EXP_M2
    y = np.where(flip, 1.0 - y, y)
    out = np.empty_like(y)
    mid = y > _NDTRI_EXP_M2
    m = y[mid] - 0.5
    m2 = m * m
    P = _horner(m2, _NDTRI_P0[1:], _NDTRI_P0[0])
    Q = _horner(m2, _NDTRI_Q0[1:], m2 + _NDTRI_Q0[0])
    out[mid] = (m + m * (m2 * P / Q)) * _NDTRI_S2PI
    tail = ~mid
    x = np.sqrt(-2.0 * _log(y[tail]))
    x0 = x - _log(x) / x
    z = 1.0 / x
    x1 = np.empty_like(x)
    for rows, Pc, Qc in ((x < 8.0, _NDTRI_P1, _NDTRI_Q1), (x >= 8.0, _NDTRI_P2, _NDTRI_Q2)):
        if rows.any():  # the x >= 8 tail, y below exp(-32), is mostly empty
            zr = z[rows]
            x1[rows] = zr * _horner(zr, Pc[1:], Pc[0]) / _horner(zr, Qc[1:], zr + Qc[0])
    out[tail] = np.where(flip[tail], x0 - x1, x1 - x0)
    return out.reshape(u.shape)


def points_from_uniforms(model, u):
    """Map uniform rows to model points (Gaussian radial map, then normalize)."""
    g = gaussians_from_uniforms(u)
    p = g / np.linalg.norm(g, axis=-1, keepdims=True)
    return model.canonical_point(p)


def tangents_from_uniforms(model, points, u):
    """Map uniform rows to g-unit tangent vectors at the given points; ``DomainError``
    where a row has no tangential part (a substitute would bias the sample)."""
    g = gaussians_from_uniforms(u)
    w = model.project_tangent(points, g)
    norms = np.sqrt(model.inner(w, w))
    if np.any(norms < 1e-12):
        raise DomainError("a sampled direction has no tangential part")
    return w / norms[..., None]


# ---------------------------------------------------------------------------
# curvature scan


@dataclass(frozen=True, eq=False)
class CurvatureScan:
    """Extremes of sampled sectional curvature with the extremal planes."""

    minimum: float
    maximum: float
    argmin: tuple
    argmax: tuple
    samples: int


def _berger_plane_samples(core, points, u):
    """Planes on the Berger sphere, parameterized by their unit normal.

    The polar angle of the normal (measured from the Hopf axis in the
    orthonormal frame) is sampled linearly in angle, which concentrates
    samples near the extremal planes at both poles.
    """
    theta = math.pi * u[..., 0]
    phi = 2.0 * math.pi * u[..., 1]
    n = np.stack(
        [np.cos(theta), np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi)], axis=-1
    )
    # orthonormal completion of n in the frame where g is Euclidean
    ref = np.where(np.abs(n[..., :1]) < 0.9, np.eye(3)[0], np.eye(3)[1])
    v1 = np.cross(n, ref)
    v1 /= np.linalg.norm(v1, axis=-1, keepdims=True)
    v2 = np.cross(n, v1)
    scale = np.array([1.0 / core.eta, 1.0, 1.0])  # orthonormal frame -> {i,j,k} coefficients
    return v1 * scale, v2 * scale


def _generic_plane_samples(model, points, u):
    td = model.tangent_dim
    a = tangents_from_uniforms(model, points, u[..., :td])
    g = gaussians_from_uniforms(u[..., td:])
    w = model.project_tangent(points, g)
    w = w - model.inner(w, a)[..., None] * a
    # a degenerate plane is dropped by ``curvature_scan``'s Gram test
    return a, w / np.sqrt(model.inner(w, w))[..., None]


def curvature_scan(model, sample_count, seed):
    """Deterministic min/max of sectional curvature over sampled 2-planes."""
    _check_integer(sample_count, 1, "sample_count")
    _check_integer(seed, 0, "seed")
    core, _ = unwrap(model)
    berger = isinstance(core, BergerSphere)
    dp = model.point_dim
    plane_dims = 2 if berger else 2 * model.tangent_dim
    u = sobol_uniforms(dp + plane_dims, sample_count, seed)
    points = points_from_uniforms(model, u[:, :dp])
    if berger:
        a, b = _berger_plane_samples(core, points, u[:, dp:])
    else:
        a, b = _generic_plane_samples(model, points, u[:, dp:])
    num, den, norm2 = sec_from_components(model, a, b)
    ok = den > PLANE_GRAM_TOL * norm2
    sec = np.where(ok, num / np.where(ok, den, 1.0), np.nan)
    if not np.any(ok):
        raise DegeneratePlaneError("all sampled planes were degenerate")
    imin = int(np.nanargmin(sec))
    imax = int(np.nanargmax(sec))

    def plane(i):
        p = Point(points[i])
        return (p, Tangent(p, a[i]), Tangent(p, b[i]))

    return CurvatureScan(
        minimum=float(sec[imin]),
        maximum=float(sec[imax]),
        argmin=plane(imin),
        argmax=plane(imax),
        samples=int(sample_count),
    )


def point_distance(model, p, q):
    """Distance between coordinate representatives (phase-invariant on CP^n)."""
    pa = p.coordinates if isinstance(p, Point) else np.asarray(p, dtype=float)
    qa = q.coordinates if isinstance(q, Point) else np.asarray(q, dtype=float)
    return model.point_distance(pa, qa)
