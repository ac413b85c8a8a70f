"""Analyzed rank bundles and their per-geodesic views, for the tests that
compare a bundle row with the single-geodesic objects.  pytest does not
collect this file."""

import numpy as np

from sphererank import rank
from sphererank.geodesics import ParallelField, Trajectory, frame_arrays, hermite_midpoints
from sphererank.jacobi import (
    CurvatureProfile,
    JacobiPropagator,
    interval_midpoints,
    solve_jacobi_arrays,
)


def analyzed_bundle(model, P, W, horizon, step, frame=True):
    """A rank chunk's arrays in one dict: ``rank._flow`` at ``step``, then
    ``rank._curvature``, K at the interval midpoints, and the fundamental
    solution M, M' of the positive check.

    With ``frame`` the dict also keeps the states X, V and the frame E, which
    ``_curvature`` frees; E is rebuilt here the way ``_curvature`` builds it.
    """
    times, X, V = rank._flow(model, P, W, horizon, step)
    K, defect = rank._curvature(model, times, X, V)
    Kmid = interval_midpoints(times, K)
    M, Mp = solve_jacobi_arrays(times, K, Kmid, np.zeros(K.shape[1:]),
                                np.broadcast_to(np.eye(K.shape[-1]), K.shape[1:]))
    bundle = {"times": times, "step": 2 * step, "K": K, "defect": defect, "Kmid": Kmid,
              "M": M, "Mp": Mp}
    if frame:
        E = frame_arrays(model, times, X, V, *hermite_midpoints(model, times, X, V))
        bundle.update(X=X, V=V, E=E)
    return bundle


def second_solution(bundle):
    """N with N(0) = I and N'(0) = 0, solved on its own: the fundamental
    solution that the weak search pairs with M."""
    K = bundle["K"]
    N, _ = solve_jacobi_arrays(bundle["times"], K, bundle["Kmid"],
                               np.broadcast_to(np.eye(K.shape[-1]), K.shape[1:]),
                               np.zeros(K.shape[1:]))
    return N


def bundle_propagator(bundle):
    """The whole bundle's batched propagator, as the positive check builds it."""
    return JacobiPropagator(bundle["times"], bundle["K"], bundle["M"], bundle["Mp"])


def row_views(model, bundle, b):
    """Per-geodesic profile/propagator objects backed by bundle slices.

    A bundle built without a frame has no profile: it gives None and the
    propagator, whose K and solutions are all detection reads.
    """
    times, K = bundle["times"], bundle["K"][:, b]
    prop = JacobiPropagator(times, K, bundle["M"][:, b], bundle["Mp"][:, b])
    if "E" not in bundle:
        return None, prop
    traj = Trajectory(model, times, bundle["X"][:, b], bundle["V"][:, b], bundle["step"])
    fields = [ParallelField(traj, bundle["E"][:, b, a]) for a in range(bundle["E"].shape[2])]
    return CurvatureProfile(traj, fields, K, float(bundle["defect"][b])), prop


def bundle_views(model, P, W, horizon, step=1e-3):
    """An ``analyzed_bundle`` with its frame, and the ``row_views`` of every row."""
    bundle = analyzed_bundle(model, P, W, horizon, step)
    return bundle, [row_views(model, bundle, b) for b in range(len(P))]
