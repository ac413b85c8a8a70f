"""Per-geodesic views of a rank bundle, for the tests that compare a bundle
row with the single-geodesic objects.  pytest does not collect this file."""

from sphererank.geodesics import ParallelField, Trajectory
from sphererank.jacobi import CurvatureProfile, JacobiPropagator


def row_views(model, bundle, sols, b):
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
