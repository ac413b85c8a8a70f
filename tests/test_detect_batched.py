"""Detection on a whole bundle at once against detection one geodesic at a time.

A batched propagator carries the bundle axis after the time axis.  Its
brackets come from integer Maslov counts and the same midpoint arithmetic,
and its stacked LAPACK calls run the per-matrix routine, so the events must
equal those of the per-geodesic views bit for bit.
"""

import math

import numpy as np
import pytest

from bundle_views import analyzed_bundle, bundle_propagator, row_views
import sphererank as sr
from sphererank import rank as rank_mod

SEED = 20240809
CHUNK = 16


def _bundle(model, horizon, count=CHUNK):
    P, W = sr.GeodesicSampler(count, SEED).states(model)
    bundle = analyzed_bundle(model, P, W, horizon, sr.model_step(model), frame=False)
    views = [row_views(model, bundle, b)[1] for b in range(count)]
    return bundle_propagator(bundle), views


def _hex(events):
    return [(e.time.hex(), e.multiplicity) for e in events]


@pytest.mark.parametrize(
    "model, horizon, multiplicities",
    [
        (sr.RoundSphere(4), 3.5, {3}),
        (sr.ComplexProjective(2), 2 * math.pi + 0.2, {1, 3}),
        (sr.BergerSphere(0.5), 7.9, None),
    ],
    ids=["S4", "CP2", "Berger0.5"],
)
def test_batched_detection_is_bitwise_per_view_detection(model, horizon, multiplicities):
    prop, views = _bundle(model, horizon)
    batched = sr.conjugate_points(prop, (0.0, horizon))
    assert len(batched) == CHUNK
    for events, view in zip(batched, views):
        assert _hex(events) == _hex(sr.conjugate_points(view, (0.0, horizon)))
    assert all(batched)
    if multiplicities is not None:
        assert {e.multiplicity for events in batched for e in events} == multiplicities


def test_batched_counts_are_the_view_counts():
    # on the Berger sphere, unlike S^n and CP^n, Theta differs from geodesic
    # to geodesic, so a count read off another geodesic's nodes shows
    horizon = 7.9
    prop, views = _bundle(sr.BergerSphere(0.5), horizon)
    rng = np.random.default_rng(5)
    t = rng.uniform(0.0, horizon, size=CHUNK)
    t[:3] = prop.times[0], prop.times[0] - 0.5, prop.times[1]
    counts = prop.morse_count(t)
    assert counts.shape == (CHUNK,)
    assert counts[0] == counts[1] == 0
    assert list(counts) == [view.morse_count(s) for view, s in zip(views, t)]
    assert len(set(counts[3:])) > 2
    # a scalar is one time for every geodesic
    assert list(prop.morse_count(5.0)) == [view.morse_count(5.0) for view in views]


def test_a_batch_whose_count_misses_its_roots_raises():
    prop, _ = _bundle(sr.RoundSphere(3), 4.0, count=8)
    count = prop.morse_count
    prop.morse_count = lambda t: count(t) + (np.asarray(t) > 2.0) * (np.arange(8) == 5)
    with pytest.raises(sr.DomainError):
        sr.conjugate_points(prop, (0.0, 4.0))


@pytest.mark.parametrize("chunk", [1, 128])
def test_the_positive_check_detects_once_per_chunk(monkeypatch, chunk):
    # the benchmark's jacobi.detect span wraps rank.detect_events: it must
    # see every chunk, each as one batched propagator
    count, calls = 5, []
    detect = rank_mod.detect_events
    # a forked row half would detect out of this process's sight
    monkeypatch.setattr(rank_mod, "_second_core_free", lambda: False)

    def counted(prop, window, **kwargs):
        assert prop.M.ndim == 4
        calls.append(prop.M.shape[1])
        return detect(prop, window, **kwargs)

    monkeypatch.setattr(rank_mod, "detect_events", counted)
    verdict = sr.check_positive_spherical_rank(
        sr.RoundSphere(2), sr.GeodesicSampler(count, SEED), step=4e-3, chunk=chunk
    )
    assert verdict.holds
    assert len(calls) >= math.ceil(count / chunk)
    assert sum(calls) == count
