"""Span tracer for the traced run.

The tracer wraps public functions of sphererank at the name each caller looks
up (``from .x import f`` binds a name at import, so ``rank.flow_arrays`` and
``geodesics.flow_arrays`` are separate bindings and both are wrapped).  Each
wrapped call records a span (name, start, end, parent, op id) in memory;
counters are updated at the same boundaries.  Self times and per-layer
metrics are derived from the spans afterwards.  The untraced run never
creates a Tracer, so it runs the library unwrapped.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from collections import Counter, defaultdict

import scipy.optimize
from sphererank import cli, geodesics, jacobi, rank

# Span names whose self time is attributed to a layer.  "op" is the
# benchmark's own span around each public call.
LAYER_SPANS = (
    "geodesics.flow",
    "geodesics.midpoints",
    "geodesics.frame",
    "jacobi.profile",
    "jacobi.propagate",
    "jacobi.detect",
    "jacobi.witness",
    "rank.search",
    "rank.fiber_time",
    "rank.sample",
    "rank.check",
    "geometry.scan",
    "cli.command",
)


def _steps(times):
    return len(times) - 1


def _nbytes(result):
    items = result if isinstance(result, tuple) else (result,)
    return sum(getattr(a, "nbytes", 0) for a in items)


class Tracer:
    """Spans and counters for one traced run; ``install``/``uninstall`` patch the library."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, op id]
        self.counts = Counter()
        self._stack = []
        self._patches = []
        self.op_id = None

    # -- spans -------------------------------------------------------------

    def open(self, name):
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.op_id])
        self._stack.append(len(self.spans) - 1)

    def close(self):
        self.spans[self._stack.pop()][2] = time.perf_counter()

    # -- patching ----------------------------------------------------------

    def _patch(self, owner, attr, make):
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        setattr(owner, attr, functools.wraps(original)(make(original)))
        self._patches.append((owner, attr, original))

    def span(self, owner, attr, name, after=None):
        """Record a span around every call of ``owner.attr``; ``after(args, result)`` counts."""

        def make(original):
            def wrapper(*args, **kwargs):
                self.open(name)
                try:
                    result = original(*args, **kwargs)
                finally:
                    self.close()
                if after is not None:
                    after(args, kwargs, result)
                return result

            return wrapper

        self._patch(owner, attr, make)

    def counter(self, owner, attr, after):
        """Count calls of ``owner.attr`` without a span (too frequent to time)."""

        def make(original):
            def wrapper(*args, **kwargs):
                result = original(*args, **kwargs)
                after(args, kwargs, result)
                return result

            return wrapper

        self._patch(owner, attr, make)

    def install(self):
        c = self.counts

        def add(key, fn=lambda a, k, r: 1):
            def after(args, kwargs, result):
                c[key] += fn(args, kwargs, result)

            return after

        def chain(*hooks):
            def after(args, kwargs, result):
                for h in hooks:
                    h(args, kwargs, result)

            return after

        bundle_bytes = add("bundle_bytes", lambda a, k, r: _nbytes(r))
        flow_steps = add("flow_steps", lambda a, k, r: _steps(a[3]))

        # geodesics: rank's bundle path and the single-geodesic public path
        self.span(rank, "flow_arrays", "geodesics.flow",
                  chain(flow_steps, bundle_bytes, add("chunks")))
        self.span(geodesics, "flow_arrays", "geodesics.flow", flow_steps)
        self.span(rank, "geodesic_flow", "geodesics.flow")
        self.span(cli, "geodesic_flow", "geodesics.flow")
        self.span(rank, "hermite_midpoints", "geodesics.midpoints", bundle_bytes)
        self.span(geodesics, "hermite_midpoints", "geodesics.midpoints")
        frame_steps = add("frame_steps", lambda a, k, r: _steps(a[1]))
        self.span(rank, "frame_arrays", "geodesics.frame", chain(frame_steps, bundle_bytes))
        self.span(geodesics, "frame_arrays", "geodesics.frame", frame_steps)
        self.span(cli, "normal_frame", "geodesics.frame")
        self.counter(geodesics.Trajectory, "state_at", add("state_at_calls"))

        # jacobi
        self.span(rank, "profile_arrays", "jacobi.profile", bundle_bytes)
        self.span(rank, "interval_midpoints", "jacobi.profile", bundle_bytes)
        self.span(jacobi, "profile_arrays", "jacobi.profile")
        self.span(jacobi, "interval_midpoints", "jacobi.profile")
        self.span(cli, "curvature_profile", "jacobi.profile")
        propagate_steps = add("propagate_steps", lambda a, k, r: _steps(a[0]))
        self.span(rank, "solve_jacobi_arrays", "jacobi.propagate",
                  chain(propagate_steps, bundle_bytes))
        self.span(jacobi, "solve_jacobi_arrays", "jacobi.propagate", propagate_steps)
        self.span(cli, "jacobi_propagate", "jacobi.propagate")
        detect = chain(add("detect_calls"), add("events", lambda a, k, r: len(r)))
        self.span(rank, "detect_events", "jacobi.detect", detect)
        self.span(cli, "detect_events", "jacobi.detect", detect)
        self.counter(jacobi.JacobiPropagator, "evaluate", add("refine_evals"))
        self.span(rank, "spherical_witness", "jacobi.witness",
                  chain(add("witness_calls"), add("witness_hits", lambda a, k, r: r is not None)))

        # rank
        search_sig = inspect.signature(rank.weak_field_search)

        def search_passed(args, kwargs, result):
            tol = search_sig.bind(*args, **kwargs).arguments["tol"]
            return result[0] <= tol

        self.span(rank, "weak_field_search", "rank.search",
                  chain(add("search_calls"), add("search_passes", search_passed)))
        self.counter(scipy.optimize, "minimize", add("nm_fevals", lambda a, k, r: r.nfev))
        self.span(rank, "measure_fiber_time", "rank.fiber_time")
        self.span(rank.GeodesicSampler, "states", "rank.sample")
        for owner in (rank, cli):
            for attr in ("check_positive_spherical_rank", "check_weak_spherical_rank",
                         "berger_report"):
                self.span(owner, attr, "rank.check")
            self.span(owner, "curvature_scan", "geometry.scan")

        # cli
        self.span(cli, "main", "cli.command")
        self.counter(cli, "serialize_report", add("report_bytes", lambda a, k, r: len(r)))
        return self

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- derived metrics ---------------------------------------------------

    def self_times(self):
        """Sum of span self time (duration minus child durations) by span name."""
        child = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        out = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            out[name] += end - start - child[i]
        return out

    def layer_metrics(self, cycles, overhead_s):
        """Per-layer metrics per workload cycle, as (value, unit) pairs."""
        st = self.self_times()
        c = self.counts
        n = max(cycles, 1)

        def ratio(a, b):
            return a / b if b else 0.0

        op_s = sum(end - start for name, start, end, _, _ in self.spans if name == "op")
        covered = sum(st[name] for name in LAYER_SPANS)
        m = {
            "geodesics.flow_s": (st["geodesics.flow"] / n, "s"),
            "geodesics.flow_steps": (c["flow_steps"] / n, "count"),
            "geodesics.flow_step_us": (1e6 * ratio(st["geodesics.flow"], c["flow_steps"]), "us"),
            "geodesics.frame_s": (st["geodesics.frame"] / n, "s"),
            "geodesics.frame_steps": (c["frame_steps"] / n, "count"),
            "geodesics.midpoints_s": (st["geodesics.midpoints"] / n, "s"),
            "geodesics.state_at_calls": (c["state_at_calls"] / n, "count"),
            "jacobi.profile_s": (st["jacobi.profile"] / n, "s"),
            "jacobi.propagate_s": (st["jacobi.propagate"] / n, "s"),
            "jacobi.propagate_steps": (c["propagate_steps"] / n, "count"),
            "jacobi.detect_s": (st["jacobi.detect"] / n, "s"),
            "jacobi.detect_calls": (c["detect_calls"] / n, "count"),
            "jacobi.refine_evals": (c["refine_evals"] / n, "count"),
            "jacobi.events": (c["events"] / n, "count"),
            "jacobi.refine_evals_per_event": (ratio(c["refine_evals"], c["events"]), "ratio"),
            "jacobi.witness_s": (st["jacobi.witness"] / n, "s"),
            "jacobi.witness_hit_ratio": (ratio(c["witness_hits"], c["witness_calls"]), "ratio"),
            "rank.search_s": (st["rank.search"] / n, "s"),
            "rank.search_calls": (c["search_calls"] / n, "count"),
            "rank.nm_fevals": (c["nm_fevals"] / n, "count"),
            "rank.search_pass_ratio": (ratio(c["search_passes"], c["search_calls"]), "ratio"),
            "rank.fiber_time_s": (st["rank.fiber_time"] / n, "s"),
            "rank.sample_s": (st["rank.sample"] / n, "s"),
            "rank.check_s": (st["rank.check"] / n, "s"),
            "rank.bundle_mb_computed": (1e-6 * ratio(c["bundle_bytes"], c["chunks"]), "MB"),
            "geometry.scan_s": (st["geometry.scan"] / n, "s"),
            "cli.command_s": (st["cli.command"] / n, "s"),
            "cli.report_bytes": (c["report_bytes"] / n, "bytes"),
            "trace.op_s": (op_s / n, "s"),
            "trace.coverage": (ratio(covered, op_s), "ratio"),
            "trace.overhead_s": (overhead_s, "s"),
        }
        return m

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op"], "spans": self.spans}, fh)
