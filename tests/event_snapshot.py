"""Snapshot of conjugate events and verdicts on a fixed comparison set.

Run once per commit and compare the two files:

    PYTHONPATH=src python tests/event_snapshot.py before.json
    PYTHONPATH=src python tests/event_snapshot.py after.json
    PYTHONPATH=src python tests/event_snapshot.py --compare before.json after.json

The set is the positive-rank check with Richardson on S^2..S^6 (window
3.5), on upper-normalized CP^2, Berger(1.2) and Berger(0.6), 200 geodesics
each, and ``detect_events`` on 64 unnormalized geodesics of Berger(0.5) and
Berger(1.2) to t = 7.9 and of CP^2 to 2 pi + 0.2.  Event times are stored
as ``float.hex``.  The comparison prints, per case, whether event counts,
multiplicities and verdict fields are equal, the largest event-time
difference, the range of Richardson gaps on each side, and any change of
``worst_case``; it exits non-zero when counts, multiplicities or verdict
fields differ, when an event time moved by more than
``EVENT_TIME_RESOLUTION``, or when an "after" Richardson gap on a geodesic
with an event lies outside (0, ``RICHARDSON_AGREEMENT``]: a gap of exactly
zero means the self-check cannot fail.

pytest does not collect this file.
"""

import json
import math
import sys

SEED = 20240809
VERDICT_FIELDS = ("holds", "status", "detail")
GEODESIC_FIELDS = ("passes", "has_certificate")


def _events(events):
    return [[e.time.hex(), e.multiplicity] for e in events]


def _checks(sr):
    cases = [(f"S{n}", sr.RoundSphere(n), 3.5) for n in range(2, 7)]
    for name, model in (
        ("CP2u", sr.ComplexProjective(2)),
        ("Berger1.2u", sr.BergerSphere(1.2)),
        ("Berger0.6u", sr.BergerSphere(0.6)),
    ):
        cases.append((name, sr.normalize_to_bound(model, "upper"), None))
    for name, model, window in cases:
        verdict = sr.check_positive_spherical_rank(
            model, sr.GeodesicSampler(200, SEED), event_window=window, richardson=True
        )
        out = {f: getattr(verdict, f) for f in VERDICT_FIELDS + ("worst_case",)}
        out["geodesics"] = [
            {
                "events": _events(e.events),
                "richardson_gap": e.richardson_gap,
                **{f: getattr(e, f) for f in GEODESIC_FIELDS},
            }
            for e in verdict.evidence
        ]
        yield name, out


def _raw(sr):
    from sphererank import rank

    for name, model, horizon in (
        ("Berger0.5raw", sr.BergerSphere(0.5), 7.9),
        ("Berger1.2raw", sr.BergerSphere(1.2), 7.9),
        ("CP2raw", sr.ComplexProjective(2), 2 * math.pi + 0.2),
    ):
        P, W = sr.GeodesicSampler(64, SEED).states(model)
        bundle = rank._bundle(model, P, W, horizon, rank.DEFAULT_STEP, frame=False)
        sols = rank._propagate_bundle(bundle)
        geodesics = []
        for b in range(len(P)):
            _, prop = rank._views(model, bundle, sols, b)
            geodesics.append({"events": _events(rank.detect_events(prop, (0.0, horizon)))})
        yield name, {"geodesics": geodesics}


def snapshot(path):
    import sphererank as sr

    cases = dict(_checks(sr))
    cases.update(_raw(sr))
    with open(path, "w") as fh:
        json.dump(cases, fh, indent=1)


def compare(before_path, after_path):
    from sphererank.jacobi import EVENT_TIME_RESOLUTION
    from sphererank.rank import RICHARDSON_AGREEMENT

    with open(before_path) as fh:
        before = json.load(fh)
    with open(after_path) as fh:
        after = json.load(fh)
    same = True
    for name, old in before.items():
        new = after[name]
        lines = [
            f"{f}: {old.get(f)!r} -> {new.get(f)!r}"
            for f in VERDICT_FIELDS
            if old.get(f) != new.get(f)
        ]
        dt, events, gaps = 0.0, 0, {"before": [], "after": []}
        for i, (g, h) in enumerate(zip(old["geodesics"], new["geodesics"])):
            if [m for _, m in g["events"]] != [m for _, m in h["events"]]:
                lines.append(f"geodesic {i}: multiplicities {g['events']} -> {h['events']}")
                continue
            for f in GEODESIC_FIELDS:
                if g.get(f) != h.get(f):
                    lines.append(f"geodesic {i}: {f} {g.get(f)} -> {h.get(f)}")
            events += len(g["events"])
            for (t, _), (u, _) in zip(g["events"], h["events"]):
                dt = max(dt, abs(float.fromhex(t) - float.fromhex(u)))
            if "richardson_gap" in g:
                gaps["before"].append(g["richardson_gap"])
                gaps["after"].append(h["richardson_gap"])
                if h["events"] and not 0 < h["richardson_gap"] <= RICHARDSON_AGREEMENT:
                    lines.append(f"geodesic {i}: Richardson gap {h['richardson_gap']!r}")
        if dt > EVENT_TIME_RESOLUTION:
            lines.append(f"event times moved by up to {dt:.3g}")
        same = same and not lines
        print(f"{name}: {events} events, max |dt| {dt:.3g}")
        if old.get("worst_case") != new.get("worst_case"):
            print(f"  worst_case {old['worst_case']} -> {new['worst_case']}")
        for side, values in gaps.items():
            if values:
                print(f"  Richardson gap {side}: {min(values):.3g} .. {max(values):.3g}")
        for line in lines:
            print(f"  {line}")
    return same


if __name__ == "__main__":
    if sys.argv[1:2] == ["--compare"] and len(sys.argv) == 4:
        sys.exit(0 if compare(sys.argv[2], sys.argv[3]) else 1)
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    snapshot(sys.argv[1])
