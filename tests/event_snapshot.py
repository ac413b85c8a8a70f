"""Snapshot of conjugate events and verdicts on a fixed comparison set.

Run once per commit and compare the two files:

    PYTHONPATH=src python tests/event_snapshot.py before.json
    PYTHONPATH=src python tests/event_snapshot.py after.json
    PYTHONPATH=src python tests/event_snapshot.py --compare before.json after.json

The set is the positive-rank check with Richardson on S^2..S^6 (window
3.5), on upper-normalized CP^2, Berger(1.2) and Berger(0.6), 200 geodesics
each, and ``detect_events`` on 64 unnormalized geodesics of Berger(0.5) and
Berger(1.2) to t = 7.9 and of CP^2 to 2 pi + 0.2.  It also holds the weak
checks of acceptance criterion 6 (Killing witness on 100 geodesics, search
on 10, for lower-normalized Berger(0.8) and upper-normalized Berger(1.2)),
the witness check on 128 geodesics of upper-normalized Berger(1.2), and one
weak check for each stage after the Killing field: "auto" on 32 geodesics
of upper-normalized Berger(0.6), where every row falls to the search, and
"auto" on 100 and "search" on 10 geodesics of upper-normalized CP^2, where
the parallel field holds.  Last come the sampler's initial states for
Berger(0.8), Berger(0.8) scaled by 1.3, S^3 and CP^2.  Event times,
certificate and weak deviations and states are stored as ``float.hex``
(a missing certificate as None).

The comparison prints, per case, "bit-identical", or each field that moved
with its largest change and its bound.  Each field has its own rule:

* counts, multiplicities, ``holds``, ``status``, ``detail``, ``passes``,
  ``has_certificate``, ``excluded_samples`` and sampler states must be equal;
* event times may move by at most ``TIME_BOUND``;
* certificate deviations may move by at most ``CERT_FRACTION`` of
  ``DEFAULT_CERT_TOL``, and weak deviations by at most ``WEAK_FRACTION``
  of ``DEFAULT_WEAK_TOL``;
* an "after" Richardson gap on a geodesic with an event must lie in
  (0, ``RICHARDSON_AGREEMENT``]: a gap of exactly zero means the
  self-check cannot fail; otherwise the gaps may move freely, and their
  range on each side is printed;
* ``worst_case`` may change only on a verdict that holds, where it is the
  argmax of noise.

The exit status is non-zero when any rule is broken.  pytest does not
collect this file.
"""

import argparse
import json
import math
import sys

SEED = 20240809
VERDICT_FIELDS = ("holds", "status", "detail")
GEODESIC_FIELDS = ("passes", "has_certificate", "excluded_samples")
# bounds of the comparison: the largest event-time move, and the largest
# certificate- and weak-deviation moves as fractions of DEFAULT_CERT_TOL and
# DEFAULT_WEAK_TOL
TIME_BOUND = 1e-9
CERT_FRACTION = 1e-4
WEAK_FRACTION = 1e-4


def _events(events):
    return [[e.time.hex(), e.multiplicity] for e in events]


def _maybe_hex(x):
    return None if x is None else x.hex()


def _hex(array):
    return [float(x).hex() for x in array.ravel()]


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
                "passes": e.passes,
                "has_certificate": e.has_certificate,
                "certificate_deviation": _maybe_hex(e.certificate_deviation),
            }
            for e in verdict.evidence
        ]
        yield name, out


def _raw(sr):
    from bundle_views import analyzed_bundle, row_views
    from sphererank import rank

    for name, model, horizon in (
        ("Berger0.5raw", sr.BergerSphere(0.5), 7.9),
        ("Berger1.2raw", sr.BergerSphere(1.2), 7.9),
        ("CP2raw", sr.ComplexProjective(2), 2 * math.pi + 0.2),
    ):
        P, W = sr.GeodesicSampler(64, SEED).states(model)
        bundle = analyzed_bundle(model, P, W, horizon, rank.model_step(model), frame=False)
        geodesics = []
        for b in range(len(P)):
            _, prop = row_views(model, bundle, b)
            geodesics.append({"events": _events(rank.detect_events(prop, (0.0, horizon)))})
        yield name, {"geodesics": geodesics}


def _weak(sr):
    lower = sr.normalize_to_bound(sr.BergerSphere(0.8), "lower")
    upper = sr.normalize_to_bound(sr.BergerSphere(1.2), "upper")
    upper06 = sr.normalize_to_bound(sr.BergerSphere(0.6), "upper")
    cp2 = sr.normalize_to_bound(sr.ComplexProjective(2), "upper")
    for name, model, side, count, seed, method in (
        ("Berger0.8l-witness", lower, "lower", 100, SEED, "witness"),
        ("Berger0.8l-search", lower, "lower", 10, SEED + 1, "search"),
        ("Berger1.2u-witness", upper, "upper", 100, SEED, "witness"),
        ("Berger1.2u-search", upper, "upper", 10, SEED + 1, "search"),
        ("Berger1.2u-witness128", upper, "upper", 128, SEED, "witness"),
        ("Berger0.6u-auto", upper06, "upper", 32, SEED, "auto"),
        ("CP2u-auto", cp2, "upper", 100, SEED, "auto"),
        ("CP2u-search", cp2, "upper", 10, SEED + 1, "search"),
    ):
        verdict = sr.check_weak_spherical_rank(
            model, side, sr.GeodesicSampler(count, seed), method=method
        )
        out = {f: getattr(verdict, f) for f in VERDICT_FIELDS + ("worst_case",)}
        out["geodesics"] = [
            {
                "events": [],
                "passes": e.passes,
                "excluded_samples": e.excluded_samples,
                "weak_deviation": e.weak_deviation.hex(),
            }
            for e in verdict.evidence
        ]
        yield name, out


def _samples(sr):
    for name, model in (
        ("Berger0.8", sr.BergerSphere(0.8)),
        ("Berger0.8x1.3", sr.Scaled(sr.BergerSphere(0.8), 1.3)),
        ("S3", sr.RoundSphere(3)),
        ("CP2", sr.ComplexProjective(2)),
    ):
        P, W = sr.GeodesicSampler(64, SEED).states(model)
        yield f"states-{name}", {"states": [_hex(P), _hex(W)]}


def snapshot(path):
    import sphererank as sr

    cases = dict(_checks(sr))
    cases.update(_raw(sr))
    cases.update(_weak(sr))
    cases.update(_samples(sr))
    with open(path, "w") as fh:
        json.dump(cases, fh, indent=1)


def _moves(old, new, faults):
    """Largest change of each moved per-geodesic number; unequal fields go to ``faults``."""
    from sphererank.rank import RICHARDSON_AGREEMENT

    moved = {}

    def note(field, before, after):
        if before != after:
            moved[field] = max(moved.get(field, 0.0), abs(after - before))

    for i, (g, h) in enumerate(zip(old["geodesics"], new["geodesics"])):
        if [m for _, m in g["events"]] != [m for _, m in h["events"]]:
            faults.append(f"geodesic {i}: multiplicities {g['events']} -> {h['events']}")
            continue
        for f in GEODESIC_FIELDS:
            if g.get(f) != h.get(f):
                faults.append(f"geodesic {i}: {f} {g.get(f)} -> {h.get(f)}")
        for (t, _), (u, _) in zip(g["events"], h["events"]):
            note("event time", float.fromhex(t), float.fromhex(u))
        if "weak_deviation" in g:
            note("weak_deviation", *(float.fromhex(x["weak_deviation"]) for x in (g, h)))
        cert = g.get("certificate_deviation"), h.get("certificate_deviation")
        if None in cert:
            if cert[0] != cert[1]:
                faults.append(f"geodesic {i}: certificate_deviation {cert[0]} -> {cert[1]}")
        else:
            note("certificate_deviation", *map(float.fromhex, cert))
        if "richardson_gap" in g:
            note("richardson_gap", g["richardson_gap"], h["richardson_gap"])
            if h["events"] and not 0 < h["richardson_gap"] <= RICHARDSON_AGREEMENT:
                faults.append(f"geodesic {i}: Richardson gap {h['richardson_gap']!r}")
    return moved


def compare(before_path, after_path):
    """Print the per-case comparison; True when every field keeps its rule."""
    from sphererank.rank import DEFAULT_CERT_TOL, DEFAULT_WEAK_TOL

    bounds = {
        "event time": TIME_BOUND,
        "certificate_deviation": CERT_FRACTION * DEFAULT_CERT_TOL,
        "weak_deviation": WEAK_FRACTION * DEFAULT_WEAK_TOL,
    }
    with open(before_path) as fh:
        before = json.load(fh)
    with open(after_path) as fh:
        after = json.load(fh)
    ok = True
    for name, old in before.items():
        new = after[name]
        if old == new:
            print(f"{name}: bit-identical")
            continue
        if "states" in old:
            print(f"{name}: sampler states DIFFER")
            ok = False
            continue
        faults = [
            f"{f}: {old.get(f)!r} -> {new.get(f)!r}"
            for f in VERDICT_FIELDS
            if old.get(f) != new.get(f)
        ]
        if len(old["geodesics"]) != len(new["geodesics"]):
            faults.append(f"{len(old['geodesics'])} -> {len(new['geodesics'])} geodesics")
        moved = _moves(old, new, faults)
        print(f"{name}: moved")
        for field, change in moved.items():
            bound = bounds.get(field)
            if bound is None:
                print(f"  {field} by up to {change:.3g}")
            elif change <= bound:
                print(f"  {field} by up to {change:.3g} (bound {bound:.3g})")
            else:
                faults.append(f"{field} moved by up to {change:.3g}, beyond the bound {bound:.3g}")
        if "richardson_gap" in moved:
            for side, case in (("before", old), ("after", new)):
                gaps = [g["richardson_gap"] for g in case["geodesics"]]
                print(f"  Richardson gap {side}: {min(gaps):.3g} .. {max(gaps):.3g}")
        if old.get("worst_case") != new.get("worst_case"):
            change = f"worst_case {old.get('worst_case')} -> {new.get('worst_case')}"
            if new.get("holds"):
                print(f"  {change} (the verdict holds)")
            else:
                faults.append(f"{change} on a verdict that does not hold")
        for line in faults:
            print(f"  FAULT {line}")
        ok = ok and not faults
    return ok


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--compare", nargs=2, metavar=("BEFORE", "AFTER"),
                        help="compare two snapshots instead of writing one")
    parser.add_argument("path", nargs="?", help="snapshot file to write")
    args = parser.parse_args(argv)
    if args.compare:
        return 0 if compare(*args.compare) else 1
    if args.path is None:
        parser.error("give a snapshot path or --compare BEFORE AFTER")
    snapshot(args.path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
