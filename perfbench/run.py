"""sphererank benchmark: closed-loop workloads, checked outputs, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload sphere-bundle --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1

One caller runs the workload's ops in a closed loop (each op starts when the
previous one has finished) in whole cycles for about ``--seconds`` (default:
``run_seconds`` of BENCHMARK.json).
Every op's output is checked; a failed check counts as a failed op and does
not stop the run.  A fixed reference kernel is timed between ops, and op
times are reported in reference seconds (see ``reference_s``).
``--trace 0`` reports the end-to-end metrics with the library unwrapped;
``--trace 1`` runs two untraced cycles (the first warms up), then installs
the tracer and reports per-layer metrics per cycle.  The last stdout line is
a JSON object {correct, attempted, failed, metrics}.  A record of the run
(versions, seed, sample counts, every op) is written to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import env

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
SETUP_REPS = 5
# Op times are reported in reference seconds: wall time scaled to a machine on
# which reference_s() takes this long.
REF_NOMINAL_S = 0.005
REF_REPS = 20


def time_setup(workload, seed):
    """Seconds from spawning a fresh interpreter until the workload is ready to run."""
    cmd = [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)]
    start = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
        code = proc.wait(timeout=120)
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"set-up probe failed with exit code {code}")
    return elapsed


def reference_kernel():
    """Fixed numpy work shaped like sphererank's: a Python loop of steps on
    4-vectors (the batch-of-1 path) and steps on (64, 4, 32) arrays with
    ``np.cross`` (the chunked path).  It never calls sphererank."""
    import numpy as np

    y = np.array([1.0, 0.0, 0.0, 0.0])
    v = np.array([0.0, 1.0, 0.0, 0.0])
    for _ in range(300):
        k = -y * np.dot(v, v)
        y = y + 1e-3 * v
        v = v + 1e-3 * k
        y = y / np.linalg.norm(y)
    big_y = np.ones((64, 4, 32))
    big_v = np.full((64, 4, 32), 0.5)
    for _ in range(30):
        big_y = big_y + 1e-3 * np.cross(big_v[:, :3], big_y[:, :3], axis=1).sum() * big_v
        big_v = big_v - 1e-3 * big_y
    return float(y.sum() + big_y.sum())


def reference_s():
    """Mean time of the reference kernel, taken between ops.

    A shared virtual machine runs the same work at speeds up to about 1.9x
    apart, in phases that last from seconds to minutes, so whole runs can
    fall in a slow phase.  An op's wall time divided by the reference time
    around it cancels much of that and keeps what the code under test does.
    The mean of calls spanning about 0.1 s follows the average speed an op
    sees; a median of a few short calls followed momentary spikes.
    """
    reference_kernel()
    start = time.perf_counter()
    for _ in range(REF_REPS):
        reference_kernel()
    return (time.perf_counter() - start) / REF_REPS


def run_op(op, tracer=None, op_id=None):
    """Run and check one op; the check runs outside the timed region."""
    if tracer is not None:
        tracer.op_id = op_id
        tracer.open("op")
    start = time.perf_counter()
    try:
        result = op.call()
        problems = None
    except Exception as exc:  # noqa: BLE001 - a raising op is a failed op, the run goes on
        problems = [f"raised {type(exc).__name__}: {exc}"]
    finally:
        wall = time.perf_counter() - start
        if tracer is not None:
            tracer.close()
    if problems is None:
        try:
            problems = op.check(result)
        except Exception as exc:  # noqa: BLE001 - malformed output is a failed op
            problems = [f"check raised {type(exc).__name__}: {exc}"]
    return {"op": op.name, "wall_s": wall, "geodesics": op.geodesics, "problems": problems}


def run_cycles(ops, deadline, tracer=None, first_id=0):
    """Whole cycles over ``ops``, at least one, while a further cycle would end
    less than half a cycle past ``deadline`` (a ``perf_counter`` value)."""
    cycles = []
    op_id = first_id
    start = time.perf_counter()
    ref = reference_s()
    while True:
        cycle = []
        for op in ops:
            record = run_op(op, tracer, op_id)
            after = reference_s()
            record["ref_s"] = 0.5 * (ref + after)
            ref = after
            cycle.append(record)
            op_id += 1
        cycles.append(cycle)
        now = time.perf_counter()
        if now + 0.5 * (now - start) / len(cycles) >= deadline:
            return cycles


def ref_seconds(record):
    """An op's wall time scaled by the reference time measured around it."""
    return record["wall_s"] * REF_NOMINAL_S / record["ref_s"]


def end_to_end(records, setup):
    """Throughput is a ratio of sums: on a machine whose speed switches between
    levels, a sum averages the levels where a median of a few ops picks one."""
    scaled = [ref_seconds(r) for r in records]
    failed = sum(1 for r in records if r["problems"])
    return {
        "geodesics_per_ref_s": (sum(r["geodesics"] for r in records) / sum(scaled), "1/ref_s"),
        "op_ref_s_p50": (statistics.median(scaled), "ref_s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "op_pass_ratio": ((len(records) - failed) / len(records), "ratio"),
    }


def git_commit():
    """HEAD of the checkout; None outside a repository or without git."""
    try:
        proc = subprocess.run(["git", "-C", str(env.ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment():
    import numpy
    import scipy

    return {
        "commit": git_commit(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": {v: os.environ.get(v) for v in env.BLAS_THREAD_VARS},
        "platform": platform.platform(),
    }


def benchmark_spec():
    return json.loads((env.ROOT / "BENCHMARK.json").read_text())


def declared_metrics(trace):
    spec = benchmark_spec()
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run_workload(args):
    import workloads
    from tracer import Tracer

    started = time.perf_counter()
    setup = [] if args.trace else [time_setup(args.workload, args.seed) for _ in range(SETUP_REPS)]
    ops = workloads.build(args.workload, args.seed)
    deadline = time.perf_counter() + args.seconds
    if args.trace:
        # the second untraced cycle is warm, like the traced ones
        untraced = run_cycles(ops, 0.0) + run_cycles(ops, 0.0)
        tracer = Tracer().install()
        try:
            traced = run_cycles(ops, deadline, tracer, len(ops))
        finally:
            tracer.uninstall()
        cycle_wall = [sum(r["wall_s"] for r in c) for c in traced]
        overhead = statistics.mean(cycle_wall) - sum(r["wall_s"] for r in untraced[1])
        metrics = tracer.layer_metrics(len(traced), overhead)
        cycles = untraced + traced
    else:
        cycles = run_cycles(ops, deadline)
    records = [r for c in cycles for r in c]
    if not args.trace:
        metrics = end_to_end(records, setup)

    declared = declared_metrics(args.trace)
    got = {k: u for k, (_, u) in metrics.items()}
    if got != declared:
        raise RuntimeError(f"metrics {got} do not match BENCHMARK.json {declared}")

    failed = sum(1 for r in records if r["problems"])
    values = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    OUT.mkdir(exist_ok=True)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(),
        "samples": {
            "cycles": len(cycles),
            "ops": len(records),
            "geodesics_per_op": {op.name: op.geodesics for op in ops},
            "setup_reps": len(setup),
        },
        "setup_s": setup,
        "ops": records,
        "metrics": values,
        "run_wall_s": time.perf_counter() - started,
    }
    (OUT / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
    if args.trace:
        tracer.dump(OUT / f"{tag}-spans.json")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"{len(cycles)} cycles  {len(records)} ops  {failed} failed")
    for r in records:
        if r["problems"]:
            print(f"  FAILED {r['op']}: {'; '.join(r['problems'][:5])}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:32s} {value:14.6g} {unit}")
    if not args.trace:
        walls = [r["wall_s"] for r in records]
        geodesics = sum(r["geodesics"] for r in records)
        print(f"  {'error_rate':32s} {failed / len(records):14.6g} ratio")
        print(f"  {'geodesics_per_s (wall)':32s} {geodesics / sum(walls):14.6g} 1/s")
        print(f"  {'op_s_p50 (wall)':32s} {statistics.median(walls):14.6g} s")
        print(f"  {'reference_s (median)':32s} "
              f"{statistics.median(r['ref_s'] for r in records):14.6g} s")
        print(f"  op samples {len(records)}, set-up samples {len(setup)}")
    return {
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": values,
    }


def run_child(workload, seed, seconds, trace):
    """Run one workload in a fresh process; return its stdout and its parsed result line."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900, check=False,
                          cwd=env.ROOT)
    if proc.returncode != 0:
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"workload {workload} exited with code {proc.returncode}")
    return proc.stdout, json.loads(proc.stdout.splitlines()[-1])


def run_all(args, names):
    """Each workload in its own process, one after another."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        stdout, result = run_child(name, args.seed, args.seconds, args.trace)
        sys.stdout.write(stdout)
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    return combined


def main(argv=None):
    spec = benchmark_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        env.prepare()
    except env.CheckoutError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    result = run_all(args, names) if args.workload == "all" else run_workload(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
