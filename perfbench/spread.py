"""Run-to-run spread of the end-to-end metrics over ten seeds.

    python3 perfbench/spread.py [--out FILE]

Runs ``run.py`` once per seed (1-10) and workload of BENCHMARK.json, one run
at a time, with its ``run_seconds``.  For each metric it prints the median,
the quartiles (``statistics.quantiles(values, n=4)``) and the spread
(q3 - q1) / median next to the metric's bound.  A spread within a third of
the bound is marked ``ok``.  ``--out`` writes the table and every run's
metrics as JSON (perfbench/baseline.json holds one such record).
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys

import run

SEEDS = range(1, 11)


def main(argv=None):
    spec = run.benchmark_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)

    summary = {"run_seconds": spec["run_seconds"], "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        runs = []
        for seed in SEEDS:
            stdout, result = run.run_child(workload, seed, spec["run_seconds"], 0)
            if not result["correct"]:
                print(stdout, end="")
            runs.append({"seed": seed, **result})
            record = run.OUT / f"{workload}-seed{seed}-trace0.json"
            summary.setdefault("environment", json.loads(record.read_text())["environment"])
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)
        table = {}
        for metric in spec["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in runs]
            q1, q2, q3 = statistics.quantiles(values, n=4)
            med = statistics.median(values)
            spread = (q3 - q1) / med
            table[metric["name"]] = {
                "median": med, "q1": q1, "q3": q3, "spread": spread,
                "bound": metric["bound"], "unit": metric["unit"],
            }
            flag = "ok" if spread < metric["bound"] / 3 else "WIDE"
            print(f"  {workload:14s} {metric['name']:16s} median {med:12.6g} {metric['unit']:6s}"
                  f" spread {spread:7.4f} bound {metric['bound']:5.2f} {flag}", flush=True)
        summary["workloads"][workload] = {
            "failed": sum(r["failed"] for r in runs), "metrics": table, "runs": runs,
        }
    if args.out:
        with open(args.out, "w") as f:
            f.write(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
