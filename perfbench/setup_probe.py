"""One fresh-process set-up: import sphererank, build a workload's models and samples.

Usage: python3 perfbench/setup_probe.py <workload> <seed>
Prints "ready" when the first op could start; run.py times that from spawn.
"""

import sys

import env

if __name__ == "__main__":
    env.prepare()
    import workloads

    workloads.build(sys.argv[1], int(sys.argv[2]))
    print("ready", flush=True)
