"""Run-to-run spread of the end-to-end metrics, with the workloads interleaved.

Usage (from the repository root):

    python3 perfbench/spread.py --seconds 30 --seeds 10 [--workloads a,b] [--first-seed 0]

Runs ``run.py --trace 0`` once per (seed, workload), cycling through the
workloads for each seed so that a slow phase of the host hits every
workload alike, and prints per workload and metric the median and the
quartile distance as a share of the median, as
``statistics.quantiles(values, n=4)`` gives it.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

import run
import workloads


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=0)
    parser.add_argument("--workloads", default=",".join(workloads.WORKLOADS))
    args = parser.parse_args()

    names = args.workloads.split(",")
    values = {name: {metric: [] for metric, _ in run.END_TO_END} for name in names}
    for seed in range(args.first_seed, args.first_seed + args.seeds):
        for name in names:
            proc = subprocess.run(
                [sys.executable, os.path.join(run.HERE, "run.py"), "--workload", name,
                 "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
                cwd=run.ROOT, capture_output=True, text=True, check=True)
            summary = json.loads(proc.stdout.strip().splitlines()[-1])
            if not summary["correct"]:
                print(proc.stdout, file=sys.stderr)
                return 1
            line = []
            for metric, series in values[name].items():
                series.append(summary["metrics"][metric]["value"])
                line.append(f"{metric}={series[-1]:.4f}")
            print(f"seed {seed} {name} reps={summary['attempted']} " + " ".join(line),
                  flush=True)

    for name in names:
        for metric, series in values[name].items():
            q1, median, q3 = statistics.quantiles(series, n=4)
            print(f"{name:18s} {metric:14s} median {median:10.4f} "
                  f"iqr/median {(q3 - q1) / median:.4f}  n={len(series)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
