#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

Runs the command of BENCHMARK.json once per seed on each named workload
and prints, per metric, the median of the runs and the distance between
the first and third quartile as a share of that median (the quantity the
bounds in BENCHMARK.json limit), next to the metric's bound. On the
workloads timed at the reference speed it also prints the same figures
for the wall values (`wall.*`, no bound) and the slowdown.

    python3 perfbench/spread.py [--runs 10] [--first-seed 1] [WORKLOAD ...]

Run it from the repository root. With no workload named it covers all.
"""

import argparse
import json
import re
import statistics
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("workloads", nargs="*")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    names = args.workloads or [w["name"] for w in bench["workloads"]]
    worst = 0.0
    for workload in names:
        values = {}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = bench["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(bench["run_seconds"]), "--trace", "0",
            ]
            run = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
            if run.returncode != 0:
                sys.exit(f"{workload} seed {seed}: exit {run.returncode}\n{run.stderr[-2000:]}")
            result = json.loads(run.stdout.strip().splitlines()[-1])
            if not result["correct"] or result["failed"]:
                sys.exit(f"{workload} seed {seed}: incorrect run\n{run.stdout[-4000:]}")
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            ref = re.search(r"^reference speed: slowdown ([^ ]+) .*wall setup_s ([^,]+), "
                            r"work_per_s ([^,]+), p50_ms (\S+)", run.stdout, re.M)
            if ref:
                for name, v in zip(["ref.slowdown", "wall.setup_s", "wall.work_per_s",
                                    "wall.p50_ms"], ref.groups()):
                    values.setdefault(name, []).append(float(v))
            print(f"{workload} seed {seed}: " + " ".join(
                f"{k}={v[-1]:.6g}" for k, v in values.items()), flush=True)
        for name, vs in values.items():
            q1, med, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / med
            bound = bounds.get(name)
            worst = max(worst, spread / bound if bound else 0.0)
            print(f"  {workload:<14} {name:<16} median {med:<12.6g} spread {spread:6.3f} "
                  f"bound {bound}", flush=True)
    print(f"largest spread/bound: {worst:.3f}")


if __name__ == "__main__":
    main()
