#!/usr/bin/env python3
"""Steadiness check of the repository benchmark.

    python3 perfbench/steady.py [--workloads a,b] [--runs 10] [--sets 2]
                                [--first-seed 1] [--seconds S]

Runs each workload of BENCHMARK.json `--runs` times per set, each run with
its own seed, and prints the median and quartiles of every end-to-end
metric. For each metric it reports the spread (third minus first quartile,
as a share of the median) against the metric's bound, and with two sets
whether the second set's median is worse than the first's by more than the
bound. It also checks that the share of failed operations is the same in
every run. Exits 1 when a spread exceeds its bound, a median moves by more
than its bound, or the failed share differs.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          check=False)
    if done.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {done.returncode}")
    return json.loads(done.stdout.strip().split("\n")[-1])


def summary(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3, (q3 - q1) / q2 if q2 else float("inf")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default="")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, choices=(1, 2), default=1)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=0,
                        help="run length (default: BENCHMARK.json run_seconds)")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    names = ([w for w in args.workloads.split(",") if w] or
             [w["name"] for w in bench["workloads"]])
    bounds = {m["name"]: (m["bound"], m["better"]) for m in bench["end_to_end"]}

    ok = True
    for workload in names:
        sets = []
        for s in range(args.sets):
            first = args.first_seed + s * args.runs
            runs = [run_once(workload, seed, seconds)
                    for seed in range(first, first + args.runs)]
            sets.append(runs)
            shares = {r["failed"] / r["attempted"] for r in runs}
            print(f"{workload} set {s + 1} (seeds {first}..{first + args.runs - 1}): "
                  f"failed shares {sorted(shares)}"
                  f"{'' if all(r['correct'] for r in runs) else ', OUTPUT CHECK FAILED'}")
            if len(shares) != 1 or not all(r["correct"] for r in runs):
                ok = False
        for metric, (bound, better) in bounds.items():
            medians = []
            for s, runs in enumerate(sets):
                q1, q2, q3, spread = summary([r["metrics"][metric]["value"] for r in runs])
                medians.append(q2)
                flag = ""
                if spread > bound:
                    flag, ok = "  OVER BOUND", False
                elif spread > bound / 3:
                    flag = "  over a third of the bound"
                print(f"  {metric:18s} set {s + 1}: median {q2:.6g}  quartiles "
                      f"{q1:.6g}..{q3:.6g}  spread {spread:.3f} (bound {bound}){flag}")
            if len(medians) == 2:
                worse = (medians[1] - medians[0]) / medians[0]
                if better == "higher":
                    worse = -worse
                moved = worse > bound
                ok = ok and not moved
                print(f"  {metric:18s} second median {'worse' if worse > 0 else 'better'} "
                      f"by {abs(worse):.3f}{'  MOVED BEYOND BOUND' if moved else ''}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
