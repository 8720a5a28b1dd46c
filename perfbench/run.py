#!/usr/bin/env python3
"""Builds and runs one workload of the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1> [--depth <boxes>]

Run from the root of a checkout. The harness (perfbench/CMakeLists.txt) is
built from the checkout's sources into $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench), then runs the workload in its own
process, on an executor pool of POOL_THREADS workers. Its report is
printed as is; the last line of standard output is
the JSON result {"correct", "attempted", "failed", "metrics"}. Exits
non-zero, without a result, when the sources are missing, the build fails
or the workload fails.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 880
RUN_TIMEOUT_S = 170
# The executor pool size every run uses (SNETSAC_THREADS). Fixed, so that
# figures compare across hosts, and small: on the reference 4-vCPU host,
# four concurrent spin loops each ran at about half the speed of one, and
# with the default pool of four workers the same run of fig2_boards gave
# 440 or 1100 boards/s depending on what else the host was running.
POOL_THREADS = "2"


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(out):
    """Configures once, then builds incrementally; output goes to stderr."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs, "--target", "perfbench"])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S, check=False)
        except (OSError, subprocess.TimeoutExpired) as e:
            fail(f"build step {cmd[:2]} failed: {e}")
        if done.returncode != 0:
            fail(f"build step {' '.join(cmd[:2])} exited {done.returncode}")


def check_names(result, trace):
    """The harness's metric names must be BENCHMARK.json's list for the run."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    wanted = {m["name"] for m in bench["per_layer" if trace else "end_to_end"]}
    if set(result["metrics"]) != wanted:
        fail(f"metric names differ from BENCHMARK.json: "
             f"{sorted(set(result['metrics']) ^ wanted)}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--depth", type=int, default=16,
                        help="hop_chain boxes (the benchmark fixes 16)")
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "snet", "include", "snet",
                                       "network.hpp")):
        fail(f"no snetsac sources under {ROOT}/src: nothing to benchmark")
    out = build_dir()
    build(out)
    scratch = os.path.join(out, "out")
    os.makedirs(scratch, exist_ok=True)
    cmd = [os.path.join(out, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--depth", str(args.depth),
           "--scratch", scratch]
    try:
        env = dict(os.environ, SNETSAC_THREADS=POOL_THREADS)
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = done.stdout.rstrip("\n").split("\n")
    if done.returncode != 0:
        sys.stdout.write(done.stdout)
        fail(f"{args.workload} exited {done.returncode}")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        sys.stdout.write(done.stdout)
        fail("the harness printed no JSON result")
    check_names(result, args.trace)
    print("\n".join(lines[:-1]))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
