#!/usr/bin/env python3
"""Build and run the RecPerf benchmark for one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The benchmark program (perfbench/recperf_bench.cc) is compiled with the
repository's libraries from ../src into .bench_build/perfbench, then run
once in a fresh process. Its report goes to standard output; the last
line is one JSON object with the keys correct, attempted, failed and
metrics. Build output goes to standard error. Exits non-zero, without a
result line, when the build or the run fails or the result does not
carry exactly the metrics BENCHMARK.json names.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "recperf_bench")
WORKLOADS = ("serve_rmc2", "shard_rmc1_chaos", "eval_rmc3", "eval_rmc2_dram")


def run_checked(cmd):
    """Run a build step with its output on stderr; True on success."""
    proc = subprocess.Popen(cmd, stdout=sys.stderr, stderr=sys.stderr)
    try:
        return proc.wait() == 0
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        if not run_checked(["cmake", "-S", HERE, "-B", BUILD,
                            "-DCMAKE_BUILD_TYPE=Release"]):
            return False
    return run_checked(["cmake", "--build", BUILD, "-j", jobs,
                        "--target", "recperf_bench"])


def expected_metrics(trace):
    """Metric names BENCHMARK.json promises for this pass, if present."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1

    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate()
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        sys.stdout.write(out)
        print(f"perfbench: benchmark exited with {proc.returncode}",
              file=sys.stderr)
        return 1

    lines = out.rstrip("\n").split("\n")
    result = json.loads(lines[-1])
    want = expected_metrics(args.trace)
    if set(result) != {"correct", "attempted", "failed", "metrics"} or (
            want is not None and set(result["metrics"]) != want):
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        print("perfbench: result does not match BENCHMARK.json",
              file=sys.stderr)
        return 1
    sys.stdout.write(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
