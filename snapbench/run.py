#!/usr/bin/env python3
"""Builds and runs snapbench, the repository's outside-in benchmark.

    python3 snapbench/run.py --workload pingpong_udp --seed 1 --seconds 10 --trace 0
    python3 snapbench/run.py --self-test

Run from the repository root. The benchmark is compiled from the sources in
this checkout into $CARGO_TARGET_DIR/snapbench (default .bench_build/snapbench).
Build logs go to stderr; stdout carries the benchmark's table and, as its last
line, the JSON result. The result's metric names and units are checked
against BENCHMARK.json before it is printed.
"""

import argparse
import fcntl
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(os.path.abspath(os.path.join(ROOT, base)), "snapbench")


def build(bdir):
    """Configures and builds the benchmark; returns False on failure."""
    os.makedirs(bdir, exist_ok=True)
    with open(os.path.join(bdir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        configure = ["cmake", "-S", HERE, "-B", bdir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja") and not os.path.exists(
                os.path.join(bdir, "Makefile")):
            configure += ["-G", "Ninja"]
        for cmd in (configure,
                    ["cmake", "--build", bdir, "--parallel", "4", "--target",
                     "snapbench", "snapbench_test"]):
            if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              cwd=ROOT).returncode != 0:
                print("snapbench: build failed: " + " ".join(cmd),
                      file=sys.stderr)
                return False
    return True


def check_result(line, traced):
    """Checks the result line against BENCHMARK.json; returns an error or None."""
    try:
        result = json.loads(line)
    except ValueError:
        return "last line is not JSON"
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return "result keys are %s" % sorted(result)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = {m["name"]: m["unit"]
              for m in spec["per_layer" if traced else "end_to_end"]}
    got = {k: v.get("unit") for k, v in result["metrics"].items()}
    if got != wanted:
        return "metrics differ from BENCHMARK.json: %s" % sorted(
            set(got.items()) ^ set(wanted.items()))
    if result["attempted"] < 1:
        return "no op attempted"
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args()
    if not args.self_test and not args.workload:
        parser.error("--workload is required")

    bdir = build_dir()
    if not build(bdir):
        return 1
    if args.self_test:
        return subprocess.run([os.path.join(bdir, "snapbench_test")],
                              cwd=ROOT).returncode

    trace_dir = os.path.join(bdir, "traces")
    os.makedirs(trace_dir, exist_ok=True)
    cmd = [os.path.join(bdir, "snapbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--trace-dir", trace_dir]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, cwd=ROOT,
                              timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        print("snapbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    lines = proc.stdout.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    if proc.returncode != 0:
        print(lines[-1], file=sys.stderr)
        print("snapbench: exited with %d" % proc.returncode, file=sys.stderr)
        return 1
    error = check_result(lines[-1], args.trace == 1)
    if error:
        print(lines[-1], file=sys.stderr)
        print("snapbench: " + error, file=sys.stderr)
        return 1
    print(lines[-1])
    return 0


if __name__ == "__main__":
    sys.exit(main())
