#!/usr/bin/env python3
"""Builds the EarthQube end-to-end benchmark from this source tree and runs
one workload, or every workload with --workload all.

    python3 e2ebench/run.py --workload explore_hot --seed 1 --seconds 30 --trace 0

Run from the repository root.  The build lives in .bench_build/e2ebench and
reports and span files in .bench_build/e2ebench-out.  The last line of
standard output is the JSON result; build logs go to standard error.  The
exit code is non-zero when the build, the self-tests, the correctness gate
or the run fails.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BENCHMARK = os.path.join(ROOT, "BENCHMARK.json")
BUILD = os.path.join(ROOT, ".bench_build", "e2ebench")
OUT = os.path.join(ROOT, ".bench_build", "e2ebench-out")


def run_quiet(cmd):
    """Runs a build step with its output on stderr; True on success."""
    return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode == 0


def build():
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or not os.path.isdir(
        os.path.join(ROOT, "src")
    ):
        print("e2ebench: no AgoraEO source tree next to the benchmark", file=sys.stderr)
        return None
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        if not run_quiet(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]):
            return None
    jobs = str(os.cpu_count() or 1)
    if not run_quiet(["cmake", "--build", BUILD, "--target", "e2ebench", "-j", jobs]):
        return None
    return os.path.join(BUILD, "e2ebench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    binary = build()
    if binary is None:
        return 1
    workloads = [args.workload]
    if args.workload == "all":
        with open(BENCHMARK) as f:
            workloads = [w["name"] for w in json.load(f)["workloads"]]
    for workload in workloads:
        if not run_quiet([binary, "--selftest", "--workload", workload]):
            print("e2ebench: self-tests failed", file=sys.stderr)
            return 1
        code = subprocess.run(
            [
                binary,
                "--workload", workload,
                "--seed", str(args.seed),
                "--seconds", str(args.seconds),
                "--trace", str(args.trace),
                "--out", OUT,
            ]
        ).returncode
        if code != 0:
            return code
    return 0


if __name__ == "__main__":
    sys.exit(main())
