#!/usr/bin/env python3
"""Builds the benchmark program from this checkout's sources and runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload churn --seed 1 --seconds 30 --trace 0

Workloads: churn, paper_rigid, paper_flexible. --trace 1 makes the
traced run (per-layer metrics; spans go to .bench_build/traces/). --quick
shrinks every workload for smoke tests. The last line of standard output is
the result as one JSON object. Exit status: 0 when every output check passed,
1 when a check failed, 2 when the benchmark could not be built or run.
"""

from __future__ import annotations

import argparse
import os
import pathlib
import shutil
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "gridbw_perfbench"
# The program stops timing after --seconds; set-up, warm-up and checks take
# the rest. A run that overstays this is killed and fails.
OVERHEAD_LIMIT_S = 140


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build() -> None:
    if not (ROOT / "src" / "core" / "network.hpp").is_file():
        fail(f"gridbw sources not found under {ROOT / 'src'}")
    cmake = shutil.which("cmake")
    if cmake is None:
        fail("cmake not found")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append([cmake, "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release", *generator])
    steps.append([cmake, "--build", str(BUILD), "-j", jobs])
    for step in steps:
        # Build chatter goes to stderr: stdout's last line is the result.
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(step))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    build()
    command = [str(BINARY), "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.quick:
        command.append("--quick")
    if args.trace:
        trace_file = ROOT / ".bench_build" / "traces" / f"{args.workload}-seed{args.seed}.json"
        command += ["--trace-out", str(trace_file)]
    sys.stdout.flush()
    try:
        result = subprocess.run(command, timeout=args.seconds + OVERHEAD_LIMIT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded its time limit")
    sys.exit(result.returncode)


if __name__ == "__main__":
    main()
