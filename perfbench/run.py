#!/usr/bin/env python3
"""Builds the end-to-end benchmark from source and runs one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <task1_points|task2_lines|served_mix>
                             --seed <n> --seconds <s> --trace <0|1>

The first run configures and compiles the library and the harness into
.bench_build/ (later runs only check that the build is current). The
harness runs the workload in its own process and prints, as the last
line of standard output, one JSON object with the keys correct,
attempted, failed and metrics. A traced run (--trace 1) also writes
.bench_out/<workload>-trace.json (Chrome trace events) and
.bench_out/<workload>-layers.txt (the per-layer table). Exits non-zero,
without printing a result, when the sources are missing, the build fails
or the harness does not finish; exits 1 after printing the result when
an output failed a correctness check.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = ".bench_build"
WORKLOADS = ("task1_points", "task2_lines", "served_mix")
# One run must end within 180 s; the harness gets the rest after the
# build check.
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(message):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail("no prdnn sources beside perfbench/ (CMakeLists.txt, src/)")
    build_dir = os.path.join(ROOT, BUILD_DIR)
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target",
                  "prdnn_perfbench", "-j", "4"])
    for step in steps:
        # Build output goes to stderr: stdout ends with the result.
        if subprocess.run(step, cwd=ROOT, stdout=sys.stderr,
                          stderr=sys.stderr).returncode != 0:
            fail("build step failed: " + " ".join(step))
    return os.path.join(build_dir, "prdnn_perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    binary = build()
    # The harness sizes its own thread pool; an inherited
    # PRDNN_NUM_THREADS must not leak into the library's default.
    env = {k: v for k, v in os.environ.items() if k != "PRDNN_NUM_THREADS"}
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(command, cwd=ROOT, env=env,
                              stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("harness did not finish within %d s" % RUN_TIMEOUT_S)

    lines = proc.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        sys.stderr.write(proc.stdout)
        fail("harness exited %d without a result" % proc.returncode)
    sys.stdout.write(proc.stdout)
    sys.exit(0 if proc.returncode == 0 and result["correct"] else 1)


if __name__ == "__main__":
    main()
