#!/usr/bin/env python3
"""Builds the journey benchmark from source and runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload ingest --seed 1 --seconds 12 --trace 0

The first call configures and builds the product library and the
`journeys` program into .bench_build/ (Release); later calls only
rebuild what changed.  Build output goes to stderr, so the last line of
stdout is the program's result JSON.  Extra flags (`--size smoke`) pass
through to `journeys`.
"""
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD_DIR, "journeys")
RUN_TIMEOUT_S = 175


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    for needed in ("CMakeLists.txt", "src"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail("no product source at %s (missing %s); run from a full "
                 "checkout" % (ROOT, needed))
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "journeys",
                  "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build step failed: " + " ".join(step))


def main():
    build()
    cmd = [BINARY] + sys.argv[1:] + [
        "--work-dir", os.path.join(BUILD_DIR, "work")]
    try:
        done = subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
