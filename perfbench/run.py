#!/usr/bin/env python3
"""Builds the construction benchmark from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout. The first call configures and
builds perfbench/ (and the library sources of src/ it compiles) into
.bench_build/perfbench with CMake; later calls rebuild incrementally.
Every argument is passed to the benchmark binary, whose last line of
standard output is the JSON result. Exits non-zero without a result when
the sources or the toolchain are missing or the build fails.
"""
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
RUN_TIMEOUT_S = 175
BUILD_TIMEOUT_S = 850


def build():
    """Configures once, then builds incrementally; logs go to build.log."""
    if not os.path.isfile(os.path.join(ROOT, "src", "overlay", "construct.hpp")):
        sys.exit("perfbench: library sources (src/) not found under " + ROOT)
    os.makedirs(BUILD, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    with open(os.path.join(BUILD, "build.log"), "w") as log:
        for cmd in steps:
            try:
                done = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                      timeout=BUILD_TIMEOUT_S)
            except (OSError, subprocess.TimeoutExpired) as e:
                sys.exit("perfbench: build step failed: %s" % e)
            if done.returncode != 0:
                log.flush()
                with open(log.name) as f:
                    sys.stderr.write(f.read()[-4000:])
                sys.exit("perfbench: build failed (%s)" % " ".join(cmd))


def main():
    build()
    try:
        done = subprocess.run([BINARY] + sys.argv[1:], cwd=ROOT,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
