#!/usr/bin/env python3
"""Build and run the dpoaf end-to-end benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload finetune_paper --seed 1 --seconds 15 --trace 0

Configures and builds perfbench/CMakeLists.txt (the dpoaf libraries from
src/ plus the benchmark program) into .bench_build/ on first use, then runs
the program with the given arguments. Its last stdout line is the JSON
result; build output goes to stderr. Exits non-zero, without printing
a result, if the sources are missing, the build fails, or the run fails.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "dpoaf_perfbench")
RUN_TIMEOUT_S = 175


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("dpoaf sources (src/) not found next to perfbench/")
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "dpoaf_perfbench",
                  "-j", "4"])
    for cmd in steps:
        # Build chatter goes to stderr so stdout ends with the result line.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build step failed: " + " ".join(cmd))


def main():
    build()
    try:
        proc = subprocess.run([BINARY] + sys.argv[1:], stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout)
        fail("benchmark exited with code %d" % proc.returncode)
    try:
        json.loads(lines[-1])
    except ValueError:
        fail("last output line is not a JSON result")
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
