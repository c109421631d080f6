#!/usr/bin/env python3
"""Builds the RetraSyn end-to-end benchmark from source and runs one workload.

    python3 perfbench/run.py --workload tdrive_hires --seed 1 --seconds 15 --trace 0

Run it from the root of a checkout. The first call configures and compiles
the library plus the benchmark driver into .bench_build/perfbench (a few
minutes); later calls only re-check the build. The driver's standard output
ends with one JSON object: {"correct", "attempted", "failed", "metrics"}.
Journal and checkpoint directories and span traces go under .bench_out/.
Exits non-zero without printing a result when the build or the run fails.
"""

import argparse
import os
import shutil
import subprocess
import sys

BUILD_DIR = os.path.join(".bench_build", "perfbench")
RUN_TIMEOUT_S = 175


def build():
    here = os.path.dirname(os.path.abspath(__file__))
    configure = ["cmake", "-S", here, "-B", BUILD_DIR,
                 "-DCMAKE_BUILD_TYPE=Release"]
    cache = os.path.join(BUILD_DIR, "CMakeCache.txt")
    if not os.path.exists(cache) and shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    jobs = str(max(1, os.cpu_count() or 1))
    for cmd in (configure, ["cmake", "--build", BUILD_DIR, "-j", jobs]):
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 2
    binary = os.path.join(BUILD_DIR, "perfbench")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    proc = subprocess.Popen(cmd)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
