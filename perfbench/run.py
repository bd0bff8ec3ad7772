#!/usr/bin/env python3
"""Builds the perfbench binary from source and runs one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload single-large --seed 1 --seconds 20 --trace 0

The binary and the program's libraries are built with CMake (Release) into
.bench_build/perfbench on first use; later runs rebuild only what changed.
Its output passes through: its last stdout line is the JSON result.
Traced runs write their Chrome trace under .bench_out/. Build output goes to
stderr. Exits non-zero, printing no result, when the build fails.
"""

import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
OUT = os.path.join(ROOT, ".bench_out")


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", SOURCE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return False
    command = ["cmake", "--build", BUILD, "--target", "perfbench", "-j", jobs]
    return subprocess.run(command, stdout=sys.stderr).returncode == 0


def main():
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1
    binary = os.path.join(BUILD, "perfbench")
    return subprocess.run([binary, "--out-dir", OUT] + sys.argv[1:],
                          cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
