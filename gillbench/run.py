#!/usr/bin/env python3
"""Builds the gillbench binary from source and runs one workload.

Usage (from the repository root):
  python3 gillbench/run.py --workload ingest|refresh|query --seed N \
      --seconds S --trace 0|1

The build tree is $CARGO_TARGET_DIR (default .bench_build) under the
repository root. Build output goes to stderr; the binary's last line of
standard output is the JSON result. Archives and traces are written under
the build tree and the per-run archive directory is removed afterwards.
"""
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "gillbench")
BUILD_ROOT = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
BUILD = os.path.join(BUILD_ROOT, "gillbench")
BINARY = os.path.join(BUILD, "gillbench")
RUN_TIMEOUT_S = 170


def build():
    jobs = str(max(1, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", SOURCE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs,
                  "--target", "gillbench"])
    for step in steps:
        done = subprocess.run(step, cwd=ROOT, stdout=sys.stderr,
                              stderr=sys.stderr)
        if done.returncode != 0:
            print("gillbench: build step failed: " + " ".join(step),
                  file=sys.stderr)
            return False
    return os.path.exists(BINARY)


def main():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("gillbench: no collector sources next to the benchmark",
              file=sys.stderr)
        return 2
    try:
        if not build():
            return 2
    except OSError as error:
        print("gillbench: cannot build: %s" % error, file=sys.stderr)
        return 2
    workdir = os.path.join(BUILD_ROOT, "run-%d" % os.getpid())
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    try:
        done = subprocess.run(
            [BINARY, "--workdir", workdir,
             "--trace-dir", os.path.join(BUILD_ROOT, "traces")] + sys.argv[1:],
            cwd=ROOT, timeout=RUN_TIMEOUT_S)
        return done.returncode
    except subprocess.TimeoutExpired:
        print("gillbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
