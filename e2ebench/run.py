#!/usr/bin/env python3
"""Builds the e2ebench binary from the checkout's sources, then runs it.

Usage (from the root of a checkout):

    python3 e2ebench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The build goes to .bench_build/e2ebench under the checkout and is reused
by later runs. Build output goes to stderr, so the last line on stdout is
the benchmark's JSON result. Exits non-zero, printing no result, if the
build fails or the arguments are invalid.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "e2ebench")
BINARY = os.path.join(BUILD, "e2ebench")


def build():
    if not os.path.exists(os.path.join(BUILD, "build.ninja")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", BUILD, "-G", "Ninja",
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            stdout=sys.stderr, stderr=sys.stderr, check=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs],
                   stdout=sys.stderr, stderr=sys.stderr, check=True)


def main():
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"e2ebench: build failed: {e}", file=sys.stderr)
        return 1
    sys.stdout.flush()
    return subprocess.run([BINARY] + sys.argv[1:], cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
