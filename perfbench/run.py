#!/usr/bin/env python3
"""Build and run the DBToaster ingest-path benchmark.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload orderbook-serve --seed 1 \
        --seconds 10 --trace 0

The first run configures and builds a Release copy of the core library,
the dbtc compiler and the generated workload programs into .bench_build/
(build output goes to stderr); later runs only check the build is current.
Each run first executes the oracle self-test, then one replay of the chosen
workload. The replay prints its report and, as the last line of stdout, one
JSON object with the metrics. The exit status is non-zero on any build
failure, failed operation or oracle mismatch.
"""
import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
OUT = os.path.join(BUILD, "out")
EXE = os.path.join(BUILD, "ingest_bench")
# Generous per-step limits; a healthy run finishes far inside them.
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def build():
    """Configure once, then let the build tool bring everything up to date."""
    generated = any(os.path.exists(os.path.join(BUILD, f))
                    for f in ("build.ninja", "Makefile"))
    if not generated:
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr,
                       timeout=BUILD_TIMEOUT_S)
    subprocess.run(["cmake", "--build", BUILD, "-j", "4"], check=True,
                   stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    help="orderbook-serve | warehouse-q41 | orderbook-interp")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10,
                    help="scales the fixed amount of work (10 = nominal)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    try:
        build()
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            OSError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1

    try:
        selftest = subprocess.run([EXE, "--selftest", "--out-dir", OUT],
                                  stdout=sys.stderr, timeout=RUN_TIMEOUT_S)
        if selftest.returncode != 0:
            return selftest.returncode
        run = subprocess.run(
            [EXE, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--out-dir", OUT],
            timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
