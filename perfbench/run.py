#!/usr/bin/env python3
"""Build and run the repository benchmark (see perfbench/README.md).

Run from the root of a checkout:

    env NODETR_GEMM_CONFIG=avx2_6x16:384:256:1024 python3 perfbench/run.py \\
        --workload classify --seed 1 --seconds 30 --trace 0

Steps: configure and build perfbench/ (which pulls in the repository's own
top-level CMakeLists) under .bench_build/, run the self-test of the
benchmark's output checks, write the seeded checkpoint if it is not there
yet, then run one measured process. Build and self-test output goes to
stderr, so the last line on stdout is the run's JSON result. Any failure
exits non-zero without printing a result.
"""
import argparse
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
DATA = os.path.join(ROOT, ".bench_build", "perfbench-data")
WORKLOADS = ("classify", "hybrid_fixed", "serve_mhsa")
# The longest a measured process may take beyond its measuring time:
# set-up, references, the traced run's layer sweep and the output checks.
OVERHEAD_LIMIT_S = 120


def sh(cmd, timeout):
    """Run `cmd` with its output on stderr; raise on failure."""
    subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr, timeout=timeout)


def build():
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        sh(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD, "-G", "Ninja",
            "-DCMAKE_BUILD_TYPE=Release"], timeout=300)
    sh(["cmake", "--build", BUILD, "-j", "4", "--target", "perfbench", "perfbench_selftest"],
       timeout=1200)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")

    try:
        build()
        sh([os.path.join(BUILD, "perfbench_selftest")], timeout=60)
        os.makedirs(DATA, exist_ok=True)
        binary = os.path.join(BUILD, "perfbench")
        if not os.path.exists(os.path.join(DATA, f"model_seed{args.seed}.ndck")):
            sh([binary, "prepare", "--seed", str(args.seed), "--dir", DATA], timeout=120)
        run = subprocess.run(
            [binary, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace), "--dir", DATA],
            timeout=args.seconds + OVERHEAD_LIMIT_S)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired, OSError) as e:
        print(f"perfbench/run.py: {e}", file=sys.stderr)
        return 1
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
