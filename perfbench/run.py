#!/usr/bin/env python3
"""Build and run the simulator benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload core --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --regen

Run from the repository root. The first call configures and builds
perfbench/ (the simulator library from src/ plus the perfbench binary) under
$CARGO_TARGET_DIR (default .bench_build); later calls rebuild only what
changed. Build output goes to stderr, so the last stdout line is the
binary's JSON result. The exit code is the binary's: non-zero when any
job is incorrect, or when the build fails.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REFERENCE = os.path.join(HERE, "reference.txt")
RUN_TIMEOUT_S = 170


def build():
    """Configure (once) and build the binary; return its path."""
    if not os.path.isdir(os.path.join(ROOT, "src")):
        sys.exit("perfbench: no src/ beside perfbench/; run from a full "
                 "checkout of the repository")
    out = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                            ".bench_build"), "perfbench")
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", out,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", out, "--target", "perfbench",
                    "-j", jobs], stdout=sys.stderr, check=True)
    return os.path.join(out, "perfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=["core", "engine", "sampled"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=35)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--regen", action="store_true",
                    help="re-simulate every grid point and rewrite "
                         "perfbench/reference.txt")
    args = ap.parse_args()
    if not args.regen and not args.workload:
        ap.error("--workload is required")

    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as e:
        sys.exit("perfbench: build failed: %s" % e)

    if args.regen:
        cmd = [binary, "--regen", REFERENCE]
    else:
        cmd = [binary, "--workload", args.workload, "--seed",
               str(args.seed), "--seconds", str(args.seconds), "--trace",
               str(args.trace), "--reference", REFERENCE]
    try:
        done = subprocess.run(cmd, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: benchmark exceeded %d s" % RUN_TIMEOUT_S)
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
