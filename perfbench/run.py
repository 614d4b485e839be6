#!/usr/bin/env python3
"""Repository benchmark entry point.

    python3 perfbench/run.py --workload field|fleet|chaos --seed N \
        --seconds S --trace 0|1

Run from the repository root. Builds the benchmark binaries (Release, from
the sources in this checkout) into .bench_build/perfbench, then runs one
workload in one process. The last line of standard output is the JSON
result. With --trace 1 the span log of the run is written to
.bench_build/spans/<workload>-<seed>.jsonl.

Exits non-zero without a result when the build or the run fails.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_DIR = os.path.join(".bench_build", "perfbench")
SPANS_DIR = os.path.join(".bench_build", "spans")


def build():
    """Configures on first use, then brings both binaries up to date."""
    log_path = os.path.join(".bench_build", "perfbench-build.log")
    os.makedirs(".bench_build", exist_ok=True)
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR, "-G", "Ninja",
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs, "--target",
                  "perfbench", "perfbench_traced"])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode:
                sys.stderr.write("perfbench: build failed, see %s\n" % log_path)
                return False
    return True


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["field", "fleet", "chaos"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], required=True)
    ap.add_argument("--digests", default=os.path.join(HERE, "digests.txt"),
                    help="pinned per-unit digests (default: the committed set)")
    args = ap.parse_args()

    if not build():
        return 1
    binary = "perfbench_traced" if args.trace else "perfbench"
    cmd = [os.path.join(BUILD_DIR, binary), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--digests", args.digests]
    if args.trace:
        os.makedirs(SPANS_DIR, exist_ok=True)
        cmd += ["--spans-out", os.path.join(
            SPANS_DIR, "%s-%d.jsonl" % (args.workload, args.seed))]
    sys.stdout.flush()
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
