#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py [--workloads field,fleet,chaos] \
        [--seeds 1,2,...] [--seconds S]

Run from the repository root. Runs the benchmark once per seed and
workload (timed, --trace 0) and prints, per metric, the median and the
distance between the first and third quartile as a share of the median,
next to the metric's bound in BENCHMARK.json. A spread at or above a third
of the bound is flagged.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def run(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seeds", default=",".join(str(s) for s in range(1, 11)))
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    ap.add_argument("--raw", action="store_true", help="print every value")
    args = ap.parse_args()
    seeds = [int(s) for s in args.seeds.split(",")]

    steady = True
    for wl in args.workloads.split(","):
        values = {m["name"]: [] for m in bench["end_to_end"]}
        for seed in seeds:
            res = run(wl, seed, args.seconds)
            if not res["correct"] or res["failed"]:
                print("%s seed %d: %d of %d units failed"
                      % (wl, seed, res["failed"], res["attempted"]))
                steady = False
            for name in values:
                values[name].append(res["metrics"][name]["value"])
        for m in bench["end_to_end"]:
            v = values[m["name"]]
            q1, med, q3 = statistics.quantiles(v, n=4)
            share = (q3 - q1) / med
            flag = "" if share < m["bound"] / 3 else "  <-- spread >= bound/3"
            if flag and m["name"] != "setup_s":
                steady = False
            print("%-6s %-18s median %-12.6g iqr/median %.4f bound %.2f%s"
                  % (wl, m["name"], med, share, m["bound"], flag))
            if args.raw:
                print("       " + " ".join("%.6g" % x for x in v))
        sys.stdout.flush()
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
