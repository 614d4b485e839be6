#!/usr/bin/env python3
"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py [--seed N]

Run from the repository root; takes about three minutes. Checks that
  * every deterministic per-layer count repeats exactly across two traced
    runs of each workload, on a seed that was not used while the benchmark
    was written (default 8675309);
  * every metric prints with the name and unit BENCHMARK.json declares,
    in both the timed and the traced run, and sim.share.* sums to 1 on
    field;
  * a wrong pinned digest is reported as a failed unit: the run still
    exits 0 and prints its result, with correct = false.
Exits 1 on the first failed check.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))

# Per-layer metrics that are pure functions of the inputs. Everything else
# in the traced run is a wall-clock measurement.
DETERMINISTIC = [
    "sim.events", "sim.heap_entries_max", "sim.stale_entry_share",
    "alloc.per_event", "alloc.bytes_per_event", "alloc.per_delivered_packet",
    "link.delivered_packets", "link.drop_share", "tcp.retransmit_share",
    "tcp.timeouts", "mptcp.reinjected_packets", "mptcp.mask_changes",
    "http.requests", "http.retries", "http.timeouts", "fault.injected",
    "dash.chunks", "dash.stalls", "sched.activations",
    "sched.deadline_misses", "telemetry.records",
    "telemetry.records_per_event",
]


def run(workload, seed, trace, seconds=1, digests=None):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    if digests:
        cmd += ["--digests", digests]
    # Every unit fails on purpose under wrong digests; keep that quiet.
    out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                         stderr=subprocess.DEVNULL if digests else None)
    if out.returncode != 0:
        fail("%s trace=%d exited %d" % (workload, trace, out.returncode))
    lines = out.stdout.strip().splitlines()
    for line in lines[:-1]:
        if line.startswith("metric ") and len(line.split()) != 4:
            fail("%s: metric line without name, value and unit: %r"
                 % (workload, line))
    return json.loads(lines[-1])


def fail(msg):
    print("FAIL: " + msg)
    sys.exit(1)


def check_metrics(workload, res, declared):
    got = res["metrics"]
    want = {m["name"]: m["unit"] for m in declared}
    if set(got) != set(want):
        fail("%s: metric names %s differ from BENCHMARK.json"
             % (workload, sorted(set(got) ^ set(want))))
    for name, m in got.items():
        if m.get("unit") != want[name] or not isinstance(m.get("value"),
                                                         (int, float)):
            fail("%s: %s has unit %r, value %r" % (workload, name,
                                                   m.get("unit"),
                                                   m.get("value")))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=8675309)
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)

    for wl in [w["name"] for w in bench["workloads"]]:
        timed = run(wl, args.seed, 0)
        check_metrics(wl, timed, bench["end_to_end"])
        a = run(wl, args.seed, 1)
        b = run(wl, args.seed, 1)
        for res in (timed, a, b):
            if not res["correct"] or res["failed"]:
                fail("%s: %d of %d units failed" % (wl, res["failed"],
                                                    res["attempted"]))
        check_metrics(wl, a, bench["per_layer"])
        for name in DETERMINISTIC:
            va, vb = a["metrics"][name]["value"], b["metrics"][name]["value"]
            if va != vb:
                fail("%s: %s differs across runs (%r vs %r)"
                     % (wl, name, va, vb))
        if wl == "field":
            share = sum(v["value"] for k, v in a["metrics"].items()
                        if k.startswith("sim.share."))
            if abs(share - 1.0) > 0.01:
                fail("field: sim.share.* sums to %r" % share)
        print("ok   %s: names and units, %d deterministic counts repeat"
              % (wl, len(DETERMINISTIC)))

    # A wrong pin must cost a failed unit, never the run.
    bad = os.path.join(".bench_build", "selftest-wrong-digests.txt")
    with open(os.path.join(HERE, "digests.txt")) as src, open(bad, "w") as dst:
        for line in src:
            wl, index, digest = line.split()
            if wl == "chaos":
                digest = "%016x" % (int(digest, 16) ^ 1)
            dst.write("%s %s %s\n" % (wl, index, digest))
    res = run("chaos", args.seed, 0, digests=bad)
    if res["correct"] or res["failed"] != res["attempted"]:
        fail("wrong digests: %d of %d units failed, correct=%r"
             % (res["failed"], res["attempted"], res["correct"]))
    print("ok   wrong pinned digest: %d of %d units reported failed"
          % (res["failed"], res["attempted"]))
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
