#!/usr/bin/env python3
"""Self-test of the benchmark.

For every workload:

* two traced runs of one seed must print identical counts (the library's
  counters, the allocation counts and the monitor's ladder counts) and an
  identical verdict digest;
* an untraced run of a second seed must check out with no failed op;
* each run must print exactly the metrics BENCHMARK.json names.

Run from the repository root:

    python3 perfbench/selftest.py [--seconds N]

It uses the command in BENCHMARK.json, so it builds the benchmark the same
way a measured run does. Exits 1 if any check fails.
"""

import argparse
import json
import subprocess
import sys

# Per-layer metrics that are derived from times, so they may differ.
TIMED_SHARES = {"telemetry.trace_overhead_share"}


def run(command, workload, seed, seconds, trace):
    args = command + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
    ]
    out = subprocess.run(args, capture_output=True, text=True, timeout=600)
    if out.returncode != 0:
        sys.exit(f"{workload}: exit {out.returncode}\n{out.stderr}")
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    digest = next(l for l in lines if l.startswith("# verdict_digest="))
    return result, digest


def counts(result):
    return {
        name: m["value"]
        for name, m in result["metrics"].items()
        if m["unit"] in ("count", "share") and name not in TIMED_SHARES
    }


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--seconds", type=float, default=2)
    args = parser.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    per_layer = [m["name"] for m in bench["per_layer"]]
    end_to_end = [m["name"] for m in bench["end_to_end"]]
    ok = True
    for w in bench["workloads"]:
        name = w["name"]
        a, da = run(bench["command"], name, 1, args.seconds, 1)
        b, db = run(bench["command"], name, 1, args.seconds, 1)
        if sorted(a["metrics"]) != sorted(per_layer):
            ok = False
            print(f"FAIL {name}: traced metrics differ from BENCHMARK.json's per_layer")
        ca, cb = counts(a), counts(b)
        diff = sorted(k for k in ca if ca[k] != cb.get(k))
        if diff or da != db:
            ok = False
            print(f"FAIL {name}: traced runs differ in {diff or 'the verdict digest'}")
        else:
            print(f"ok   {name}: {len(ca)} counts and the verdict digest repeat exactly")
        c, _ = run(bench["command"], name, 2, args.seconds, 0)
        if sorted(c["metrics"]) != sorted(end_to_end):
            ok = False
            print(f"FAIL {name}: untraced metrics differ from BENCHMARK.json's end_to_end")
        if c["failed"] != 0 or not c["correct"]:
            ok = False
            print(f"FAIL {name}: seed 2 failed {c['failed']} of {c['attempted']} ops")
        else:
            print(f"ok   {name}: seed 2 ran {c['attempted']} ops, none failed")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
