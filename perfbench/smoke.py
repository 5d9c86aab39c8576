#!/usr/bin/env python3
"""Smoke test of the benchmark itself, on tiny graphs (2^10 vertices).

    python3 perfbench/smoke.py

Runs every workload untraced and traced for one second, prints every metric
name with its unit, and fails (exit 1) unless each run is correct and its
metric names and units match BENCHMARK.json exactly.
"""

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402


def main():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    ok = True
    for trace in (0, 1):
        want = run.expected_metrics(trace)
        for workload in run.WORKLOADS:
            out, record = run.run(workload, seed=1, seconds=1, trace=trace,
                                  scale="tiny", quiet=True)
            got = {k: v["unit"] for k, v in out["metrics"].items()}
            print("== %s trace=%d: correct=%s attempted=%d failed=%d" %
                  (workload, trace, out["correct"], out["attempted"],
                   out["failed"]))
            for name, unit in got.items():
                print("   %-40s %s" % (name, unit))
            if not out["correct"]:
                ok = False
                print("FAIL: %s" % record.get("failures"))
            if got != want:
                ok = False
                print("FAIL: metrics differ from BENCHMARK.json: %s" %
                      sorted(set(got.items()) ^ set(want.items())))
    print("smoke: " + ("ok" if ok else "FAILED"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
