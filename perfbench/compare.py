#!/usr/bin/env python3
"""Compares two sets of benchmark runs, per workload and end-to-end metric.

    python3 perfbench/compare.py BASE NEW [--bench BENCHMARK.json]

BASE and NEW are run-record files or directories of them (run.py writes one
per run under .bench_build/perfbench/runs/). Only untraced runs count. Runs
pair by seed where both sides have it, else in the order they were made.

For each metric the report gives each side's median and quartiles, the
pairwise wins of NEW, and a verdict:

  improved    NEW wins at least 9 of 10 pairs (ties count for neither) and
              the medians differ by more than BASE's quartile distance;
  regressed   NEW's median is worse than BASE's by more than the metric's
              bound in BENCHMARK.json;
  unresolved  the run-to-run spread (quartile distance / median) of either
              side exceeds the bound, unless every NEW run beats every BASE
              run; or the metric would count as regressed, but in most pairs
              the two runs' capacity probes differ by more than the largest
              end-to-end bound, so the host, not the code, may have changed;
  unchanged   otherwise.

Make the runs in alternating pairs (base, new, base, new, ...) on the same
seeds, so that slow drift of the host's capacity cancels out. Exits 1 when
any metric regressed.
"""

import argparse
import glob
import json
import os
import statistics
import sys


def load_runs(path):
    files = sorted(glob.glob(os.path.join(path, "*.json"))) \
        if os.path.isdir(path) else [path]
    runs = []
    for fn in files:
        if fn.endswith(".trace.json"):
            continue
        with open(fn) as f:
            rec = json.load(f)
        if rec.get("trace") == 0:
            runs.append(rec)
    return runs


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], statistics.median(values), q[2]


def probe(rec):
    """Capacity probe at nproc threads (ms; fixed work)."""
    probes = rec["host"]["probe_ms"]
    return max(probes.values())


def pair_up(base, new):
    by_seed = {r["seed"]: r for r in base}
    if all(r["seed"] in by_seed for r in new):
        return [(by_seed[r["seed"]], r) for r in new]
    return list(zip(base, new))


def verdict(metric, base, new, probe_tolerance):
    name, bound = metric["name"], metric["bound"]
    sign = 1 if metric["better"] == "lower" else -1  # > 0 means worse
    bv = [r["metrics"][name]["value"] for r in base]
    nv = [r["metrics"][name]["value"] for r in new]
    bq, nq = quartiles(bv), quartiles(nv)
    pairs = pair_up(base, new)
    wins = ties = probe_mismatch = 0
    for b, n in pairs:
        if abs(probe(n) / probe(b) - 1) > probe_tolerance:
            probe_mismatch += 1
            continue
        d = sign * (n["metrics"][name]["value"] - b["metrics"][name]["value"])
        wins += d < 0
        ties += d == 0
    resolved = len(pairs) - probe_mismatch
    delta = sign * (nq[1] - bq[1]) / bq[1] if bq[1] else 0.0
    spread = max((q[2] - q[0]) / q[1] if q[1] else 0.0 for q in (bq, nq))
    every_better = all(sign * (n - b) < 0 for n in nv for b in bv)
    decided = resolved - ties
    if decided > 0 and wins >= 0.9 * decided and delta < 0 and \
            abs(nq[1] - bq[1]) > bq[2] - bq[0]:
        v = "improved"
    elif spread > bound and not every_better:
        v = "unresolved"
    elif delta > bound:
        v = "unresolved" if probe_mismatch * 2 > len(pairs) else "regressed"
    else:
        v = "unchanged"
    return {"metric": name, "unit": metric["unit"], "base": bq, "new": nq,
            "delta": delta, "wins": wins, "pairs": len(pairs),
            "probe_mismatch": probe_mismatch, "spread": spread, "verdict": v}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("base")
    ap.add_argument("new")
    ap.add_argument("--bench", default=os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        "BENCHMARK.json"))
    args = ap.parse_args()
    with open(args.bench) as f:
        spec = json.load(f)
    base, new = load_runs(args.base), load_runs(args.new)
    probe_tolerance = max(m["bound"] for m in spec["end_to_end"])
    regressed = False
    print("%-8s %-15s %28s %28s %8s %7s %s" % (
        "workload", "metric", "base median [q1, q3]", "new median [q1, q3]",
        "worse%", "wins", "verdict"))
    for w in spec["workloads"]:
        bw = [r for r in base if r["workload"] == w["name"]]
        nw = [r for r in new if r["workload"] == w["name"]]
        if not bw or not nw:
            print("%-8s (no runs on one side)" % w["name"])
            continue
        if len(bw) < 10 or len(nw) < 10:
            print("%-8s note: fewer than ten runs per side (%d, %d)" %
                  (w["name"], len(bw), len(nw)))
        for metric in spec["end_to_end"]:
            r = verdict(metric, bw, nw, probe_tolerance)
            regressed |= r["verdict"] == "regressed"
            fmt = "%.4g [%.4g, %.4g]"
            print("%-8s %-15s %28s %28s %+7.1f%% %3d/%-3d %s%s" % (
                w["name"], r["metric"], fmt % (r["base"][1], r["base"][0],
                                              r["base"][2]),
                fmt % (r["new"][1], r["new"][0], r["new"][2]),
                100 * r["delta"], r["wins"], r["pairs"], r["verdict"],
                " (%d pairs: probes disagree)" % r["probe_mismatch"]
                if r["probe_mismatch"] else ""))
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
