#!/usr/bin/env python3
"""Runs one workload of the repository benchmark and prints its result.

    python3 perfbench/run.py --workload explore|churn --seed N \\
        --seconds T --trace 0|1

Run from the repository root. The first run builds the runner
(perfbench/CMakeLists.txt, compiling ../src) into .bench_build/perfbench and
generates the input graphs into .bench_build/perfbench/inputs, cached by
(generator config, graph seed). Every run writes a run record (host block,
inputs with their MLG1 checksums, metrics, per-layer self times) under
.bench_build/perfbench/runs/ and prints, as its last stdout line, one JSON
object with exactly the keys correct, attempted, failed and metrics.
See perfbench/README.md for the workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import shutil
import struct
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
INPUT_DIR = os.path.join(BUILD_DIR, "inputs")
RUNS_DIR = os.path.join(BUILD_DIR, "runs")
BINARY = os.path.join(BUILD_DIR, "mlbench")
RUN_TIMEOUT_S = 170

# R-MAT inputs (format::GenerateMlg, default a/b/c and overlap 0.3):
# (log2 vertices, layers, edge draws per layer).
GRAPHS = {
    "full": {"explore": (17, 8, 1 << 19), "churn": (16, 4, 1 << 18)},
    "tiny": {"explore": (10, 8, 1 << 12), "churn": (10, 4, 1 << 12)},
}
WORKLOADS = ("explore", "churn")


def build():
    """Configures (once) and builds the runner; exits 1 on failure."""
    os.makedirs(BUILD_DIR, exist_ok=True)
    jobs = str(os.cpu_count() or 1)
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        cmd = ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(BUILD_DIR, ignore_errors=True)
            sys.exit("perfbench: configure failed")
    if subprocess.run(["cmake", "--build", BUILD_DIR, "-j", jobs],
                      stdout=sys.stderr).returncode != 0:
        sys.exit("perfbench: build failed")


def mlg_checksum(path):
    """The MLG1 whole-file checksum stored in the header (bytes 48..56)."""
    with open(path, "rb") as f:
        header = f.read(64)
    return "%016x" % struct.unpack_from("<Q", header, 48)[0]


def graph_input(scale, workload, graph_seed):
    """Path and description of the workload's graph, generating it once."""
    log2n, layers, edges = GRAPHS[scale][workload]
    name = "rmat%dx%d-e%d-g%d" % (log2n, layers, edges, graph_seed)
    path = os.path.join(INPUT_DIR, name + ".mlg")
    if not os.path.exists(path):
        os.makedirs(INPUT_DIR, exist_ok=True)
        tmp = path + ".tmp"
        subprocess.run([BINARY, "gen", "--out", tmp, "--log2n", str(log2n),
                        "--layers", str(layers), "--edges", str(edges),
                        "--seed", str(graph_seed)],
                       check=True, stdout=sys.stderr)
        os.replace(tmp, path)
    return path, {"name": name, "log2_vertices": log2n, "layers": layers,
                  "edges_per_layer": edges, "graph_seed": graph_seed,
                  "mlg1_checksum": mlg_checksum(path)}


def source_id():
    """git sha when the tree is a git checkout, else a digest of the sources
    (the benchmark also runs from plain exported trees)."""
    try:
        sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if sha.returncode == 0:
            return sha.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for fn in sorted(filenames):
                p = os.path.join(dirpath, fn)
                digest.update(os.path.relpath(p, ROOT).encode())
                with open(p, "rb") as f:
                    digest.update(f.read())
    return "src-" + digest.hexdigest()[:16]


def expected_metrics(trace):
    """name -> unit from BENCHMARK.json, or None when it is absent."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def run(workload, seed, seconds, trace, scale="full", graph_seed=1,
        quiet=False):
    """Builds if needed, runs one workload, writes the run record and
    returns (result, record)."""
    build()
    graph, graph_info = graph_input(scale, workload, graph_seed)
    ref = os.path.join(INPUT_DIR, "%s.%s.ref" % (graph_info["name"], workload))
    if workload != "churn" and not os.path.exists(ref):
        # Reference answers from a sequential single-lane Engine, once per
        # build tree, in their own process (outside the measured run).
        subprocess.run([BINARY, "ref", "--graph", graph, "--out",
                        ref + ".tmp"], check=True, stdout=sys.stderr)
        os.replace(ref + ".tmp", ref)
    os.makedirs(RUNS_DIR, exist_ok=True)
    stamp = "%s-t%d-s%d-%d" % (workload, trace, seed, time.time_ns())
    cmd = [BINARY, "run", "--workload", workload, "--graph", graph,
           "--ref", ref, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    if trace:
        cmd += ["--trace-out", os.path.join(RUNS_DIR, stamp + ".trace.json")]
    proc = subprocess.run(cmd, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit("perfbench: mlbench exited with %d" % proc.returncode)
    out = json.loads(lines[-1])
    inner = out.pop("record")
    record = {
        "schema": 1, "workload": workload, "seed": seed, "seconds": seconds,
        "trace": trace, "scale": scale,
        "host": {"source": source_id(), "build_type": inner.pop("build_type"),
                 "nproc": os.cpu_count(), "probe_ms": inner.pop("probe_ms")},
        "inputs": [graph_info], **inner, **out,
    }
    with open(os.path.join(RUNS_DIR, stamp + ".json"), "w") as f:
        json.dump(record, f, indent=1)
    if not quiet:
        for name, m in out["metrics"].items():
            print("%-40s %14.6g %s" % (name, m["value"], m["unit"]))
    return out, record


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--graph-seed", type=int, default=1,
                    help="generator seed of the input graph (held-out "
                         "graphs: any value other than 1)")
    args = ap.parse_args()
    out, _ = run(args.workload, args.seed, args.seconds, args.trace,
                 graph_seed=args.graph_seed)
    want = expected_metrics(args.trace)
    got = {k: v["unit"] for k, v in out["metrics"].items()}
    if want is not None and want != got:
        sys.exit("perfbench: metrics differ from BENCHMARK.json: %s" %
                 sorted(set(want.items()) ^ set(got.items())))
    print(json.dumps(out))
    return 0 if out["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
