#!/usr/bin/env python3
"""Builds the perfledger benchmark from source and runs one workload.

    python3 perfledger/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from the repository root. The first run configures and builds the
library and the perfledger binary in Release under .bench_build/perfledger;
later runs rebuild incrementally. The binary's per-metric lines go to
stdout, the full result document to .bench_build/perfledger/results/, and
with --trace 1 a Chrome trace of the benchmark's spans to
.bench_build/perfledger/traces/. The last stdout line is one JSON object:

    {"correct": .., "attempted": .., "failed": .., "metrics": {..}}

holding the end-to-end metrics BENCHMARK.json lists (--trace 0) or its
per-layer metrics (--trace 1). `--workload all` runs every workload in
turn, each ending with its own result line. Exits non-zero when a
correctness gate failed, and without a result line when the build or the
run failed.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfledger")
WORKLOADS = ("oneshot-300k", "session-100k", "serve-4t")
RUN_TIMEOUT_S = 170


def log(message):
    print("run.py: " + message, file=sys.stderr, flush=True)


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD, "-j", jobs],
    ]
    for step in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            log("build step failed: " + " ".join(step))
            return False
    return True


def listed_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return spec["per_layer" if trace else "end_to_end"]


def run_one(workload, args):
    tag = "%s.seed%d.trace%d" % (workload, args.seed, args.trace)
    results = os.path.join(BUILD, "results")
    traces = os.path.join(BUILD, "traces")
    os.makedirs(results, exist_ok=True)
    os.makedirs(traces, exist_ok=True)
    result_path = os.path.join(results, tag + ".json")
    if os.path.exists(result_path):
        os.remove(result_path)
    command = [
        os.path.join(BUILD, "perfledger"),
        "--workload", workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--out", result_path,
    ]
    if args.trace:
        command += ["--trace-out", os.path.join(traces, tag + ".json")]
    sys.stdout.flush()
    try:
        done = subprocess.run(command, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("the run exceeded %d s and was stopped" % RUN_TIMEOUT_S)
        return 1
    if done.returncode not in (0, 1) or not os.path.exists(result_path):
        log("perfledger exited with code %d" % done.returncode)
        return done.returncode or 1

    with open(result_path) as f:
        result = json.load(f)
    ledger = {m["name"]: m for m in result["metrics"]}
    metrics = {}
    missing = []
    for spec in listed_metrics(args.trace):
        entry = ledger.get(spec["name"])
        if entry is None or "value" not in entry or entry["unit"] != spec["unit"]:
            missing.append(spec["name"])
            continue
        metrics[spec["name"]] = {"value": entry["value"], "unit": spec["unit"]}
    if missing:
        log("the ledger lacks listed metrics: " + ", ".join(missing))
        return 1
    print(json.dumps({
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": metrics,
    }), flush=True)
    return 0 if result["correct"] and done.returncode == 0 else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not build():
        return 2
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    codes = [run_one(workload, args) for workload in workloads]
    return max(codes)


if __name__ == "__main__":
    sys.exit(main())
