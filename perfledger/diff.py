#!/usr/bin/env python3
"""Compares two sets of perfledger results, per metric and workload.

    python3 perfledger/diff.py BASE NEW

BASE and NEW are result documents written by run.py (under
.bench_build/perfledger/results/) or directories searched recursively for
them: typically several seeds of the parent commit and of a change. For
every (workload, metric) present on both sides it prints each side's median
and quartiles and the change of the medians as a share of the base median,
signed so that positive means worse. A move is flagged when it exceeds the
metric's bound: the bound in BENCHMARK.json for the gated end-to-end
metrics, DEFAULT_BOUND for every other timed metric. A metric whose base
spread (quartile distance over median) exceeds its bound is "unresolved"
whatever the size of the move, unless every new run is better than every
base run. Counts must repeat exactly for the same seed; any difference on a
seed both sides ran is flagged "changed". Tallies (how much work fitted into
the run, e.g. batches) and host records (host.parallelism) are printed,
never flagged. Traced runs are compared separately from untraced ones
(workload "<name>/trace"). Exits 1 when a regression or a changed count is
flagged.
"""

import argparse
import collections
import glob
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
# The bound of every timed metric BENCHMARK.json does not list.
DEFAULT_BOUND = 0.1


def load(paths):
    """(workload, metric) -> {"values", "by_seed", "unit", "better", "kind"}."""
    files = []
    for path in paths:
        if os.path.isdir(path):
            files += glob.glob(os.path.join(path, "**", "*.json"), recursive=True)
        else:
            files.append(path)
    table = collections.defaultdict(lambda: {"values": [], "by_seed": {}})
    for name in sorted(files):
        with open(name) as f:
            try:
                doc = json.load(f)
            except ValueError:
                continue
        if not isinstance(doc, dict) or "workload" not in doc:
            continue  # not a result document (e.g. a Chrome trace)
        for metric in doc.get("metrics", []):
            if "value" not in metric:
                continue  # e.g. "unmeasured: host parallelism < 4"
            workload = doc["workload"] + ("/trace" if doc.get("trace") else "")
            entry = table[(workload, metric["name"])]
            entry["values"].append(float(metric["value"]))
            entry["by_seed"][doc.get("seed")] = float(metric["value"])
            entry.update(unit=metric["unit"], better=metric["better"],
                         kind=metric["kind"])
    return table


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base")
    parser.add_argument("new")
    args = parser.parse_args()

    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        bounds = {m["name"]: m["bound"] for m in json.load(f)["end_to_end"]}
    base, new = load([args.base]), load([args.new])
    keys = sorted(set(base) & set(new))
    if not keys:
        print("no (workload, metric) pair is present on both sides")
        return 1

    flagged = 0
    print("%-22s %-36s %-9s %23s %23s %8s %6s  %s" % (
        "workload", "metric", "unit", "base q1/med/q3",
        "new q1/med/q3", "worse", "bound", "verdict"))
    for workload, name in keys:
        b, n = base[(workload, name)], new[(workload, name)]
        bq1, bmed, bq3 = quartiles(b["values"])
        nq1, nmed, nq3 = quartiles(n["values"])
        better = b["better"]
        if b["kind"] in ("host", "tally"):
            verdict, worse, bound = "", 0.0, 0.0  # not a program figure
        elif better == "":
            seeds = set(b["by_seed"]) & set(n["by_seed"])
            same = all(b["by_seed"][s] == n["by_seed"][s] for s in seeds)
            verdict = "" if same else "changed"
            worse, bound = 0.0, 0.0
        else:
            bound = bounds.get(name, DEFAULT_BOUND)
            change = (nmed - bmed) / abs(bmed) if bmed else 0.0
            worse = change if better == "lower" else -change
            spread = (bq3 - bq1) / abs(bmed) if bmed else 0.0
            if better == "lower":
                separated = max(n["values"]) < min(b["values"])
            else:
                separated = min(n["values"]) > max(b["values"])
            if spread > bound and not separated:
                verdict = "unresolved"
            elif abs(worse) <= bound:
                verdict = ""
            else:
                verdict = "REGRESSION" if worse > 0 else "improved"
        if verdict in ("REGRESSION", "changed"):
            flagged += 1
        print("%-22s %-36s %-9s %7.4g/%7.4g/%7.4g %7.4g/%7.4g/%7.4g %+7.1f%% %5.0f%%  %s" % (
            workload, name, b["unit"], bq1, bmed, bq3, nq1, nmed, nq3,
            100 * worse, 100 * bound, verdict))
    print("%d flagged" % flagged)
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
