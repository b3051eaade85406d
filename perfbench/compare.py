#!/usr/bin/env python3
"""Compares two result sets of perfbench/run.py and labels each workload x
end-to-end metric better, worse, unchanged or unresolved.

  python3 perfbench/compare.py PARENT.jsonl CHANGE.jsonl

Each file holds the records `run.py --out FILE` appends, one run per line;
run both sides with the same --seconds and profile. The bounds and the
direction of each metric come from BENCHMARK.json. The rules are those of
perfbench/README.md ("Comparing two commits"):

  better      the change wins at least 9 of 10 runs paired in order (ties
              count for neither) and the medians differ by more than the
              parent's interquartile range, or every change run beats every
              parent run;
  unresolved  otherwise, when the parent's spread (interquartile range over
              median) is wider than the bound;
  worse       otherwise, when the change's median is worse than the
              parent's by more than the bound;
  unchanged   otherwise.

Exits 1 when any pairing is worse, else 0.
"""

import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load_bounds(path):
    with open(path) as f:
        spec = json.load(f)
    return {m["name"]: (m["bound"], m["better"], m["unit"]) for m in spec["end_to_end"]}


def load_runs(path):
    """workload -> metric -> values, from untraced run records in file order."""
    runs = {}
    with open(path) as f:
        for line in f:
            if not line.strip():
                continue
            record = json.loads(line)
            if record.get("provenance", {}).get("trace"):
                continue
            workload = record["provenance"]["workload"]
            for name, metric in record["metrics"].items():
                runs.setdefault(workload, {}).setdefault(name, []).append(metric["value"])
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def label(parent, change, bound, better):
    """Labels one workload x metric pairing; returns (label, details)."""
    sign = 1 if better == "lower" else -1

    def beats(a, b):  # a is better than b
        return sign * (b - a) > 0

    med_p = statistics.median(parent)
    med_c = statistics.median(change)
    q1, q3 = quartiles(parent)
    spread = (q3 - q1) / med_p if med_p else float("inf")
    worse_by = sign * (med_c - med_p) / med_p if med_p else 0.0
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if beats(c, p))
    all_better = all(beats(c, p) for c in change for p in parent)
    all_worse = all(beats(p, c) for c in change for p in parent)
    details = {"parent_median": med_p, "change_median": med_c, "parent_q1": q1,
               "parent_q3": q3, "spread": spread, "worse_by": worse_by, "wins": wins,
               "pairs": len(pairs)}
    improved = beats(med_c, med_p) and abs(med_c - med_p) > q3 - q1
    if all_better or (pairs and wins >= 0.9 * len(pairs) and improved):
        return "better", details
    if worse_by > bound and all_worse:
        return "worse", details
    if spread > bound:
        return "unresolved", details
    if worse_by > bound:
        return "worse", details
    return "unchanged", details


def compare(parent_runs, change_runs, bounds):
    rows = []
    for workload in sorted(set(parent_runs) & set(change_runs)):
        for name, (bound, better, unit) in bounds.items():
            parent = parent_runs[workload].get(name)
            change = change_runs[workload].get(name)
            if not parent or not change:
                continue
            verdict, details = label(parent, change, bound, better)
            rows.append((workload, name, unit, bound, verdict, details))
    return rows


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--benchmark", default=os.path.join(os.path.dirname(HERE),
                                                            "BENCHMARK.json"))
    args = parser.parse_args(argv)
    rows = compare(load_runs(args.parent), load_runs(args.change), load_bounds(args.benchmark))
    if not rows:
        print("no workload appears in both result sets", file=sys.stderr)
        return 2
    print("%-14s %-16s %12s %12s %8s %7s %6s %7s  %s" % (
        "workload", "metric", "parent", "change", "delta", "spread", "bound", "wins",
        "label"))
    for workload, name, unit, bound, verdict, d in rows:
        print("%-14s %-16s %10.4g%-2s %10.4g%-2s %+7.1f%% %6.1f%% %5.0f%% %3d/%-3d  %s" % (
            workload, name, d["parent_median"], unit[:2], d["change_median"], unit[:2],
            100 * d["worse_by"], 100 * d["spread"], 100 * bound, d["wins"], d["pairs"],
            verdict))
    return 1 if any(row[4] == "worse" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
