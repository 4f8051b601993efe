#!/usr/bin/env python3
"""Compare two sets of benchmark runs: parent and change.

    python3 perfbench/compare.py PARENT.log CHANGE.log

Each file holds the standard output of one or more runs of perfbench/run.py
(any number of workloads and seeds, concatenated).  A run is recognised by
its "perfbench-stamp" line followed by its final JSON line.  For every
workload x end-to-end metric of BENCHMARK.json it prints each side's median
and quartiles and a verdict against the metric's bound:

  improved    the change wins at least 9/10 of the pairs (run i of each
              side, ties count for neither) and the medians differ by more
              than the parent's own spread (the distance between its
              quartiles);
  worse       the change's median is worse than the parent's by more than
              the bound (a share of the parent's median);
  unresolved  a side's spread is wider than the bound and not every run of
              the change reads better than every run of the parent;
  unchanged   otherwise.

The verdicts are tried in this order, so a clear regression reads worse
even when a side is noisy.

Pair the runs by running parent and change alternately, on the same seeds,
with the same --seconds.  Runs that are not correct are listed and left out.
"""

import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load_runs(path):
    runs = {}
    stamp = None
    with open(path) as f:
        for line in f:
            line = line.strip()
            if line.startswith("perfbench-stamp "):
                stamp = json.loads(line[len("perfbench-stamp "):])
            elif line.startswith("{") and stamp is not None:
                r = json.loads(line)
                if r.get("correct"):
                    runs.setdefault(stamp["workload"], []).append(r["metrics"])
                else:
                    print("skipping failed run: %s seed %s in %s"
                          % (stamp["workload"], stamp["seed"], path))
                stamp = None
    return runs


def quartiles(v):
    if len(v) < 2:
        return v[0], v[0], v[0]
    q = statistics.quantiles(v, n=4)
    return q[0], statistics.median(v), q[2]


def verdict(parent, change, better, bound):
    sign = 1 if better == "lower" else -1  # positive = worse
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) < 0)
    if pairs and wins >= 0.9 * len(pairs) and sign * (pm - cm) > (p3 - p1):
        return "improved"
    if pm and sign * (cm - pm) / abs(pm) > bound:
        return "worse"
    spread = max((p3 - p1) / abs(pm) if pm else 0, (c3 - c1) / abs(cm) if cm else 0)
    all_better = all(sign * (c - p) < 0 for c in change for p in parent)
    if spread > bound and not all_better:
        return "unresolved"
    return "unchanged"


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        spec = json.load(f)
    parent, change = load_runs(sys.argv[1]), load_runs(sys.argv[2])
    print("%-13s %-18s %-32s %-32s %s" % ("workload", "metric", "parent q1/median/q3 (n)",
                                         "change q1/median/q3 (n)", "verdict"))
    for w in [x["name"] for x in spec["workloads"]]:
        if w not in parent or w not in change:
            print("%-13s (no runs on %s)" % (w, "both sides" if w not in parent and w not in change
                                             else "parent" if w not in parent else "change"))
            continue
        for m in spec["end_to_end"]:
            name = m["name"]
            p = [r[name]["value"] for r in parent[w] if name in r]
            c = [r[name]["value"] for r in change[w] if name in r]
            if not p or not c:
                continue
            fmt = lambda v: "%.4g/%.4g/%.4g (%d)" % (*quartiles(v), len(v))
            print("%-13s %-18s %-32s %-32s %s" % (w, name, fmt(p), fmt(c),
                                                   verdict(p, c, m["better"], m["bound"])))


if __name__ == "__main__":
    main()
