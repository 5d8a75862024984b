#!/usr/bin/env python3
"""Compare two sets of runs of one workload against BENCHMARK.json.

    python3 e2ebench/compare.py BASE NEW

BASE and NEW are files holding the stdout of one or more untraced
runs (`run.py ... --trace 0`) of the same workload; every line that is
a result object counts as one run. For each end-to-end metric the
script compares the median of NEW with the median of BASE and reports
a regression when NEW is worse by more than the metric's bound (a
share of the BASE median). It also reports the interquartile spread of
each side as a share of its median.

Exit status: 0 = no regression, 6 = at least one metric regressed,
4 = a run reported an incorrect output, 1 = unusable input.
"""

import argparse
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCHMARK = os.path.join(ROOT, "BENCHMARK.json")


def load_runs(path):
    runs = []
    with open(path) as f:
        for line in f:
            try:
                obj = json.loads(line)
            except ValueError:
                continue
            if isinstance(obj, dict) and sorted(obj) == [
                    "attempted", "correct", "failed", "metrics"]:
                runs.append(obj)
    return runs


def spread(values):
    if len(values) < 2:
        return 0.0
    q = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q[2] - q[0]) / abs(med) if med else 0.0


def compare(base, new, metrics):
    """Rows of (name, base median, new median, worse share, bound, flag)."""
    rows = []
    for m in metrics:
        name = m["name"]
        b = [r["metrics"][name]["value"] for r in base
             if name in r["metrics"]]
        n = [r["metrics"][name]["value"] for r in new
             if name in r["metrics"]]
        if not b or not n:
            rows.append((name, None, None, None, m["bound"], "missing"))
            continue
        bm, nm = statistics.median(b), statistics.median(n)
        if bm == 0:
            worse = 0.0 if nm == bm else float("inf")
        elif m["better"] == "lower":
            worse = (nm - bm) / abs(bm)
        else:
            worse = (bm - nm) / abs(bm)
        flag = "REGRESSION" if worse > m["bound"] else "ok"
        rows.append((name, bm, nm, worse, m["bound"], flag,
                     spread(b), spread(n)))
    return rows


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("base")
    ap.add_argument("new")
    args = ap.parse_args()
    with open(BENCHMARK) as f:
        bench = json.load(f)
    base, new = load_runs(args.base), load_runs(args.new)
    if not base or not new:
        print("compare: no result lines in %s" %
              (args.base if not base else args.new), file=sys.stderr)
        return 1
    incorrect = [r for r in base + new if not r["correct"] or r["failed"]]
    rows = compare(base, new, bench["end_to_end"])
    print("%-20s %14s %14s %9s %7s %8s %8s  %s" % (
        "metric", "base median", "new median", "worse", "bound",
        "sprd(b)", "sprd(n)", "verdict"))
    regressed = False
    for row in rows:
        if row[5] == "missing":
            print("%-20s %s" % (row[0], "missing from a side"))
            regressed = True
            continue
        name, bm, nm, worse, bound, flag, sb, sn = row
        print("%-20s %14.6g %14.6g %+8.1f%% %6.0f%% %7.1f%% %7.1f%%  %s" % (
            name, bm, nm, 100 * worse, 100 * bound, 100 * sb, 100 * sn,
            flag))
        regressed = regressed or flag != "ok"
    print("runs: base %d, new %d; incorrect runs: %d" % (
        len(base), len(new), len(incorrect)))
    if incorrect:
        return 4
    return 6 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
