#!/usr/bin/env python3
"""Compares two result sets of the benchmark, per workload and metric.

    python3 perfbench/compare.py BASE_DIR CHANGE_DIR

Each directory holds <workload>.seed<N>.json files as perfbench/sweep.py
writes them. For every (workload, metric) it prints both medians, the
change as a share of the base median, each side's quartile spread, and a
verdict:

  better / worse  the change is outside the metric's bound (BENCHMARK.json)
                  in that direction, and both spreads are within the bound;
  no change       the change is within the bound and both spreads are too;
  unresolved      a spread is wider than the bound, unless every change run
                  beats every base run (better) or loses to it (worse);
  info            per-layer metrics, which carry no bound.

Exits 1 when any end-to-end metric reads "worse", else 0.
"""

import glob
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_set(directory):
    """{workload: {metric: [values...]}} plus units, from one directory."""
    data, units = {}, {}
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        workload = os.path.basename(path).split(".seed")[0]
        with open(path) as f:
            result = json.loads(f.read().strip().split("\n")[-1])
        for name, m in result["metrics"].items():
            data.setdefault(workload, {}).setdefault(name, []).append(
                m["value"])
            units[name] = m["unit"]
    return data, units


def spread(values):
    """Quartile distance as a share of the median (0 for < 2 values)."""
    if len(values) < 2:
        return 0.0
    q1, med, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / abs(med) if med else float("inf")


def summarize(loaded):
    data, units = loaded
    for workload in sorted(data):
        print("== %s" % workload)
        for name, values in data[workload].items():
            print("  %-36s median %14.6g %-9s spread %6.2f%%  (n=%d)" % (
                name, statistics.median(values), units[name],
                100 * spread(values), len(values)))


def bounds():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m for m in spec["end_to_end"]}, spec


def verdict(base, change, metric):
    """Verdict for one end-to-end metric (see the module docstring)."""
    lower = metric["better"] == "lower"
    bound = metric["bound"]
    mb, mc = statistics.median(base), statistics.median(change)
    rel = (mc - mb) / abs(mb) if mb else 0.0
    worse = rel > bound if lower else rel < -bound
    better = rel < -bound if lower else rel > bound
    if max(spread(base), spread(change)) > bound:
        if (max(change) < min(base)) if lower else (min(change) > max(base)):
            return rel, "better"
        if (min(change) > max(base)) if lower else (max(change) < min(base)):
            return rel, "worse"
        return rel, "unresolved"
    if worse:
        return rel, "worse"
    if better:
        return rel, "better"
    return rel, "no change"


def main(argv):
    if len(argv) != 3:
        sys.exit(__doc__)
    (base, units), (change, _) = load_set(argv[1]), load_set(argv[2])
    e2e, _ = bounds()
    any_worse = False
    for workload in sorted(set(base) & set(change)):
        print("== %s" % workload)
        for name in base[workload]:
            if name not in change[workload]:
                continue
            b, c = base[workload][name], change[workload][name]
            if name in e2e:
                rel, v = verdict(b, c, e2e[name])
                any_worse |= v == "worse"
                bound = "bound %4.1f%%" % (100 * e2e[name]["bound"])
            else:
                mb = statistics.median(b)
                rel = (statistics.median(c) - mb) / abs(mb) if mb else 0.0
                v, bound = "info", ""
            print("  %-36s %12.6g -> %-12.6g %-9s %+7.2f%%  spread %5.1f%%/%5.1f%%"
                  "  %-11s %s" % (name, statistics.median(b),
                                  statistics.median(c), units[name], 100 * rel,
                                  100 * spread(b), 100 * spread(c), bound, v))
    return 1 if any_worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
