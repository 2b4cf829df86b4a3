#!/usr/bin/env python3
"""Runs the benchmark over several seeds and keeps every result.

    python3 perfbench/sweep.py --out DIR [--workloads a,b] [--seeds 1-10]
                               [--seconds 30] [--trace 0|1]

Writes DIR/<workload>.seed<N>.json (the run's JSON line) and
DIR/<workload>.seed<N>.log (everything else it printed), then prints each
metric's median and quartile spread. Two such directories are the input of
perfbench/compare.py. Exits nonzero if any run failed.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
from compare import load_set, summarize  # noqa: E402


def seeds_arg(text):
    out = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            out.extend(range(int(lo), int(hi) + 1))
        else:
            out.append(int(part))
    return out


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--out", required=True)
    parser.add_argument("--workloads",
                        default="dashboard_small,train_pems08")
    parser.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    os.makedirs(args.out, exist_ok=True)
    failed = 0
    for workload in args.workloads.split(","):
        for seed in args.seeds:
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"),
                 "--workload", workload, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace)],
                stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
            lines = proc.stdout.rstrip("\n").split("\n")
            stem = os.path.join(args.out, "%s.seed%d" % (workload, seed))
            with open(stem + ".log", "w") as f:
                f.write(proc.stdout)
            try:
                result = json.loads(lines[-1])
            except ValueError:
                result = None
            if proc.returncode != 0 or result is None:
                failed += 1
                print("%s seed %d: FAILED (exit %d), see %s.log" %
                      (workload, seed, proc.returncode, stem))
            if result is not None:
                with open(stem + ".json", "w") as f:
                    f.write(lines[-1] + "\n")
            print("%s seed %d done" % (workload, seed), flush=True)
    summarize(load_set(args.out))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
