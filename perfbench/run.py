#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --test      # the benchmark's own unit tests

Run from the root of a source checkout. The first call configures and
builds the repository plus the driver into $CARGO_TARGET_DIR (default
.bench_build); later calls only rebuild what changed. Build output goes to
stderr; the driver's last stdout line is the JSON result.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("dashboard_small", "train_pems08")


def build(build_dir, targets):
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or \
            not os.path.isdir(os.path.join(ROOT, "src")):
        sys.exit("perfbench: no ST-WA source tree around %s" % HERE)
    if not os.path.isfile(os.path.join(build_dir, "Makefile")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    cmd = ["cmake", "--build", build_dir, "-j", jobs, "--target"] + targets
    subprocess.run(cmd, check=True, stdout=sys.stderr)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--test", action="store_true")
    args = parser.parse_args()
    if not args.test and args.workload is None:
        parser.error("--workload is required")

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR",
                                               os.path.join(ROOT, ".bench_build")))
    try:
        if args.test:
            build(build_dir, ["perfbench_test"])
            return subprocess.run(
                [os.path.join(build_dir, "perfbench_test")]).returncode
        build(build_dir, ["stwa_fleet", "stwa_perfbench"])
    except (subprocess.CalledProcessError, OSError) as e:
        sys.exit("perfbench: build failed: %s" % e)

    try:
        commit = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short", "HEAD"],
                                capture_output=True, text=True).stdout.strip()
    except OSError:
        commit = ""
    driver = os.path.join(build_dir, "stwa_perfbench")
    fleet = os.path.join(build_dir, "stwa", "tools", "stwa_fleet")
    sys.stdout.flush()
    os.execv(driver, [driver, "--workload", args.workload,
                      "--seed", str(args.seed), "--seconds", str(args.seconds),
                      "--trace", str(args.trace), "--fleet-binary", fleet,
                      "--commit", commit or "unknown"])


if __name__ == "__main__":
    sys.exit(main())
