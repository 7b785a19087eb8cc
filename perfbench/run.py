#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload wg_lazy_n1024 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --self-test

The first run configures and builds the library, dodad and the benchmark
driver from the checkout's sources into .bench_build/perfbench (or
$CARGO_TARGET_DIR/perfbench when that is set); later runs rebuild only what
changed. The driver's output is passed through: metric lines, then one JSON
result line. Build output goes to stderr.
"""

import argparse
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["wg_lazy_n1024", "gathering_huge_n4096", "replay_v4_n256",
             "served_n64"]
# A run must end within 180 s; leave room for start-up and the build check.
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(directory, targets):
    """Configures (once) and builds `targets`; exits 1 when that fails."""
    if not os.path.exists(os.path.join(directory, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", directory,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(directory, ignore_errors=True)
            sys.exit("perfbench: configure failed (are the sources present?)")
    jobs = str(len(os.sched_getaffinity(0)))
    command = ["cmake", "--build", directory, "-j", jobs, "--target"] + targets
    if subprocess.run(command, stdout=sys.stderr).returncode != 0:
        sys.exit("perfbench: build failed")


def commit():
    if not os.path.exists(os.path.join(ROOT, ".git")) or not shutil.which("git"):
        return "none"
    result = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short=12", "HEAD"],
                            capture_output=True, text=True)
    return result.stdout.strip() if result.returncode == 0 else "none"


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="build and run the benchmark's own unit tests")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")

    directory = build_dir()
    if args.self_test:
        build(directory, ["perfbench_tests"])
        tests = os.path.join(directory, "perfbench_tests")
        if not os.path.exists(tests):
            sys.exit("perfbench: GTest not found, tests not built")
        sys.exit(subprocess.run([tests]).returncode)

    build(directory, ["perfbench", "dodad"])
    work = os.path.join(directory, "work")
    os.makedirs(work, exist_ok=True)
    for entry in os.listdir(work):  # stores a killed run left behind
        if entry.startswith("store-"):
            shutil.rmtree(os.path.join(work, entry), ignore_errors=True)

    command = [os.path.join(directory, "perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--dodad", os.path.join(directory, "doda", "dodad"),
               "--work-dir", work, "--commit", commit()]
    start = time.monotonic()
    try:
        code = subprocess.run(command, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: run exceeded %d s after %.0f s"
                 % (RUN_TIMEOUT_S, time.monotonic() - start))
    sys.exit(code)


if __name__ == "__main__":
    main()
