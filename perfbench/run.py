#!/usr/bin/env python3
"""End-to-end pFuzzer benchmark: builds perfbench from source and runs it.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload json_seq --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

One workload prints a human-readable report followed, on the last line,
by one JSON object {"correct", "attempted", "failed", "metrics"}: the
end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
`--workload all` runs every workload untraced and traced and prints both
tables. The exit code is non-zero when a build fails or any run fails
its output, determinism or trace check. See perfbench/README.md.
"""

import argparse
import fcntl
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
WORKLOADS = ["json_seq", "csv_seq", "mjs_sharded"]
# Fresh processes per set-up measurement; setup_s is their median.
SETUP_SAMPLES = 31


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures and builds perfbench (Release) under .bench_build."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("perfbench: no pfuzz sources next to perfbench/; nothing to build")
        return False
    os.makedirs(BUILD, exist_ok=True)
    with open(os.path.join(BUILD, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            cmd = ["cmake", "-S", HERE, "-B", BUILD,
                   "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
                return False
        jobs = str(min(4, os.cpu_count() or 1))
        cmd = ["cmake", "--build", BUILD, "-j", jobs]
        return subprocess.run(cmd, stdout=sys.stderr).returncode == 0


def measure_setup(workload, seed):
    """Median set-up seconds (main to first subject run) over fresh
    processes."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        out = subprocess.run(
            [BINARY, "--setup-only", "--workload", workload,
             "--seed", str(seed)],
            stdout=subprocess.PIPE, text=True)
        if out.returncode != 0:
            return None
        samples.append(float(out.stdout.strip()))
    return statistics.median(samples)


def run_workload(workload, seed, seconds, trace):
    """Runs one workload; returns (exit code, parsed result or None)."""
    proc = subprocess.run(
        [BINARY, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
            lines = lines[:-1]
        except ValueError:
            result = None
    for line in lines:
        print(line)
    if result is None:
        return (proc.returncode or 1), None
    if not trace:
        setup = measure_setup(workload, seed)
        if setup is None:
            log("perfbench: set-up measurement failed")
            return 1, None
        print("  setup_s %.6f (median of %d fresh processes)"
              % (setup, SETUP_SAMPLES))
        result["metrics"]["setup_s"] = {"value": setup, "unit": "s"}
    return proc.returncode, result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not build():
        log("perfbench: build failed")
        return 2

    if args.workload != "all":
        code, result = run_workload(args.workload, args.seed, args.seconds,
                                    args.trace)
        if result is None:
            return code or 1
        print(json.dumps(result))
        return code

    # Every workload, untraced then traced; one combined result line.
    code, combined = 0, {"correct": True, "attempted": 0, "failed": 0,
                         "metrics": {}}
    for workload in WORKLOADS:
        for trace in (0, 1):
            print("== %s, trace %d" % (workload, trace))
            rc, result = run_workload(workload, args.seed, args.seconds,
                                      trace)
            code = code or rc
            if result is None:
                return code or 1
            combined["correct"] = combined["correct"] and result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            for name, metric in result["metrics"].items():
                combined["metrics"][workload + "." + name] = metric
    print(json.dumps(combined))
    return code


if __name__ == "__main__":
    sys.exit(main())
