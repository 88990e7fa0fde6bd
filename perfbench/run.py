#!/usr/bin/env python3
"""Builds and runs the whole-stack benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py                 # every workload, seed 1, human tables

Each call builds perfbench/ (a no-op when nothing changed) into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), runs one
workload in its own process, and prints that process's table followed by one
JSON line:

    {"correct": true, "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end list, with
--trace 1 its per_layer list; the traced run also writes a Chrome trace-event
file under the build directory. The exit code is 0 only when every output
check passed.
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["log-leased", "log-failover", "multihop", "fuzz-soak"]
CHILD_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build():
    """Configures and builds the benchmark; returns the binary's path."""
    out = build_dir()
    configure = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")) and shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    jobs = str(min(4, os.cpu_count() or 1))
    for cmd in (configure, ["cmake", "--build", out, "-j", jobs]):
        # Build chatter goes to stderr: stdout's last line is the result.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            raise SystemExit("perfbench: build failed: " + " ".join(cmd))
    return os.path.join(out, "perfbench")


def run_workload(binary, spec, workload, seed, seconds, trace):
    """Runs one workload in a child process; returns (correct, result dict)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        traces = os.path.join(build_dir(), "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(traces, f"{workload}-seed{seed}.json")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise SystemExit(f"perfbench: {workload} ran past {CHILD_TIMEOUT_S} s")

    metrics, result = {}, None
    for line in proc.stdout.splitlines():
        if line.startswith("@metric "):
            _, name, unit, value = line.split()
            metrics[name] = {"value": float(value), "unit": unit}
        elif line.startswith("@result "):
            _, attempted, failed = line.split()
            result = (int(attempted), int(failed))
        else:
            print(line)
    if result is None or result[0] < 1:
        raise SystemExit(f"perfbench: {workload} exited {proc.returncode} "
                         "without a result")

    chosen = {}
    for m in spec["per_layer" if trace else "end_to_end"]:
        got = metrics.get(m["name"])
        if got is None or got["unit"] != m["unit"] or not math.isfinite(got["value"]):
            raise SystemExit(f"perfbench: {workload} did not report a finite "
                             f"{m['name']} in {m['unit']}")
        chosen[m["name"]] = got
    correct = proc.returncode == 0 and result[1] == 0
    return correct, {"correct": correct, "attempted": result[0],
                     "failed": result[1], "metrics": chosen}


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ["all"], default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    binary = build()
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    all_correct = True
    for workload in workloads:
        sys.stdout.flush()
        correct, result = run_workload(binary, spec, workload, args.seed,
                                       args.seconds, args.trace)
        all_correct = all_correct and correct
        print(json.dumps(result), flush=True)
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
