#!/usr/bin/env python3
"""Checks that the benchmark is steady enough for its own bounds.

    python3 perfbench/spread.py [--runs 10] [--first-seed 1] [--workload W ...] [--out F]
    python3 perfbench/spread.py --compare first.json second.json

The first form runs each workload --runs times, each with another seed, as
untraced runs of perfbench/run.py. For every end-to-end metric it prints the
median and the spread: the distance between the first and third quartile of
the runs (statistics.quantiles, n=4) as a share of the median. Each spread
except setup_s's must stay within the metric's bound in BENCHMARK.json; the
aim is a third of it. --out keeps the raw values. The second form compares
two such files: no median may be worse in the second than in the first by
more than the metric's bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def measure(spec, workloads, runs, first_seed):
    values = {}
    for workload in workloads:
        for seed in range(first_seed, first_seed + runs):
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                 "--trace", "0"],
                stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if proc.returncode != 0 or not result["correct"]:
                raise SystemExit(f"{workload} seed {seed}: run failed")
            for name, m in result["metrics"].items():
                values.setdefault(workload, {}).setdefault(name, []).append(m["value"])
            print(f"{workload} seed {seed}: ok", file=sys.stderr, flush=True)
    return values


def report(spec, values):
    ok = True
    for workload, metrics in values.items():
        for m in spec["end_to_end"]:
            v = metrics[m["name"]]
            med = statistics.median(v)
            q = statistics.quantiles(v, n=4)
            spread = (q[2] - q[0]) / med
            within = m["name"] == "setup_s" or spread <= m["bound"]
            ok = ok and within
            print(f"{workload:13s} {m['name']:18s} median {med:<14.6g} "
                  f"spread {spread:.4f} bound {m['bound']:<5} "
                  f"{'ok' if within else 'TOO WIDE'}"
                  f"{'' if spread <= m['bound'] / 3 else ' (above a third)'}")
    return ok


def compare(spec, first, second):
    ok = True
    for workload, metrics in first.items():
        for m in spec["end_to_end"]:
            a = statistics.median(metrics[m["name"]])
            b = statistics.median(second[workload][m["name"]])
            worse = (a - b) / a if m["better"] == "higher" else (b - a) / a
            within = worse <= m["bound"]
            ok = ok and within
            print(f"{workload:13s} {m['name']:18s} {a:<14.6g} -> {b:<14.6g} "
                  f"worse by {worse:+.4f} bound {m['bound']:<5} "
                  f"{'ok' if within else 'REGRESSED'}")
    return ok


def main():
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--out")
    parser.add_argument("--compare", nargs=2, metavar=("FIRST", "SECOND"))
    args = parser.parse_args()

    if args.compare:
        with open(args.compare[0]) as f, open(args.compare[1]) as g:
            return 0 if compare(spec, json.load(f), json.load(g)) else 1
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    values = measure(spec, workloads, args.runs, args.first_seed)
    if args.out:
        with open(args.out, "w") as f:
            json.dump(values, f)
    return 0 if report(spec, values) else 1


if __name__ == "__main__":
    sys.exit(main())
