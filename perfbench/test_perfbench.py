#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 perfbench/test_perfbench.py

Two runs of one seed must agree exactly on every virtual-tick figure and
every per-layer count (the simulator is deterministic; only wall-clock
figures may differ), every run must pass its output checks, and the binary
must refuse malformed arguments.
"""

import os
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

# Units whose values are counted, not timed.
EXACT_UNITS = {"ticks", "count", "B", "share", "ratio"}
# Counted-looking figures that come from wall-clock time.
TIMED = {"reps", "log.kv_apply_share", "verify.time_share",
         "fuzz.differential_time_share"}


def metrics(binary, workload, seed):
    out = subprocess.run(
        [binary, "--workload", workload, "--seed", str(seed), "--seconds", "1",
         "--trace", "0"],
        stdout=subprocess.PIPE, text=True, check=True).stdout
    found = {}
    for line in out.splitlines():
        if line.startswith("@metric "):
            _, name, unit, value = line.split()
            found[name] = (unit, float(value))
    return found


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.binary = run.build()

    def test_same_seed_gives_identical_counts(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                first = metrics(self.binary, workload, 7)
                second = metrics(self.binary, workload, 7)
                self.assertEqual(first["failed_share"][1], 0)
                exact = {n: v for n, v in first.items()
                         if v[0] in EXACT_UNITS and n not in TIMED}
                self.assertGreater(len(exact), 10)
                for name, value in exact.items():
                    self.assertEqual(second[name], value, name)

    def test_seed_drives_the_scheduler_delays(self):
        # multihop's seed seeds every scenario's scheduler: another seed
        # gives another run, so a claim can be re-checked on a held-out seed.
        a = metrics(self.binary, "multihop", 1)
        b = metrics(self.binary, "multihop", 2)
        self.assertNotEqual(a["mac.deliveries_per_op"], b["mac.deliveries_per_op"])

    def test_rejects_malformed_arguments(self):
        for args in (["--workload", "nope", "--seed", "1", "--seconds", "1",
                      "--trace", "0"],
                     ["--workload", "multihop", "--seed", "x", "--seconds", "1",
                      "--trace", "0"],
                     ["--workload", "multihop", "--seed", "1", "--seconds", "0",
                      "--trace", "0"],
                     ["--workload", "multihop", "--seed", "1", "--seconds", "1",
                      "--trace", "2"]):
            proc = subprocess.run([self.binary] + args, capture_output=True)
            self.assertNotEqual(proc.returncode, 0, args)
            self.assertNotIn(b"@result", proc.stdout, args)


if __name__ == "__main__":
    unittest.main()
