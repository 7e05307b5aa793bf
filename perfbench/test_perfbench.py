#!/usr/bin/env python3
"""Tests for the benchmark itself.

    python3 perfbench/test_perfbench.py        # from the repository root

Every test drives perfbench/run.py with a short window, so a full pass takes
a few minutes (the first also builds).  Short windows can leave too few
latency samples for a valid run; these tests check names, units, the
correctness gate and the exact counts, not the timings.
"""

import json
import os
import re
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("sessions", "mixed", "solve")


def run(workload, seed, trace=0, seconds=2, extra=()):
    """Runs one workload; returns (exit code, stdout lines, result object)."""
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
         *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = out.stdout.strip().splitlines()
    if not lines:
        raise AssertionError("no output; stderr:\n" + out.stderr[-2000:])
    return out.returncode, lines, json.loads(lines[-1])


def matching(lines, pattern):
    return [line for line in lines if re.match(pattern, line)]


class SmokeTest(unittest.TestCase):
    def test_every_metric_prints_with_its_unit(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        for workload in WORKLOADS:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    _, _, result = run(workload, 1, trace=trace)
                    self.assertEqual(
                        set(result), {"correct", "attempted", "failed",
                                      "metrics"})
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(result["failed"], 0)
                    want = {m["name"]: m["unit"] for m in spec[key]}
                    got = {name: m["unit"]
                           for name, m in result["metrics"].items()}
                    self.assertEqual(got, want)


class CorrectnessGateTest(unittest.TestCase):
    def test_gate_fires_on_a_corrupted_reference(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                code, _, result = run(workload, 2, seconds=1,
                                      extra=("--corrupt-reference",))
                self.assertNotEqual(code, 0)
                self.assertFalse(result["correct"])
                self.assertGreater(result["failed"], 0)


class SeedTest(unittest.TestCase):
    def test_seed_changes_inputs_but_no_exact_count(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                runs = [run(workload, seed, seconds=1) for seed in (3, 4)]
                digests = [matching(lines, r"inputs: ") for _, lines, _ in runs]
                witnesses = [matching(lines, r"witness \S+ = ")
                             for _, lines, _ in runs]
                self.assertNotEqual(digests[0], digests[1])
                self.assertTrue(witnesses[0])
                self.assertEqual(witnesses[0], witnesses[1])
                for _, lines, result in runs:
                    self.assertFalse(matching(lines, r"witness MISMATCH"))
                    self.assertEqual(result["failed"], 0)


if __name__ == "__main__":
    unittest.main(verbosity=2)
