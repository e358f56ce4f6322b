#!/usr/bin/env python3
"""Smoke test of the repository benchmark.

    python3 gcbench/test_smoke.py

Runs every workload for one second, measured and traced, through
gcbench/run.py (which builds the benchmark on first use). Checks that
each run exits 0, that its last line has exactly the result schema,
that it reports exactly the metrics BENCHMARK.json lists with their
units, and that every correctness gate passed: no failed operation,
and the traced run saw exactly the verdicts it expected.
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def run(workload, trace):
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=900)
    return done


class Smoke(unittest.TestCase):
    def check(self, workload, trace):
        done = run(workload, trace)
        self.assertEqual(done.returncode, 0, done.stderr[-2000:])
        lines = done.stdout.splitlines()
        stamp = json.loads(lines[-2])
        self.assertEqual(stamp["stamp"]["workload"], workload)
        self.assertEqual(stamp["stamp"]["seed"], 3)
        for key in ("nproc", "build_type", "compiler", "seconds"):
            self.assertIn(key, stamp["stamp"])
        for counts in stamp["samples"].values():
            self.assertGreater(counts["n"], 0)
        result = json.loads(lines[-1])
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], done.stderr[-2000:])
        self.assertEqual(result["failed"], 0)
        self.assertGreater(result["attempted"], 0)
        spec = SPEC["per_layer" if trace else "end_to_end"]
        want = {m["name"]: m["unit"] for m in spec}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        self.assertEqual(got, want)
        for name, metric in result["metrics"].items():
            self.assertIsInstance(metric["value"], (int, float), name)
        if trace:
            metrics = result["metrics"]
            self.assertEqual(metrics["assertions.verdicts"]["value"],
                             metrics["assertions.verdicts_expected"]["value"])
        else:
            for name, metric in result["metrics"].items():
                self.assertGreater(metric["value"], 0, name)

    def test_serve(self):
        self.check("serve", 0)
        self.check("serve", 1)

    def test_saturate(self):
        self.check("saturate", 0)
        self.check("saturate", 1)

    def test_audit(self):
        self.check("audit", 0)
        self.check("audit", 1)

    def test_rejects_unknown_workload(self):
        done = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             "nosuch", "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        self.assertNotEqual(done.returncode, 0)


if __name__ == "__main__":
    unittest.main()
