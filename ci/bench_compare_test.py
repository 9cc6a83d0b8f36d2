#!/usr/bin/env python3
"""Exit-status contract of ci/bench_compare.py on icc-bench/v1 fixture pairs.

Each test writes a baseline and a fresh document to a temporary directory,
runs the gate on them, and checks its exit status and report lines.

Usage: python3 ci/bench_compare_test.py   (ctest runs it as bench_compare_test)
"""

import copy
import json
import os
import subprocess
import sys
import tempfile
import unittest

COMPARE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "bench_compare.py")

BASELINE = {
    "schema": "icc-bench/v1",
    "bench": "fixture",
    "config": {"n": 4, "seed": 1},
    "results": [
        {"name": "latency_ms", "value": 100.0, "unit": "virtual_ms"},
        {"name": "blocks_per_s", "value": 2.5, "unit": "blocks/s"},
        {"name": "real_verifications", "value": 0.0, "unit": "count"},
    ],
}


def with_value(name, value):
    doc = copy.deepcopy(BASELINE)
    for r in doc["results"]:
        if r["name"] == name:
            r["value"] = value
    return doc


class BenchCompareTest(unittest.TestCase):
    def compare(self, fresh):
        with tempfile.TemporaryDirectory() as d:
            paths = []
            for name, doc in (("baseline.json", BASELINE), ("fresh.json", fresh)):
                path = os.path.join(d, name)
                with open(path, "w") as f:
                    json.dump(doc, f)
                paths.append(path)
            proc = subprocess.run(
                [sys.executable, COMPARE, *paths], capture_output=True, text=True
            )
        return proc.returncode, proc.stdout

    def test_identical_files_pass(self):
        code, out = self.compare(BASELINE)
        self.assertEqual(code, 0, out)
        self.assertNotIn("WARN", out)
        self.assertNotIn("FAIL", out)

    def test_fifteen_percent_warns_and_passes(self):
        code, out = self.compare(with_value("latency_ms", 115.0))
        self.assertEqual(code, 0, out)
        self.assertIn("WARN latency_ms:", out)

    def test_thirty_percent_fails(self):
        for value in (130.0, 70.0):
            code, out = self.compare(with_value("latency_ms", value))
            self.assertEqual(code, 1, out)
            self.assertIn("FAIL latency_ms:", out)

    def test_missing_name_fails(self):
        fresh = copy.deepcopy(BASELINE)
        fresh["results"].pop(0)
        code, out = self.compare(fresh)
        self.assertEqual(code, 1, out)
        self.assertIn("missing from fresh run", out)

    def test_extra_name_fails(self):
        fresh = copy.deepcopy(BASELINE)
        fresh["results"].append({"name": "new_metric", "value": 1.0, "unit": "count"})
        code, out = self.compare(fresh)
        self.assertEqual(code, 1, out)
        self.assertIn("new_metric: new result not in baseline", out)

    def test_config_mismatch_fails(self):
        fresh = copy.deepcopy(BASELINE)
        fresh["config"]["seed"] = 2
        code, out = self.compare(fresh)
        self.assertEqual(code, 1, out)
        self.assertIn("config mismatch", out)

    def test_zero_baseline_nonzero_fresh_fails(self):
        code, out = self.compare(with_value("real_verifications", 1.0))
        self.assertEqual(code, 1, out)
        self.assertIn("real_verifications: baseline 0", out)


if __name__ == "__main__":
    unittest.main()
