#!/usr/bin/env python3
"""Fixture self-test for check_bench_regression.py:
python3 scripts/check_bench_regression_test.py"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

CHECKER = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       "check_bench_regression.py")


class CheckBenchRegressionTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.summary = os.path.join(self.tmp.name, "summary.md")

    def tearDown(self):
        self.tmp.cleanup()

    def write(self, name, metrics, bench, cores=1):
        """A bench JSON in the bench/bench_json.h layout; `metrics` maps
        a name to (value, deterministic)."""
        path = os.path.join(self.tmp.name, name + ".json")
        with open(path, "w") as f:
            json.dump({"bench": bench, "config": {},
                       "hardware": {"cores": cores},
                       "metrics": [{"name": n, "value": v, "deterministic": d}
                                   for n, (v, d) in metrics.items()],
                       "info": {"ignored": -1}}, f)
        return path

    def check(self, base, current, *flags, base_bench="fixture",
              current_cores=1):
        """Runs the checker, which must exit 0; returns
        ({compared name: flag}, stdout, job summary)."""
        if os.path.exists(self.summary):
            os.remove(self.summary)
        proc = subprocess.run(
            [sys.executable, CHECKER,
             self.write("current", current, "fixture", current_cores),
             self.write("base", base, base_bench), *flags],
            capture_output=True, text=True,
            env=dict(os.environ, GITHUB_STEP_SUMMARY=self.summary))
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        rows = {}
        for line in proc.stdout.splitlines():
            if line.startswith("| `"):
                cells = [c.strip() for c in line.strip("|").split("|")]
                rows[cells[0].strip("`")] = cells[4]
        summary = ""
        if os.path.exists(self.summary):
            with open(self.summary) as f:
                summary = f.read()
        return rows, proc.stdout, summary

    def test_deterministic_drift_above_a_tenth_of_a_percent_is_flagged(self):
        rows, out, summary = self.check(
            {"evals[a]": (100.0, True), "evals[b]": (100.0, True)},
            {"evals[a]": (100.2, True), "evals[b]": (100.05, True)})
        self.assertEqual(rows, {"evals[a]": "REGRESSION (deterministic)",
                                "evals[b]": ""})
        self.assertIn("::warning title=bm_fixture regression::evals[a]", out)
        self.assertIn("1 metric(s) regressed", summary)

    def test_wall_clock_uses_the_threshold(self):
        base = {"seconds[a]": (1.0, False), "seconds[b]": (1.0, False)}
        current = {"seconds[a]": (1.25, False), "seconds[b]": (1.15, False)}
        rows, _, _ = self.check(base, current)
        self.assertEqual(rows, {"seconds[a]": "REGRESSION", "seconds[b]": ""})
        rows, _, _ = self.check(base, current, "--threshold", "0.30")
        self.assertEqual(rows, {"seconds[a]": "", "seconds[b]": ""})

    def test_improvement_is_marked(self):
        rows, _, summary = self.check(
            {"seconds": (1.0, False), "evals": (100.0, True)},
            {"seconds": (0.5, False), "evals": (99.0, True)})
        self.assertEqual(rows, {"seconds": "improved", "evals": "improved"})
        self.assertIn("No metric regressed", summary)

    def test_name_on_one_side_only_is_skipped(self):
        rows, _, _ = self.check(
            {"shared": (1.0, False), "base_only": (1.0, False)},
            {"shared": (1.0, False), "current_only": (9.0, False)})
        self.assertEqual(rows, {"shared": ""})
        rows, _, summary = self.check({"a": (1.0, False)}, {"b": (1.0, False)})
        self.assertEqual(rows, {})
        self.assertIn("No comparable metrics found", summary)

    def test_non_positive_base_is_skipped(self):
        rows, _, _ = self.check(
            {"zero": (0.0, False), "negative": (-1.0, True),
             "positive": (1.0, False)},
            {"zero": (5.0, False), "negative": (5.0, True),
             "positive": (1.0, False)})
        self.assertEqual(rows, {"positive": ""})

    def test_core_count_mismatch_warns_and_still_compares(self):
        base = {"seconds": (1.0, False), "evals": (100.0, True)}
        current = {"seconds": (1.25, False), "evals": (100.0, True)}
        rows, out, summary = self.check(base, current, current_cores=4)
        self.assertEqual(rows, {"seconds": "REGRESSION", "evals": ""})
        self.assertEqual(out.count("core count mismatch"), 1)
        self.assertIn("current ran on 4 core(s), baseline on 1", out)
        self.assertIn("different hardware", summary)
        rows, out, summary = self.check(base, current)
        self.assertEqual(rows, {"seconds": "REGRESSION", "evals": ""})
        self.assertNotIn("core count mismatch", out)
        self.assertNotIn("different hardware", summary)

    def test_bench_mismatch_compares_nothing(self):
        rows, out, summary = self.check({"seconds": (1.0, False)},
                                        {"seconds": (9.0, False)},
                                        base_bench="other")
        self.assertEqual(rows, {})
        self.assertIn("::warning title=bench mismatch::", out)
        self.assertIn("nothing compared", out)
        self.assertEqual(summary, "")


if __name__ == "__main__":
    unittest.main()
