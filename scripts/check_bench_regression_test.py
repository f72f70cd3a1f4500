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
              current_cores=1, exit_code=0):
        """Runs the checker, which must exit with `exit_code`; returns
        ({compared name: flag}, stdout, job summary)."""
        if os.path.exists(self.summary):
            os.remove(self.summary)
        proc = subprocess.run(
            [sys.executable, CHECKER,
             self.write("current", current, "fixture", current_cores),
             self.write("base", base, base_bench), *flags],
            capture_output=True, text=True,
            env=dict(os.environ, GITHUB_STEP_SUMMARY=self.summary))
        self.assertEqual(proc.returncode, exit_code, proc.stdout + proc.stderr)
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

    def test_deterministic_rows_must_be_bit_equal(self):
        rows, out, summary = self.check(
            {"evals[a]": (100.0, True), "evals[b]": (100.0, True),
             "evals[c]": (0.1 + 0.2, True)},
            {"evals[a]": (100.0, True), "evals[b]": (100.05, True),
             "evals[c]": (0.3, True)}, exit_code=1)
        self.assertEqual(rows, {"evals[a]": "",
                                "evals[b]": "CHANGED (deterministic)",
                                "evals[c]": "CHANGED (deterministic)"})
        self.assertIn("::error title=bm_fixture deterministic change::"
                      "evals[b] 100.0 -> 100.05", out)
        self.assertIn("2 deterministic metric(s) differ", summary)

    def test_deterministic_improvement_fails_too(self):
        rows, _, _ = self.check({"evals": (100.0, True)},
                                {"evals": (99.0, True)}, exit_code=1)
        self.assertEqual(rows, {"evals": "CHANGED (deterministic)"})

    def test_equal_deterministic_rows_pass(self):
        rows, out, summary = self.check(
            {"evals": (63, True), "ratio": (0.38266066576892704, True)},
            {"evals": (63.0, True), "ratio": (0.38266066576892704, True)})
        self.assertEqual(rows, {"evals": "", "ratio": ""})
        self.assertNotIn("::error", out)
        self.assertIn("Every deterministic metric equals", summary)

    def test_negative_and_zero_deterministic_rows_are_compared(self):
        base = {"pct[TPC-C]": (-16.30, True), "zero": (0.0, True)}
        rows, _, _ = self.check(base, base)
        self.assertEqual(rows, {"pct[TPC-C]": "", "zero": ""})
        rows, _, _ = self.check(
            base, {"pct[TPC-C]": (-16.31, True), "zero": (1e-300, True)},
            exit_code=1)
        self.assertEqual(rows, {"pct[TPC-C]": "CHANGED (deterministic)",
                                "zero": "CHANGED (deterministic)"})

    def test_missing_deterministic_row_fails(self):
        rows, out, summary = self.check(
            {"evals[a]": (1.0, True), "evals[b]": (2.0, True)},
            {"evals[a]": (1.0, True)}, exit_code=1)
        self.assertEqual(rows, {"evals[a]": "",
                                "evals[b]": "MISSING (deterministic)"})
        self.assertIn("evals[b] 2.0 -> missing", out)
        self.assertIn("1 deterministic metric(s) differ", summary)

    def test_wall_clock_uses_the_threshold(self):
        base = {"seconds[a]": (1.0, False), "seconds[b]": (1.0, False)}
        current = {"seconds[a]": (1.25, False), "seconds[b]": (1.15, False)}
        rows, _, _ = self.check(base, current)
        self.assertEqual(rows, {"seconds[a]": "REGRESSION", "seconds[b]": ""})
        rows, _, _ = self.check(base, current, "--threshold", "0.30")
        self.assertEqual(rows, {"seconds[a]": "", "seconds[b]": ""})

    def test_wall_clock_improvement_is_marked(self):
        rows, _, summary = self.check(
            {"seconds": (1.0, False), "evals": (100.0, True)},
            {"seconds": (0.5, False), "evals": (100.0, True)})
        self.assertEqual(rows, {"seconds": "improved", "evals": ""})
        self.assertIn("no wall-clock metric regressed", summary)

    def test_wall_clock_regression_never_fails(self):
        rows, out, summary = self.check({"seconds": (1.0, False)},
                                        {"seconds": (9.0, False)})
        self.assertEqual(rows, {"seconds": "REGRESSION"})
        self.assertIn("::warning title=bm_fixture regression::seconds", out)
        self.assertIn("1 wall-clock metric(s) regressed", summary)

    def test_wall_clock_name_on_one_side_only_is_skipped(self):
        rows, _, _ = self.check(
            {"shared": (1.0, False), "base_only": (1.0, False)},
            {"shared": (1.0, False), "current_only": (9.0, False),
             "new_deterministic": (9.0, True)})
        self.assertEqual(rows, {"shared": ""})
        rows, _, summary = self.check({"a": (1.0, False)}, {"b": (1.0, False)})
        self.assertEqual(rows, {})
        self.assertIn("No comparable metrics found", summary)

    def test_non_positive_wall_clock_base_is_skipped(self):
        rows, _, _ = self.check(
            {"zero": (0.0, False), "negative": (-1.0, False),
             "positive": (1.0, False)},
            {"zero": (5.0, False), "negative": (5.0, False),
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

    def test_bench_mismatch_compares_nothing_and_fails(self):
        rows, out, summary = self.check({"seconds": (1.0, False)},
                                        {"seconds": (9.0, False)},
                                        base_bench="other", exit_code=1)
        self.assertEqual(rows, {})
        self.assertIn("::error title=bench mismatch::", out)
        self.assertIn("nothing compared", out)
        self.assertEqual(summary, "")


if __name__ == "__main__":
    unittest.main()
