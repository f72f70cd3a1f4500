#!/usr/bin/env python3
"""Fixture self-test for compare.py: python3 e2ebench/compare_test.py"""

import contextlib
import io
import json
import os
import stat
import tempfile
import unittest

import compare
import layers

WORKLOADS = ["fast", "slow"]
METRICS = [
    {"name": "trials_per_s", "unit": "1/s", "better": "higher", "bound": 0.1},
    {"name": "round_p50_us", "unit": "us", "better": "lower", "bound": 0.1},
]
BASE_VALUES = [100.0, 101.0, 99.0, 100.5, 99.5]


class CompareTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.dir = self.tmp.name
        self.write_benchmark(WORKLOADS)
        self.binary = os.path.join(self.dir, "fake_bm_e2e")
        listing = {"workloads": [{"name": w, "why": "x"} for w in WORKLOADS],
                   "end_to_end": [{k: m[k] for k in ("name", "unit", "better")}
                                  for m in METRICS]}
        with open(self.binary, "w") as f:
            f.write("#!/usr/bin/env python3\nprint(%r)\n" % json.dumps(listing))
        os.chmod(self.binary, os.stat(self.binary).st_mode | stat.S_IEXEC)

    def tearDown(self):
        self.tmp.cleanup()

    def write_benchmark(self, workloads):
        spec = {"workloads": [{"name": w, "why": "x"} for w in workloads],
                "end_to_end": METRICS,
                "per_layer": [{"name": n, "unit": u, "better": "lower"}
                              for n, u in layers.METRICS]}
        with open(os.path.join(self.dir, "BENCHMARK.json"), "w") as f:
            json.dump(spec, f)

    def results(self, name, values, scale=None, digest="d"):
        """A results file with one untraced run per value of `values`;
        `scale` maps a metric name to a factor applied to it."""
        scale = scale or {}
        runs = []
        for w in WORKLOADS:
            for seed, v in enumerate(values):
                metrics = {m["name"]: {"value": v * scale.get(m["name"], 1.0),
                                       "unit": m["unit"]} for m in METRICS}
                runs.append({"workload": w, "seed": seed, "traced": False,
                             "correct": True, "history_digest": digest,
                             "metrics": metrics})
        path = os.path.join(self.dir, name + ".json")
        with open(path, "w") as f:
            json.dump({"runs": runs}, f)
        return path

    def compare(self, base, change):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = compare.main([base, change, "--binary", self.binary,
                                 "--benchmark",
                                 os.path.join(self.dir, "BENCHMARK.json")])
        return code, out.getvalue()

    def test_identical_sets_are_the_same(self):
        code, out = self.compare(self.results("a", BASE_VALUES),
                                 self.results("b", BASE_VALUES))
        self.assertEqual(code, 0, out)
        self.assertEqual(out.count(" same"), 4, out)

    def test_regression_beyond_bound_fails(self):
        code, out = self.compare(
            self.results("a", BASE_VALUES),
            self.results("b", BASE_VALUES, {"round_p50_us": 1.3}))
        self.assertEqual(code, 1, out)
        self.assertEqual(out.count(" worse"), 2, out)

    def test_small_drift_within_bound_is_same(self):
        code, out = self.compare(
            self.results("a", BASE_VALUES),
            self.results("b", BASE_VALUES, {"trials_per_s": 0.95}))
        self.assertEqual(code, 0, out)
        self.assertNotIn("worse", out)

    def test_clear_gain_is_better(self):
        code, out = self.compare(
            self.results("a", BASE_VALUES),
            self.results("b", BASE_VALUES, {"trials_per_s": 1.3}))
        self.assertEqual(code, 0, out)
        self.assertEqual(out.count(" better"), 2, out)

    def test_spread_wider_than_bound_is_unresolved(self):
        noisy = [60.0, 140.0, 100.0, 70.0, 130.0]
        code, out = self.compare(self.results("a", noisy),
                                 self.results("b", noisy, {"round_p50_us": 1.2}))
        self.assertEqual(code, 0, out)
        self.assertEqual(out.count("unresolved"), 4, out)

    def test_too_few_runs_fails(self):
        code, out = self.compare(self.results("a", BASE_VALUES[:3]),
                                 self.results("b", BASE_VALUES))
        self.assertEqual(code, 1, out)
        self.assertIn("needs 5 untraced runs", out)

    def test_digest_mismatch_fails(self):
        code, out = self.compare(self.results("a", BASE_VALUES),
                                 self.results("b", BASE_VALUES, digest="e"))
        self.assertEqual(code, 1, out)
        self.assertIn("history digest differs", out)

    def test_name_drift_fails(self):
        self.write_benchmark(WORKLOADS + ["gone"])
        code, out = self.compare(self.results("a", BASE_VALUES),
                                 self.results("b", BASE_VALUES))
        self.assertEqual(code, 1, out)
        self.assertIn("name drift: workloads", out)


if __name__ == "__main__":
    unittest.main()
