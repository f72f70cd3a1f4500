#!/usr/bin/env python3
"""Self-test for lint_determinism.py (run in CI next to the lint).

Usage:
    python3 scripts/lint_determinism_test.py      # unittest runner
    pytest scripts/lint_determinism_test.py      # also works

End-to-end cases run the linter as a subprocess over the fixture tree
in scripts/testdata/lint_repo (a miniature fake repo, so the
path-scoped rules — serde-only, rng-allowlist — resolve exactly as
they do against the real src/). Unit cases import the module and
exercise the comment stripper and the escape-hatch parser directly.
"""

import os
import re
import subprocess
import sys
import unittest

SCRIPTS_DIR = os.path.dirname(os.path.abspath(__file__))
LINTER = os.path.join(SCRIPTS_DIR, "lint_determinism.py")
FIXTURE_REPO = os.path.join(SCRIPTS_DIR, "testdata", "lint_repo")

sys.path.insert(0, SCRIPTS_DIR)
import lint_determinism  # noqa: E402  (path set up just above)

FINDING_RE = re.compile(r"^(?P<path>[^:\s]+):(?P<line>\d+): \[(?P<rule>[a-z-]+)\]")


def run_linter(args, cwd):
    proc = subprocess.run(
        [sys.executable, LINTER, *args],
        cwd=cwd, capture_output=True, text=True, check=False)
    findings = set()
    for line in proc.stdout.splitlines():
        match = FINDING_RE.match(line)
        if match:
            findings.add((match.group("path"), match.group("rule")))
    return proc.returncode, findings, proc


class EndToEndTest(unittest.TestCase):
    """The linter over the fixture repo: every rule trips exactly where
    intended, allowlisted files pass, suppressions hold, exit codes."""

    @classmethod
    def setUpClass(cls):
        cls.returncode, cls.findings, cls.proc = run_linter(
            ["src"], cwd=FIXTURE_REPO)

    def test_findings_exit_nonzero(self):
        self.assertEqual(self.returncode, 1, self.proc.stdout)

    def test_each_rule_trips_its_fixture(self):
        expected = {
            ("src/bad_rng.cc", "raw-rng"),
            ("src/bad_clock.cc", "wall-clock"),
            ("src/net/bad_unordered.cc", "unordered-container"),
            ("src/net/bad_format.cc", "lossy-float-format"),
            ("src/bad_mutex.cc", "raw-mutex"),
            ("src/bad_thread.cc", "raw-thread"),
            ("src/net/bad_token_parse.cc", "raw-token-parse"),
        }
        self.assertEqual(expected, self.findings, self.proc.stdout)

    def test_every_rule_has_a_fixture(self):
        tripped = {rule for _, rule in self.findings}
        all_rules = {rule["name"] for rule in lint_determinism.RULES}
        self.assertEqual(all_rules, tripped,
                         "a rule has no fixture proving it fires")

    def test_allowlisted_rng_home_passes(self):
        files = {path for path, _ in self.findings}
        self.assertNotIn("src/common/rng.cc", files)
        self.assertNotIn("src/common/sync.h", files)
        self.assertNotIn("src/common/serde.cc", files)

    def test_escape_hatch_suppresses(self):
        files = {path for path, _ in self.findings}
        self.assertNotIn("src/escape_hatch.cc", files)

    def test_comments_do_not_trip(self):
        files = {path for path, _ in self.findings}
        self.assertNotIn("src/comments_only.cc", files)

    def test_clean_subset_exits_zero(self):
        returncode, findings, proc = run_linter(
            ["src/common", "src/escape_hatch.cc", "src/comments_only.cc"],
            cwd=FIXTURE_REPO)
        self.assertEqual(returncode, 0, proc.stdout)
        self.assertEqual(findings, set())

    def test_missing_path_is_usage_error(self):
        returncode, _, _ = run_linter(["no/such/dir"], cwd=FIXTURE_REPO)
        self.assertEqual(returncode, 2)

    def test_list_rules(self):
        proc = subprocess.run(
            [sys.executable, LINTER, "--list-rules"],
            capture_output=True, text=True, check=False)
        self.assertEqual(proc.returncode, 0)
        for rule in lint_determinism.RULES:
            self.assertIn(rule["name"], proc.stdout)


class RealTreeTest(unittest.TestCase):
    """The real src/ must stay clean — the same invariant CI enforces."""

    def test_repo_src_is_clean(self):
        repo_root = os.path.dirname(SCRIPTS_DIR)
        returncode, findings, proc = run_linter(["src"], cwd=repo_root)
        self.assertEqual(returncode, 0,
                         f"determinism lint regressions:\n{proc.stdout}")
        self.assertEqual(findings, set())


class StripCommentsTest(unittest.TestCase):
    def strip(self, line, in_block=False):
        return lint_determinism.strip_comments(line, in_block)

    def test_line_comment_removed(self):
        code, in_block = self.strip("int x;  // std::mutex here")
        self.assertEqual(code, "int x;  ")
        self.assertFalse(in_block)

    def test_block_comment_spans_lines(self):
        code, in_block = self.strip("start /* std::thread t;")
        self.assertEqual(code, "start ")
        self.assertTrue(in_block)
        code, in_block = self.strip("still comment */ int y;", in_block)
        self.assertEqual(code, " int y;")
        self.assertFalse(in_block)

    def test_string_literals_survive(self):
        code, _ = self.strip('Log("deadline %f reached");')
        self.assertIn("%f", code)

    def test_comment_markers_inside_strings_are_content(self):
        code, in_block = self.strip('std::string url = "http://x"; int z;')
        self.assertIn("http://x", code)
        self.assertIn("int z;", code)
        self.assertFalse(in_block)

    def test_escaped_quote_does_not_end_string(self):
        code, _ = self.strip(r'const char* s = "say \" // not comment";')
        self.assertIn("not comment", code)


class AllowMarkerTest(unittest.TestCase):
    def test_single_rule(self):
        self.assertEqual(
            lint_determinism.allowed_rules("x; // lint:allow(raw-thread)"),
            frozenset({"raw-thread"}))

    def test_multiple_rules(self):
        self.assertEqual(
            lint_determinism.allowed_rules(
                "// lint:allow(raw-mutex, wall-clock)"),
            frozenset({"raw-mutex", "wall-clock"}))

    def test_no_marker(self):
        self.assertEqual(lint_determinism.allowed_rules("int x;"),
                         frozenset())


class RulePatternTest(unittest.TestCase):
    """Spot-check regex edges that the fixture files can't isolate."""

    def pattern(self, name):
        for rule in lint_determinism.RULES:
            if rule["name"] == name:
                return rule["pattern"]
        raise KeyError(name)

    def test_time_since_epoch_is_not_wall_clock(self):
        self.assertIsNone(
            self.pattern("wall-clock").search("x.time_since_epoch()"))

    def test_member_named_time_is_not_wall_clock(self):
        self.assertIsNone(
            self.pattern("wall-clock").search("status.time(now)"))

    def test_grand_is_not_rand(self):
        self.assertIsNone(self.pattern("raw-rng").search("grand(1)"))

    def test_seeded_engine_is_allowed(self):
        self.assertIsNone(
            self.pattern("raw-rng").search("std::mt19937 engine(seed);"))

    def test_hardware_concurrency_is_not_raw_thread(self):
        self.assertIsNone(
            self.pattern("raw-thread").search(
                "unsigned hc = std::thread::hardware_concurrency();"))

    def test_thread_member_is_raw_thread(self):
        self.assertIsNotNone(
            self.pattern("raw-thread").search("std::thread loop_;"))


if __name__ == "__main__":
    unittest.main(verbosity=2)
