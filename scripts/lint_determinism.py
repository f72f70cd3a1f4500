#!/usr/bin/env python3
"""Determinism lint: ban constructs that silently break bit-for-bit pins.

Usage:
    lint_determinism.py [path ...]      (default: src/)
    lint_determinism.py --list-rules

The repo's headline guarantees — multi-session service runs identical
to solo runs, wire-driven trajectories identical to in-process runs,
SIGKILL recovery identical to uninterrupted runs — are bit-for-bit
comparisons of serialized trajectories. A single unseeded RNG, a
wall-clock read that leaks into committed state, or an
iteration-order-dependent container in a serialization path breaks
them *silently*: tests keep passing until the schedule, the hash seed,
or the clock changes. This lint makes those constructs compile-time
(well, CI-time) errors instead of latent bugs.

Rules (see docs/static-analysis.md for the rationale table):

  raw-rng         std::random_device / rand() / srand() / unseeded
                  engines outside src/common/rng — all randomness must
                  flow from an explicitly seeded Rng.
  wall-clock      chrono clock reads and time() outside the allowlist
                  (logging, service/server timers, the one
                  optimizer-seconds token normalized out of
                  checkpoints) — time must never feed trajectories.
  unordered-container
                  std::unordered_{map,set,...} in serialization /
                  checkpoint / wire paths — iteration order is
                  hash-seed- and libc++-dependent, so any byte it
                  touches is unstable.
  lossy-float-format
                  %f/%e/%g formatting or setprecision in serde-adjacent
                  code — doubles cross serialization boundaries as
                  bit-exact hex (serde::EncodeDoubleBits), never as
                  rounded decimal.
  raw-mutex       std::mutex / lock_guard / unique_lock /
                  condition_variable outside src/common/sync.h — all
                  locking goes through the clang-thread-safety-
                  annotated wrappers so -Wthread-safety sees it.
  raw-thread      std::thread outside src/common/sync.h and the
                  ThreadPool — ad-hoc threads dodge the pool's
                  determinism contract (one index, one executor).
  raw-token-parse DecodeDoubleBits( / ParseInt64( / DecodeBytes( /
                  std::istringstream in serde, trial and racing-stat
                  code outside src/common/serde — persisted and wire
                  text is decoded by a field list over TokenReader,
                  the one total, range-checked reader.

Escape hatch: a finding is suppressed when the offending line, or the
line directly above it, carries `lint:allow(<rule>)` in a comment.
Suppressions are expected to justify themselves in the surrounding
comment (reviewed like any other code), e.g.:

    // lint:allow(raw-thread) — dedicated poll-loop thread (see header)
    loop_ = std::thread(&TuningServer::EventLoop, this);

Exit status: 0 clean, 1 findings, 2 usage error.
"""

import os
import re
import sys

# ---------------------------------------------------------------------------
# Rule table. `pattern` is matched per line after comment stripping
# (string literals are preserved — lossy-float-format needs them).
# `allow` prefixes are repo-relative POSIX paths; a file whose path
# starts with one of them is exempt from that rule.
# ---------------------------------------------------------------------------

# Paths whose bytes end up inside checkpoints, WAL records, or wire
# frames; iteration order and float rounding there ARE the protocol.
SERDE_PATHS = (
    "src/common/serde.",
    "src/core/session_log.",
    "src/core/tuning_session.",
    "src/optimizer/history_io.",
    "src/net/",
    "src/service/",
)

RULES = [
    {
        "name": "raw-rng",
        "pattern": re.compile(
            r"std::random_device"
            r"|(?<![\w:])s?rand\s*\("
            r"|std::(?:mt19937(?:_64)?|minstd_rand0?|default_random_engine"
            r"|ranlux\w+|knuth_b)\s+\w+\s*;"
        ),
        "allow": ("src/common/rng.",),
        "why": "all randomness must flow from an explicitly seeded Rng",
    },
    {
        "name": "wall-clock",
        "pattern": re.compile(
            r"(?:system_clock|steady_clock|high_resolution_clock)::now"
            r"|(?<![\w:.])time\s*\(\s*(?:NULL|nullptr|0)?\s*\)"
        ),
        "allow": (
            "src/common/logging.",
            # The optimizer-seconds token, normalized out of checkpoints
            # before comparison (see docs/checkpoint-format.md).
            "src/core/tuning_session.cc",
            # Session activity timestamps and server/client timers:
            # operational metadata, never part of a trajectory.
            "src/service/tuning_service.cc",
            "src/net/",
        ),
        "why": "wall-clock reads must never feed committed trajectories",
    },
    {
        "name": "unordered-container",
        "pattern": re.compile(r"std::unordered_(?:multi)?(?:map|set)"),
        "only": SERDE_PATHS,
        "allow": (),
        "why": "hash iteration order is unstable across runs/platforms",
    },
    {
        "name": "lossy-float-format",
        "pattern": re.compile(
            r"%[-+ #0-9.*]*[fFeEgG][\"']"  # %f at end of a literal
            r"|%[-+ #0-9.*]*[fFeEgG]\s"    # or followed by whitespace
            r"|std::setprecision\s*\("
        ),
        "only": SERDE_PATHS,
        "allow": (),
        "why": "serialized doubles must be bit-exact (EncodeDoubleBits)",
    },
    {
        "name": "raw-mutex",
        "pattern": re.compile(
            r"std::(?:mutex|recursive_mutex|shared_mutex|timed_mutex"
            r"|lock_guard|unique_lock|scoped_lock|shared_lock"
            r"|condition_variable(?:_any)?)\b"
        ),
        "allow": ("src/common/sync.h",),
        "why": "locking must use the annotated wrappers in common/sync.h",
    },
    {
        "name": "raw-thread",
        "pattern": re.compile(r"std::thread\b(?!::hardware_concurrency)"),
        "allow": ("src/common/sync.h", "src/common/thread_pool."),
        "why": "ad-hoc threads bypass the ThreadPool determinism contract",
    },
    {
        "name": "raw-token-parse",
        "pattern": re.compile(
            r"(?<![\w:])(?:DecodeDoubleBits|ParseInt64|DecodeBytes)\s*\("
            r"|std::istringstream\b"
        ),
        "only": SERDE_PATHS + ("src/core/trial.", "src/core/running_stat."),
        "allow": ("src/common/serde.",),
        "why": "decode persisted/wire text with a TokenReader field list",
    },
]

ALLOW_RE = re.compile(r"lint:allow\(([a-z-]+(?:\s*,\s*[a-z-]+)*)\)")
SOURCE_EXTENSIONS = (".cc", ".h", ".cpp", ".hpp", ".cxx")


def allowed_rules(line):
    """Rule names suppressed by a lint:allow(...) marker on this line."""
    match = ALLOW_RE.search(line)
    if not match:
        return frozenset()
    return frozenset(part.strip() for part in match.group(1).split(","))


def strip_comments(line, in_block_comment):
    """Removes // and /* */ comment text (string literals survive).

    Returns (code_text, still_in_block_comment). Comment markers inside
    string literals are honored as string content, not comments.
    """
    out = []
    i = 0
    in_string = None  # the quote char when inside a literal
    while i < len(line):
        ch = line[i]
        nxt = line[i + 1] if i + 1 < len(line) else ""
        if in_block_comment:
            if ch == "*" and nxt == "/":
                in_block_comment = False
                i += 2
                continue
            i += 1
            continue
        if in_string:
            out.append(ch)
            if ch == "\\":
                if nxt:
                    out.append(nxt)
                    i += 2
                    continue
            elif ch == in_string:
                in_string = None
            i += 1
            continue
        if ch in "\"'":
            in_string = ch
            out.append(ch)
            i += 1
            continue
        if ch == "/" and nxt == "/":
            break  # rest of line is a comment
        if ch == "/" and nxt == "*":
            in_block_comment = True
            i += 2
            continue
        out.append(ch)
        i += 1
    return "".join(out), in_block_comment


def applicable_rules(rel_path):
    rules = []
    for rule in RULES:
        only = rule.get("only")
        if only and not rel_path.startswith(only):
            continue
        if rel_path.startswith(rule["allow"]):
            continue
        rules.append(rule)
    return rules


def lint_file(path, rel_path):
    """Returns a list of (rel_path, line_number, rule, line) findings."""
    rules = applicable_rules(rel_path)
    if not rules:
        return []
    try:
        with open(path, encoding="utf-8", errors="replace") as handle:
            lines = handle.read().splitlines()
    except OSError as error:
        print(f"lint_determinism: cannot read {path}: {error}",
              file=sys.stderr)
        return []

    findings = []
    in_block = False
    previous_allows = frozenset()
    for number, raw in enumerate(lines, start=1):
        # The allow marker lives in comment text, so scan the raw line
        # (this line's marker or the previous line's both apply).
        line_allows = allowed_rules(raw) | previous_allows
        previous_allows = allowed_rules(raw)
        code, in_block = strip_comments(raw, in_block)
        if not code.strip():
            continue
        for rule in rules:
            if not rule["pattern"].search(code):
                continue
            if rule["name"] in line_allows:
                continue
            findings.append((rel_path, number, rule, raw.strip()))
    return findings


def iter_source_files(roots):
    for root in roots:
        if os.path.isfile(root):
            yield root
            continue
        for dirpath, _, filenames in os.walk(root):
            for filename in sorted(filenames):
                if filename.endswith(SOURCE_EXTENSIONS):
                    yield os.path.join(dirpath, filename)


def main(argv):
    args = argv[1:]
    if "--list-rules" in args:
        for rule in RULES:
            print(f"{rule['name']}: {rule['why']}")
        return 0
    if any(arg.startswith("-") for arg in args):
        print(__doc__, file=sys.stderr)
        return 2
    roots = args or ["src"]
    for root in roots:
        if not os.path.exists(root):
            print(f"lint_determinism: no such path: {root}", file=sys.stderr)
            return 2

    findings = []
    for path in iter_source_files(roots):
        rel_path = os.path.relpath(path).replace(os.sep, "/")
        findings.extend(lint_file(path, rel_path))

    for rel_path, number, rule, line in findings:
        print(f"{rel_path}:{number}: [{rule['name']}] {line}")
        print(f"    rule: {rule['why']}; suppress with "
              f"`// lint:allow({rule['name']})` + a justifying comment")
    if findings:
        print(f"\nlint_determinism: {len(findings)} finding(s)")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
