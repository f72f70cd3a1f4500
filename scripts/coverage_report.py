#!/usr/bin/env python3
"""Counts the instrumented source lines that no test ran.

Usage:
    coverage_report.py BUILD_DIR PATH [PATH ...]

BUILD_DIR is a tree built with `--coverage` in which ctest has run, so
every object file has its .gcda counters next to it. PATH entries are
repo-relative files or directory prefixes (`src/net`,
`src/core/tuning_session.cc`). For each source file under them the
report prints how many instrumented lines never ran, then the total.
A line counts as covered when any translation unit ran it (headers are
compiled into many).

Advisory only: it always exits 0 once the report is printed.
"""

import gzip
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def gcda_files(build_dir):
    for dirpath, _, names in os.walk(os.path.abspath(build_dir)):
        for name in names:
            if name.endswith(".gcda"):
                yield os.path.join(dirpath, name)


def line_counts(build_dir):
    """Maps repo-relative source path -> {line: max count over TUs}."""
    counts = {}
    for gcda in gcda_files(build_dir):
        # gcov writes its .gcov.json.gz into the working directory.
        workdir = os.path.dirname(gcda)
        result = subprocess.run(
            ["gcov", "--json-format", "--stdout", "-o", workdir, gcda],
            cwd=workdir, capture_output=True)
        if result.returncode != 0:
            continue
        data = result.stdout
        if data[:2] == b"\x1f\x8b":
            data = gzip.decompress(data)
        for chunk in data.decode().splitlines():
            if not chunk.strip():
                continue
            report = json.loads(chunk)
            for entry in report.get("files", []):
                path = os.path.normpath(
                    os.path.join(report.get("current_working_directory", ""),
                                 entry["file"]))
                rel = os.path.relpath(path, ROOT)
                per_line = counts.setdefault(rel, {})
                for line in entry.get("lines", []):
                    number = line["line_number"]
                    per_line[number] = max(per_line.get(number, 0),
                                           line["count"])
    return counts


def main(argv):
    if len(argv) < 3:
        print(__doc__, file=sys.stderr)
        return 2
    build_dir, prefixes = argv[1], [p.rstrip("/") for p in argv[2:]]
    counts = line_counts(build_dir)
    total_lines = 0
    total_missed = 0
    for rel in sorted(counts):
        if not any(rel == p or rel.startswith(p + "/") for p in prefixes):
            continue
        lines = counts[rel]
        missed = sum(1 for c in lines.values() if c == 0)
        total_lines += len(lines)
        total_missed += missed
        print(f"{rel}: {missed} of {len(lines)} instrumented lines never ran")
    print(f"total: {total_missed} of {total_lines} instrumented lines never "
          f"ran in {', '.join(prefixes)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
