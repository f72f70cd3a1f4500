#!/usr/bin/env python3
"""Compare a fresh bench JSON against the committed baseline.

Usage:
    check_bench_regression.py <current.json> <baseline.json> [--threshold 0.20]

Every regression-tracked bench (bm_hotpath, bm_batch, bm_largen,
bm_service, bm_racing, bm_paper) writes one layout
(bench/bench_json.h): a ``bench`` name, ``config``, ``hardware.cores``,
a ``metrics`` list and an ``info`` object. Only ``metrics`` is
compared; ``info`` is for humans. Each metric has a ``name``, a
``value`` and a ``deterministic`` flag, and one rule covers every
bench:

* a deterministic metric (evals-to-target, racing work ratios, the
  paper ledger) is bit-for-bit reproducible for fixed seeds, so it
  fails the check unless it equals the baseline exactly, whatever its
  sign; a deterministic baseline metric missing from the current run
  fails too;
* a wall-clock metric is lower-is-better and advisory: a rise beyond
  ``--threshold`` is flagged, never failed, because CI runners have
  noisy clocks (a sustained >20% regression across commits is the
  signal to investigate). A wall-clock name missing on either side, or
  whose baseline is <= 0, is skipped.

Names embed the run configuration (e.g.
``sparse_evals_to_98pct[iters=64,seeds=5]``), so a run with other
settings misses the baseline's deterministic rows and fails instead of
comparing incomparable numbers. Files of different benches fail the
same way. When the two files record different ``hardware.cores``,
every row is still compared, but a warning and a job-summary note say
that the wall-clock rows span different hardware.

Writes the comparison to stdout and the GitHub Actions job summary
($GITHUB_STEP_SUMMARY), with ::error:: annotations for deterministic
failures and ::warning:: annotations for wall-clock regressions. Exits
1 when a deterministic metric failed, else 0.
"""

import argparse
import json
import os
import sys


def load(path):
    with open(path) as f:
        return json.load(f)


def collect_metrics(doc):
    """Returns {metric_name: (value, deterministic)}."""
    return {m["name"]: (m["value"], m["deterministic"])
            for m in doc.get("metrics", [])}


def cores(doc):
    return doc.get("hardware", {}).get("cores")


def main():
    parser = argparse.ArgumentParser(
        description="Compare a bench JSON against the committed baseline "
                    "and surface regressions.")
    parser.add_argument("current", help="freshly generated bench JSON")
    parser.add_argument("baseline", help="committed baseline JSON")
    parser.add_argument("--threshold", type=float, default=0.20,
                        help="relative regression threshold (default 0.20)")
    args = parser.parse_args()
    threshold = args.threshold

    current_doc = load(args.current)
    baseline_doc = load(args.baseline)
    bench = current_doc.get("bench")
    if baseline_doc.get("bench") != bench:
        print(f"::error title=bench mismatch::current is '{bench}', "
              f"baseline is '{baseline_doc.get('bench')}' — nothing compared")
        return 1

    current = collect_metrics(current_doc)
    baseline = collect_metrics(baseline_doc)

    rows = []
    regressions = []
    failures = []
    for name, (base_value, deterministic) in sorted(baseline.items()):
        cur_entry = current.get(name)
        if deterministic:
            if cur_entry is None:
                flag = "MISSING (deterministic)"
                failures.append((name, base_value, None))
                rows.append((name, base_value, None, flag))
            else:
                cur_value = cur_entry[0]
                flag = "" if cur_value == base_value \
                    else "CHANGED (deterministic)"
                if flag:
                    failures.append((name, base_value, cur_value))
                rows.append((name, base_value, cur_value, flag))
            continue
        if cur_entry is None or base_value <= 0:
            continue
        cur_value = cur_entry[0]
        ratio = cur_value / base_value
        flag = ""
        if ratio > 1.0 + threshold:
            flag = "REGRESSION"
            regressions.append((name, base_value, cur_value, ratio))
        elif ratio < 1.0 - threshold:
            flag = "improved"
        rows.append((name, base_value, cur_value, flag))

    cores_note = None
    if cores(current_doc) != cores(baseline_doc):
        cores_note = (f"current ran on {cores(current_doc)} core(s), baseline "
                      f"on {cores(baseline_doc)}: wall-clock rows compare "
                      "different hardware")
        print(f"::warning title=bm_{bench} core count mismatch::{cores_note}")

    lines = []
    lines.append(f"## bm_{bench} vs committed baseline")
    lines.append("")
    if cores_note:
        lines.append(f"Note: {cores_note}; deterministic rows are unaffected.")
        lines.append("")
    if not rows:
        lines.append("No comparable metrics found (baseline generated with "
                     "different settings?).")
    if failures:
        lines.append(
            f"**{len(failures)} deterministic metric(s) differ from the "
            "committed baseline or are missing**: fixed-seed results are "
            "bit-for-bit reproducible, so this is a real behavior change. "
            "Re-record the baseline only if the change is intended.")
    if regressions:
        lines.append(
            f"**{len(regressions)} wall-clock metric(s) regressed more than "
            f"{threshold:.0%}** (advisory: CI clocks are noisy).")
    if rows and not failures and not regressions:
        lines.append(
            "Every deterministic metric equals the committed baseline; no "
            f"wall-clock metric regressed more than {threshold:.0%}.")
    lines.append("")
    lines.append("| metric | baseline | current | ratio | |")
    lines.append("|---|---|---|---|---|")
    for name, base_value, cur_value, flag in rows:
        current_cell = "-" if cur_value is None else f"{cur_value:.6g}"
        ratio_cell = (f"{cur_value / base_value:.2f}x"
                      if cur_value is not None and base_value > 0 else "-")
        lines.append(f"| `{name}` | {base_value:.6g} | {current_cell} "
                     f"| {ratio_cell} | {flag} |")
    summary = "\n".join(lines) + "\n"

    print(summary)
    summary_path = os.environ.get("GITHUB_STEP_SUMMARY")
    if summary_path:
        with open(summary_path, "a") as f:
            f.write(summary)
    for name, base_value, cur_value in failures:
        current_text = "missing" if cur_value is None else repr(cur_value)
        print(f"::error title=bm_{bench} deterministic change::{name} "
              f"{base_value!r} -> {current_text}")
    for name, base_value, cur_value, ratio in regressions:
        print(f"::warning title=bm_{bench} regression::{name} "
              f"{base_value:.3e} -> {cur_value:.3e} ({ratio:.2f}x)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
