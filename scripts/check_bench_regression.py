#!/usr/bin/env python3
"""Compare a fresh bench JSON against the committed baseline.

Usage:
    check_bench_regression.py <current.json> <baseline.json> [--threshold 0.20]

Every regression-tracked bench (bm_hotpath, bm_batch, bm_largen,
bm_service, bm_racing) writes one layout (bench/bench_json.h): a
``bench`` name, ``config``, ``hardware.cores``, a ``metrics`` list and
an ``info`` object. Only ``metrics`` is compared; ``info`` is for
humans. Each metric has a ``name``, a ``value`` and a ``deterministic``
flag, and every metric is lower-is-better:

* deterministic metrics (evals-to-target, racing work ratios) are
  bit-for-bit reproducible for fixed seeds, so any drift beyond 0.1% is
  a real behavior change, not clock noise;
* wall-clock metrics are flagged beyond ``--threshold``.

Names embed the run configuration (e.g.
``sparse_evals_to_98pct[iters=64,seeds=5]``), so a baseline generated
with other settings fails to intersect instead of comparing
incomparable numbers. A name missing on either side, or whose baseline
is <= 0, is skipped, not flagged. When the two files record different
``hardware.cores``, every row is still compared, but a warning and a
job-summary note say that the wall-clock rows span different hardware.

Surfaces regressions beyond the threshold in the GitHub Actions job
summary ($GITHUB_STEP_SUMMARY) and as ::warning:: annotations. Always
exits 0: CI runners have noisy wall clocks, so the check reports trends
rather than gating merges — a sustained >20% regression across commits
is the signal to investigate.
"""

import argparse
import json
import os
import sys

# Threshold applied to metrics that are deterministic for fixed seeds:
# any drift beyond float formatting is a real behavior change, so it is
# flagged immediately instead of hiding under the wall-clock threshold.
DETERMINISTIC_THRESHOLD = 0.001


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
        print(f"::warning title=bench mismatch::current is '{bench}', "
              f"baseline is '{baseline_doc.get('bench')}' — nothing compared")
        return 0

    current = collect_metrics(current_doc)
    baseline = collect_metrics(baseline_doc)

    rows = []
    regressions = []
    for name, (base_value, deterministic) in sorted(baseline.items()):
        cur_entry = current.get(name)
        if cur_entry is None or base_value <= 0:
            continue
        cur_value = cur_entry[0]
        ratio = cur_value / base_value
        # Deterministic metrics tolerate only float-formatting jitter;
        # wall-clock metrics use the (noisy-CI) threshold.
        limit = DETERMINISTIC_THRESHOLD if deterministic else threshold
        flag = ""
        if ratio > 1.0 + limit:
            flag = "REGRESSION (deterministic)" if deterministic \
                else "REGRESSION"
            regressions.append((name, base_value, cur_value, ratio))
        elif ratio < 1.0 - limit:
            flag = "improved"
        rows.append((name, base_value, cur_value, ratio, flag))

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
    elif regressions:
        lines.append(
            f"**{len(regressions)} metric(s) regressed more than "
            f"{threshold:.0%}** (wall-clock metrics are noisy on CI; "
            "evals-to-target metrics are deterministic — treat any drift "
            "there as a real behavior change):")
    else:
        lines.append(
            f"No metric regressed more than {threshold:.0%} "
            "against the committed baseline.")
    lines.append("")
    lines.append("| metric | baseline | current | ratio | |")
    lines.append("|---|---|---|---|---|")
    for name, base_value, cur_value, ratio, flag in rows:
        lines.append(f"| `{name}` | {base_value:.3e} | {cur_value:.3e} "
                     f"| {ratio:.2f}x | {flag} |")
    summary = "\n".join(lines) + "\n"

    print(summary)
    summary_path = os.environ.get("GITHUB_STEP_SUMMARY")
    if summary_path:
        with open(summary_path, "a") as f:
            f.write(summary)
    for name, base_value, cur_value, ratio in regressions:
        print(f"::warning title=bm_{bench} regression::{name} "
              f"{base_value:.3e} -> {cur_value:.3e} ({ratio:.2f}x)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
