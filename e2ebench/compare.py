#!/usr/bin/env python3
"""Compares two result sets of the end-to-end benchmark.

    python3 e2ebench/compare.py BASE CHANGE [--benchmark BENCHMARK.json]

BASE and CHANGE are results files written by `run.py --out`; each
needs at least 5 untraced runs of every workload. For every (workload,
end-to-end metric) it prints both medians and quartiles and a verdict:

  worse       the change's median is worse than the base's by more than
              the metric's bound in BENCHMARK.json
  better      it is better by more than the base's quartile spread and
              wins at least 9 of 10 (base, change) run pairs
  unresolved  a side's quartile spread exceeds the bound (unless every
              change run beats every base run)
  same        otherwise

It exits non-zero on any `worse`, on an incorrect run, on a history
digest that differs between runs of one (workload, seed), and when the
names in BENCHMARK.json drift from `bm_e2e --list` and layers.py.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

import layers

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
MIN_RUNS = 5


def load_runs(path):
    with open(path) as f:
        return json.load(f)["runs"]


def name_drift(spec, binary):
    """Differences between BENCHMARK.json and what the code defines."""
    listed = json.loads(subprocess.run([binary, "--list"], check=True,
                                       capture_output=True, text=True,
                                       timeout=60).stdout)
    problems = []

    def diff(what, ours, theirs):
        if ours != theirs:
            problems.append(f"{what}: BENCHMARK.json has {ours}, "
                            f"the code defines {theirs}")

    diff("workloads", [w["name"] for w in spec["workloads"]],
         [w["name"] for w in listed["workloads"]])
    diff("end_to_end", [(m["name"], m["unit"], m["better"])
                        for m in spec["end_to_end"]],
         [(m["name"], m["unit"], m["better"]) for m in listed["end_to_end"]])
    diff("per_layer", [(m["name"], m["unit"]) for m in spec["per_layer"]],
         [tuple(m) for m in layers.METRICS])
    return problems


def verdict(base, change, better, bound):
    """(verdict, relative change of the median) for one metric."""
    med_a, med_b = statistics.median(base), statistics.median(change)
    q_a, q_b = statistics.quantiles(base, n=4), statistics.quantiles(change, n=4)
    spread_a = (q_a[2] - q_a[0]) / abs(med_a) if med_a else 0.0
    spread_b = (q_b[2] - q_b[0]) / abs(med_b) if med_b else 0.0
    rel = (med_b - med_a) / abs(med_a) if med_a else 0.0
    gain = rel if better == "higher" else -rel

    def beats(b, a):
        return b > a if better == "higher" else b < a

    if max(spread_a, spread_b) > bound:
        every = all(beats(b, a) for a in base for b in change)
        return ("better" if every else "unresolved"), rel
    if -gain > bound:
        return "worse", rel
    wins = sum(beats(b, a) for a in base for b in change)
    if gain > spread_a and wins >= 0.9 * len(base) * len(change):
        return "better", rel
    return "same", rel


def digest_mismatches(runs):
    """(workload, seed) pairs whose runs disagree on the history digest."""
    seen = {}
    for r in runs:
        seen.setdefault((r["workload"], r["seed"]), set()).add(
            r["history_digest"])
    return sorted(key for key, digests in seen.items() if len(digests) > 1)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("base")
    parser.add_argument("change")
    parser.add_argument("--benchmark", default=os.path.join(ROOT, "BENCHMARK.json"))
    parser.add_argument("--binary",
                        default=os.path.join(ROOT, ".bench_build", "e2ebench",
                                             "bm_e2e"),
                        help="bm_e2e to ask for --list (build it with run.py)")
    args = parser.parse_args(argv)
    with open(args.benchmark) as f:
        spec = json.load(f)

    failed = False
    for problem in name_drift(spec, args.binary):
        print(f"name drift: {problem}")
        failed = True

    base, change = load_runs(args.base), load_runs(args.change)
    for r in base + change:
        if not r["correct"]:
            print(f"incorrect run: {r['workload']} seed {r['seed']}")
            failed = True
    for workload, seed in digest_mismatches(base + change):
        print(f"history digest differs: {workload} seed {seed}")
        failed = True

    print(f"{'workload':18s} {'metric':18s} {'base median [q1, q3]':>34s} "
          f"{'change median [q1, q3]':>34s} {'change':>8s}  verdict")
    for w in spec["workloads"]:
        sides = [[r for r in runs if r["workload"] == w["name"] and not r["traced"]]
                 for runs in (base, change)]
        if min(len(s) for s in sides) < MIN_RUNS:
            print(f"{w['name']}: needs {MIN_RUNS} untraced runs per side, "
                  f"has {[len(s) for s in sides]}")
            failed = True
            continue
        for m in spec["end_to_end"]:
            a, b = ([r["metrics"][m["name"]]["value"] for r in s] for s in sides)
            v, rel = verdict(a, b, m["better"], m["bound"])
            cells = []
            for values in (a, b):
                q = statistics.quantiles(values, n=4)
                cells.append(f"{statistics.median(values):.5g} "
                             f"[{q[0]:.5g}, {q[2]:.5g}]")
            print(f"{w['name']:18s} {m['name']:18s} {cells[0]:>34s} "
                  f"{cells[1]:>34s} {rel:+8.2%}  {v}")
            failed |= v == "worse"
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
