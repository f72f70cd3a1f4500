#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark (see e2ebench/README.md).

One run of one workload:

    python3 e2ebench/run.py --workload paper-smac --seed 1 --seconds 15 --trace 0

prints every metric with its unit and, as its last line, one JSON object
{"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
with --trace 0, the per-layer metrics (computed from the span file by
layers.py) with --trace 1. It exits non-zero when a correctness check
fails.

Several seeds of every workload, merged into one results file:

    python3 e2ebench/run.py --workload all --seed 1 --runs 5 --traced-runs 1 \
        --out results.json

Traced runs reuse the first seeds of the untraced ones, so their history
digests must match. Run from anywhere inside a full checkout: the build
goes to .bench_build/e2ebench at the checkout's root.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

sys.dont_write_bytecode = True  # leave nothing behind in the checkout
import layers  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "e2ebench")
BINARY = os.path.join(BUILD, "bm_e2e")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def benchmark_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    """Configures once, then rebuilds bm_e2e from the checkout's sources."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        sys.exit("run.py: no repository sources next to e2ebench/; "
                 "run it from a full checkout")
    jobs = str(min(4, os.cpu_count() or 1))
    # Compiler temporaries stay inside the checkout too.
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"], env=env,
                       stdout=sys.stderr, check=True, timeout=BUILD_TIMEOUT_S)
    subprocess.run(["cmake", "--build", BUILD, "--target", "bm_e2e", "-j", jobs],
                   env=env, stdout=sys.stderr, check=True,
                   timeout=BUILD_TIMEOUT_S)


def run_once(workload, seed, seconds, trace):
    """One bm_e2e process; returns its result record (layers when traced)."""
    work = os.path.join(ROOT, ".bench_build", "work", f"{workload}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    result_path = os.path.join(work, "result.json")
    spans_path = os.path.join(work, "spans.jsonl")
    cmd = [BINARY, f"--workload={workload}", f"--seed={seed}",
           f"--seconds={seconds}", f"--json={result_path}",
           f"--work-dir={work}"]
    if trace:
        cmd.append(f"--trace-out={spans_path}")
    try:
        proc = subprocess.run(cmd, stdout=sys.stderr, timeout=RUN_TIMEOUT_S)
        if not os.path.isfile(result_path):
            sys.exit(f"run.py: bm_e2e exited {proc.returncode} without a result")
        with open(result_path) as f:
            result = json.load(f)
        result["correct"] = result["correct"] and proc.returncode == 0
        if trace:
            result["layers"] = layers.compute(spans_path)
        return result
    finally:
        shutil.rmtree(work, ignore_errors=True)


def print_metrics(metrics):
    for name, m in metrics.items():
        print(f"{name:34s} {m['value']:18.6f} {m['unit']}")


def run_all(args, spec):
    """Every workload for each seed, merged into one results document."""
    names = [w["name"] for w in spec["workloads"]]
    if args.workload != "all":
        names = args.workload.split(",")
    plan = [(s, False) for s in range(args.seed, args.seed + args.runs)]
    plan += [(s, True) for s in range(args.seed, args.seed + args.traced_runs)]
    runs = []
    for seed, trace in plan:
        for name in names:
            r = run_once(name, seed, args.seconds, trace)
            print(f"{name} seed {seed} trace {int(trace)}: "
                  f"correct={r['correct']} digest={r['history_digest']}")
            runs.append(r)

    def median_of(records, key):
        if not records:
            return {}
        return {m: {"value": statistics.median(r[key][m]["value"] for r in records),
                    "unit": u["unit"]}
                for m, u in records[0][key].items()}

    workloads = {}
    for name in names:
        plain = [r for r in runs if r["workload"] == name and not r["traced"]]
        traced = [r for r in runs if r["workload"] == name and r["traced"]]
        entry = {"metrics": median_of(plain, "metrics"),
                 "layers": median_of(traced, "layers")}
        if plain and traced:
            # Tracing cost on throughput: traced over untraced, minus 1.
            ratio = (statistics.median(r["metrics"]["trials_per_s"]["value"]
                                       for r in traced)
                     / entry["metrics"]["trials_per_s"]["value"])
            entry["layers"]["trace.overhead"] = {"value": ratio - 1.0,
                                                 "unit": "ratio"}
        workloads[name] = entry
    doc = {
        "bench": "e2e",
        "config": {"seconds": args.seconds, "first_seed": args.seed,
                   "runs": args.runs, "traced_runs": args.traced_runs},
        "hardware": runs[0]["hardware"] if runs else {},
        "workloads": workloads,
        "runs": runs,
    }
    with open(args.out, "w") as f:
        json.dump(doc, f, indent=1)
        f.write("\n")
    return all(r["correct"] for r in runs)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        help="a workload name; with --out also 'all' or a "
                             "comma-separated list")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="timed phase per run (default: BENCHMARK.json's "
                             "run_seconds)")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--out", help="run several seeds, write merged results")
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--traced-runs", type=int, default=1)
    args = parser.parse_args()

    build()
    spec = benchmark_spec()
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    if args.out:
        sys.exit(0 if run_all(args, spec) else 1)

    result = run_once(args.workload, args.seed, args.seconds, args.trace)
    metrics = result["layers"] if args.trace else result["metrics"]
    print(f"# {args.workload} seed {args.seed}: "
          f"history_digest {result['history_digest']}")
    print_metrics(metrics)
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": metrics}))
    sys.exit(0 if result["correct"] else 1)


if __name__ == "__main__":
    main()
