#!/usr/bin/env python3
"""Per-layer metrics of bm_e2e, computed from its JSONL trace file.

    python3 e2ebench/layers.py spans.jsonl

A span line is {name, workload, session, call, thread, start_ns, end_ns,
parent[, work]}; a counter line is {counter, workload, value}. A child
span belongs to the span named by its `parent` with the same (session,
call). A span's self time is its duration minus the part of it that
the union of its children covers.
"""

import json
import sys
from collections import defaultdict

# (name, unit), in the order BENCHMARK.json lists them. A layer the
# workload bypasses reports 0.
METRICS = [
    ("client.ask_us.p50", "us"),
    ("client.ask_us.p99", "us"),
    ("client.ask_us.count", "count"),
    ("client.tell_us.p50", "us"),
    ("client.tell_us.p99", "us"),
    ("optimizer.suggest_us.p50", "us"),
    ("optimizer.suggest_us.p99", "us"),
    ("optimizer.suggest_us.count", "count"),
    ("optimizer.observe_us.p50", "us"),
    ("optimizer.observe_us.p99", "us"),
    ("optimizer.suggest_batch_us.p50", "us"),
    ("core.project_us.p50", "us"),
    ("core.project_us.p99", "us"),
    ("dbsim.evaluate_us.p50", "us"),
    ("dbsim.evaluate_us.p99", "us"),
    ("dbsim.sim_work", "runs"),
    ("common.eval_concurrency", "ratio"),
    ("service.drive_ms.p50", "ms"),
    ("service.drive_self_ms.p50", "ms"),
    ("net.ask_self_us.p50", "us"),
    ("net.ask_self_us.p99", "us"),
    ("net.tell_self_us.p50", "us"),
    ("net.tell_self_us.p99", "us"),
    ("net.create_us.p50", "us"),
    ("net.checkpoint_us.p50", "us"),
    ("net.close_us.p50", "us"),
    ("service.wal_append_us.p50", "us"),
    ("service.wal_append_us.p99", "us"),
    ("service.autosaves_per_s", "1/s"),
    ("service.restore_ms_per_session", "ms"),
    ("net.busy_rejections", "count"),
    ("net.shed_overload", "count"),
    ("quality.evals_to_best", "evals"),
]


def percentile(values, p):
    """Linear interpolation between closest ranks (bm_e2e uses the same)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = p * (len(ordered) - 1)
    lo = int(rank)
    hi = min(lo + 1, len(ordered) - 1)
    frac = rank - lo
    return ordered[lo] * (1.0 - frac) + ordered[hi] * frac


def covered(start, end, intervals):
    """Length of [start, end] covered by the union of `intervals`."""
    total = 0
    cursor = start
    for s, e in sorted(intervals):
        s, e = max(s, cursor), min(e, end)
        if e > s:
            total += e - s
            cursor = e
    return total


def load(path):
    spans = defaultdict(list)  # name -> [(session, call, start, end, work)]
    children = defaultdict(list)  # parent name -> [(session, call, start, end)]
    counters = {}
    with open(path) as f:
        for line in f:
            rec = json.loads(line)
            if "counter" in rec:
                counters[rec["counter"]] = rec["value"]
                continue
            spans[rec["name"]].append(
                (rec["session"], rec["call"], rec["start_ns"], rec["end_ns"],
                 rec.get("work", 0.0)))
            if rec["parent"] is not None:
                children[rec["parent"]].append(
                    (rec["session"], rec["call"], rec["start_ns"],
                     rec["end_ns"]))
    return spans, children, counters


def self_times(spans, children, name):
    """(session, duration_ns, self_ns) for every span called `name`."""
    by_call = defaultdict(list)
    for session, call, start, end in children.get(name, []):
        by_call[(session, call)].append((start, end))
    out = []
    for session, call, start, end, _ in spans.get(name, []):
        kids = by_call.get((session, call), [])
        out.append((session, end - start, end - start - covered(start, end, kids)))
    return out


def compute(path):
    spans, children, counters = load(path)

    def durations_us(name):
        return [(e - s) / 1e3 for _, _, s, e, _ in spans.get(name, [])]

    m = {}

    def put(prefix, values, stats):
        for stat in stats:
            if stat == "count":
                m[prefix + ".count"] = float(len(values))
            else:
                m[prefix + "." + stat] = percentile(values, int(stat[1:]) / 100)

    put("client.ask_us", durations_us("client.ask"), ["p50", "p99", "count"])
    put("client.tell_us", durations_us("client.tell"), ["p50", "p99"])
    put("optimizer.suggest_us", durations_us("optimizer.suggest"),
        ["p50", "p99", "count"])
    put("optimizer.observe_us", durations_us("optimizer.observe"), ["p50", "p99"])
    put("optimizer.suggest_batch_us", durations_us("optimizer.suggest_batch"),
        ["p50"])
    put("core.project_us", durations_us("core.project"), ["p50", "p99"])
    evaluate = durations_us("dbsim.evaluate")
    put("dbsim.evaluate_us", evaluate, ["p50", "p99"])
    m["dbsim.sim_work"] = sum(w for *_, w in spans.get("dbsim.evaluate", []))
    wall = counters.get("timed_wall_s", 0.0)
    m["common.eval_concurrency"] = sum(evaluate) / 1e6 / wall if wall else 0.0

    drive = defaultdict(lambda: [0, 0])  # session -> [steps ns, self ns]
    for session, dur, own in self_times(spans, children, "service.step"):
        drive[session][0] += dur
        drive[session][1] += own
    put("service.drive_ms", [d / 1e6 for d, _ in drive.values()], ["p50"])
    put("service.drive_self_ms", [s / 1e6 for _, s in drive.values()], ["p50"])

    for layer, span in (("net.ask_self_us", "client.ask"),
                        ("net.tell_self_us", "client.tell")):
        put(layer, [own / 1e3 for _, _, own in self_times(spans, children, span)],
            ["p50", "p99"])
    put("net.create_us", durations_us("client.create"), ["p50"])
    put("net.checkpoint_us", durations_us("client.checkpoint"), ["p50"])
    put("net.close_us", durations_us("client.close"), ["p50"])
    put("service.wal_append_us", durations_us("service.wal_append"), ["p50", "p99"])

    m["service.autosaves_per_s"] = (
        counters.get("service.autosaves_written", 0.0) / wall if wall else 0.0)
    restored = counters.get("service.sessions_restored", 0.0)
    m["service.restore_ms_per_session"] = (
        counters.get("setup_s", 0.0) * 1e3 / restored if restored else 0.0)
    m["net.busy_rejections"] = counters.get("net.busy_rejections", 0.0)
    m["net.shed_overload"] = counters.get("net.shed_overload", 0.0)
    m["quality.evals_to_best"] = counters.get("quality.evals_to_best", 0.0)
    return {name: {"value": m[name], "unit": unit} for name, unit in METRICS}


def main():
    if len(sys.argv) != 2:
        sys.exit("usage: layers.py spans.jsonl")
    for name, metric in compute(sys.argv[1]).items():
        print(f"{name:34s} {metric['value']:16.3f} {metric['unit']}")


if __name__ == "__main__":
    main()
