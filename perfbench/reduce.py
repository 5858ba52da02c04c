#!/usr/bin/env python3
"""Reduce a traced perfbench run's spans to self times and per-layer metrics.

    python3 perfbench/reduce.py <spans.csv>     # print the self-time table

A span's self time is its duration minus the part of it covered by its
child spans. layer_metrics() combines the span-derived metrics with the
counts, sizes and isolated-pass timings the binary measured itself.
"""
import csv
import math
import statistics
import sys
from collections import defaultdict

# Tail rule shared with the binary: the highest percentile of this ladder
# that still has at least ten samples beyond it.
LADDER = (99.99, 99.9, 99.0, 95.0, 90.0)


def load_spans(path):
    spans = []
    with open(path) as f:
        for row in csv.DictReader(f):
            spans.append({"id": int(row["id"]), "name": row["name"],
                          "start": int(row["start_ns"]), "end": int(row["end_ns"]),
                          "parent": int(row["parent"]), "batch": int(row["batch"])})
    return spans


def self_times(spans):
    """Span id -> self time in ns."""
    covered = defaultdict(list)
    for s in spans:
        if s["parent"] >= 0:
            covered[s["parent"]].append((s["start"], s["end"]))
    result = {}
    for s in spans:
        busy, cursor = 0, s["start"]
        for start, end in sorted(covered[s["id"]]):
            start, end = max(start, cursor), min(end, s["end"])
            if end > start:
                busy += end - start
                cursor = end
        result[s["id"]] = (s["end"] - s["start"]) - busy
    return result


def percentile(values, q):
    values = sorted(values)
    if not values:
        return 0.0
    rank = max(1, math.ceil(q * len(values) / 100.0 - 1e-9))
    return values[min(len(values), rank) - 1]


def tail(values):
    for q in LADDER:
        if len(values) * (1.0 - q / 100.0) >= 10.0:
            return percentile(values, q)
    return percentile(values, 50.0)


def self_time_table(spans):
    selfs = self_times(spans)
    rows = defaultdict(lambda: [0, 0, 0])
    for s in spans:
        row = rows[s["name"]]
        row[0] += 1
        row[1] += s["end"] - s["start"]
        row[2] += selfs[s["id"]]
    lines = ["# %-22s %8s %14s %14s" % ("span", "count", "total_ms", "self_ms")]
    for name, (count, total, own) in sorted(rows.items(), key=lambda kv: -kv[1][2]):
        lines.append("# %-22s %8d %14.3f %14.3f" % (name, count, total / 1e6, own / 1e6))
    return "\n".join(lines)


def layer_metrics(spans, measured):
    """Per-layer metrics: span-derived ones plus the binary's `measured`."""
    durations = defaultdict(list)
    for s in spans:
        durations[s["name"]].append(s["end"] - s["start"])
    total = {name: sum(d) for name, d in durations.items()}
    out = {k: dict(v) for k, v in measured.items()}

    def put(name, value, unit):
        out[name] = {"value": float(value), "unit": unit}

    def ms(name):
        return [d / 1e6 for d in durations.get(name, [])]

    # File-feed path: every traced replay covers the same records.
    replays = len(durations.get("feed.replay", []))
    if replays:
        records = measured["feed.records"]["value"] * replays
        wall = total["feed.replay"]
        timed = sum(total.get(n, 0) for n in (
            "trace.parse", "serve.submit", "serve.drain", "persist.delta",
            "persist.full"))
        bench = total.get("bench.bookkeeping", 0)
        put("trace.parse_ns_per_rec", total.get("trace.parse", 0) / records, "ns")
        put("serve.submit_ns_per_rec", total.get("serve.submit", 0) / records, "ns")
        put("serve.submit_share", total.get("serve.submit", 0) / wall, "ratio")
        put("feeder.untimed_share", (wall - timed - bench) / (wall - bench), "ratio")
        put("serve.drain_ms_p50", statistics.median(ms("serve.drain")), "ms")
        put("serve.drain_ms_tail", tail(ms("serve.drain")), "ms")
        put("persist.delta_ms_p50", statistics.median(ms("persist.delta")), "ms")
        put("persist.delta_ms_tail", tail(ms("persist.delta")), "ms")
        put("persist.full_ms_p50", statistics.median(ms("persist.full")), "ms")
    calls = [d / 1e3 for d in durations.get("net.call", [])]
    if calls:
        put("net.call_us_p50", statistics.median(calls), "us")
        put("net.call_us_tail", tail(calls), "us")
    if durations.get("obs.scrape"):
        put("obs.scrape_ms_p50", statistics.median(ms("obs.scrape")), "ms")
    return out


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    print(self_time_table(load_spans(sys.argv[1])))
