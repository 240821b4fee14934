#!/usr/bin/env python3
"""Validates telemetry artifacts exported by the benches.

Usage:
    validate_trace.py TRACE.json [--metrics METRICS.jsonl] [--bench BENCH.json]

Checks (stdlib only, so it runs anywhere CI does):
  * the Chrome trace parses as JSON, has a non-empty `traceEvents` list,
    every event carries a well-formed `ph`/`pid`/`tid`/`ts`, timestamps are
    non-negative and non-decreasing, and complete events have `dur` >= 0
    (overlap on a track is legal: queued commands' wait spans and in-flight
    host requests genuinely overlap in time);
  * every span's `cat` is one of the categories the simulator emits
    (KNOWN_CATEGORIES below — includes the integrity layer's
    `integrity_recovered`/`integrity_unrecovered` spans under "policy" and
    the array's `read_repair` spans under "array"). Unknown categories are
    a *warning* by default so new instrumentation doesn't hard-break older
    checkouts of this script; `--strict` promotes them to errors for CI
    runs where the script and the binaries are from the same commit;
  * every metrics JSONL line parses and carries the expected type fields,
    with histogram bin counts summing to their `total`;
  * the BENCH json's per-cell latency breakdown sums to the read-response
    total within 1e-9 relative error, and shares sum to 1.
Exit code 0 iff everything holds.
"""

import argparse
import json
import sys

VALID_PHASES = {"M", "X", "i"}

# Span categories the simulator's telemetry layer emits today:
#   sim     — simulator lifecycle (mount, crash, power-loss)
#   request — host request lifetimes
#   read    — per-read latency breakdown attempts
#   chip    — chip occupancy / queued commands
#   ftl     — GC, refresh, migration, relocation maintenance
#   policy  — read-policy maintenance, incl. integrity_recovered /
#             integrity_unrecovered adjudication spans
#   array   — host-array request lifetimes and read_repair spans
KNOWN_CATEGORIES = {"sim", "request", "read", "chip", "ftl", "policy",
                    "array"}


def fail(message):
    print(f"FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def validate_trace(path, strict=False):
    with open(path, encoding="utf-8") as f:
        doc = json.load(f)
    events = doc.get("traceEvents")
    if not isinstance(events, list) or not events:
        fail(f"{path}: traceEvents missing or empty")

    last_ts = None
    counts = {"M": 0, "X": 0, "i": 0}
    unknown_cats = {}
    for i, ev in enumerate(events):
        ph = ev.get("ph")
        if ph not in VALID_PHASES:
            fail(f"{path}: event {i} has bad ph {ph!r}")
        counts[ph] += 1
        if not isinstance(ev.get("pid"), int):
            fail(f"{path}: event {i} has bad pid")
        if ph == "M":
            if ev.get("name") not in ("process_name", "thread_name"):
                fail(f"{path}: metadata event {i} has bad name")
            continue
        if not isinstance(ev.get("tid"), int):
            fail(f"{path}: event {i} has bad tid")
        cat = ev.get("cat")
        if cat not in KNOWN_CATEGORIES:
            if strict:
                fail(f"{path}: event {i} ({ev.get('name')!r}) has unknown "
                     f"category {cat!r}")
            unknown_cats[cat] = unknown_cats.get(cat, 0) + 1
        ts = ev.get("ts")
        if not isinstance(ts, (int, float)) or ts < 0:
            fail(f"{path}: event {i} has bad ts {ts!r}")
        if last_ts is not None and ts < last_ts:
            fail(f"{path}: event {i} ts {ts} < previous {last_ts}")
        last_ts = ts
        if ph == "i":
            if ev.get("s") != "t":
                fail(f"{path}: instant event {i} lacks thread scope")
            continue
        dur = ev.get("dur")
        if not isinstance(dur, (int, float)) or dur < 0:
            fail(f"{path}: X event {i} has bad dur {dur!r}")
    if counts["X"] == 0:
        fail(f"{path}: no complete (X) events")
    for cat, n in sorted(unknown_cats.items(), key=repr):
        print(f"WARN: {path}: {n} events with unknown category {cat!r} "
              f"(not in {sorted(KNOWN_CATEGORIES)}; --strict makes this an "
              f"error)", file=sys.stderr)
    print(f"OK: {path}: {len(events)} events "
          f"(M={counts['M']}, X={counts['X']}, i={counts['i']})")


def validate_metrics(path):
    lines = 0
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, 1):
            line = line.strip()
            if not line:
                continue
            lines += 1
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as e:
                fail(f"{path}:{lineno}: not JSON ({e})")
            kind = obj.get("type")
            if kind not in ("counter", "gauge", "histogram"):
                fail(f"{path}:{lineno}: bad type {kind!r}")
            if not obj.get("name"):
                fail(f"{path}:{lineno}: missing name")
            if kind == "histogram":
                if sum(obj["counts"]) != obj["total"]:
                    fail(f"{path}:{lineno}: counts do not sum to total")
            elif not isinstance(obj.get("value"), (int, float)):
                fail(f"{path}:{lineno}: bad value")
    if lines == 0:
        fail(f"{path}: empty")
    print(f"OK: {path}: {lines} metric lines")


def validate_bench(path):
    with open(path, encoding="utf-8") as f:
        doc = json.load(f)
    cells = doc.get("cells")
    if not isinstance(cells, list) or not cells:
        fail(f"{path}: cells missing or empty")
    seen = set()
    for cell in cells:
        label = f"{cell['workload']}/{cell['scheme']}/{cell['age_model']}"
        if label in seen:
            fail(f"{path}: {label}: duplicate row")
        seen.add(label)
        total = cell["read_total_s"]
        breakdown = sum(cell["breakdown_s"].values())
        if total > 0 and abs(breakdown / total - 1.0) > 1e-9:
            fail(f"{path}: {label}: breakdown {breakdown} vs read total "
                 f"{total} (rel err {abs(breakdown / total - 1.0):.3e})")
        shares = sum(cell["breakdown_share"].values())
        if abs(shares - 1.0) > 1e-9:
            fail(f"{path}: {label}: breakdown shares sum to {shares}")
        if cell["read_p99_s"] < cell["read_mean_s"] * 0.5:
            fail(f"{path}: {label}: p99 implausibly below mean")
    print(f"OK: {path}: {len(cells)} cells, breakdown identity holds")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("trace", help="Chrome trace-event JSON")
    parser.add_argument("--metrics", help="metrics JSONL")
    parser.add_argument("--bench", help="BENCH_*.json summary")
    parser.add_argument("--strict", action="store_true",
                        help="treat unknown span categories as errors "
                             "(default: warn)")
    args = parser.parse_args()
    validate_trace(args.trace, strict=args.strict)
    if args.metrics:
        validate_metrics(args.metrics)
    if args.bench:
        validate_bench(args.bench)


if __name__ == "__main__":
    main()
