#!/usr/bin/env python3
"""Repository benchmark: builds perfbench/flexbench from source, runs one
workload, checks its outputs and prints every metric with its unit.

Usage, from the repository root:

    python3 perfbench/run.py --workload read-steady --seed 2015 \\
        --seconds 10 --trace 0

Workloads: fig6a-grid, read-steady, qos-mixed (see perfbench/README.md).
The last stdout line is one JSON object:

    {"correct": true, "attempted": N, "failed": N,
     "metrics": {"<name>": {"value": V, "unit": "<unit>"}, ...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end list, with
--trace 1 its per_layer list. A traced run also writes a Chrome trace of
host-time spans plus simulated-time telemetry, and validates it with
scripts/validate_trace.py. Any failed check exits nonzero and prints no
result. The build goes to $CARGO_TARGET_DIR (default .bench_build).
"""

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Unaccounted time (process start-up and exit) allowed between the
# simulator's phases and its wall-clock time.
PHASE_TOLERANCE_S = 0.25
PHASE_TOLERANCE_SHARE = 0.03
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                             ".bench_build"))


def build():
    """Configures and builds flexbench; returns the binary's path."""
    for needed in ("BENCHMARK.json", "src/CMakeLists.txt",
                   "bench/bench_common.cc", "scripts/validate_trace.py"):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            fail(f"{needed} not found: run from a full checkout")
    out = os.path.join(build_dir(), "flexbench")
    steps = [["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", out, "--target", "flexbench", "-j4"]]
    for step in steps:
        done = subprocess.run(step, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True,
                              check=False)
        if done.returncode != 0:
            sys.stderr.write(done.stdout)
            fail(f"build step failed: {' '.join(step)}")
    return os.path.join(out, "flexbench")


def merge_traces(trace_dir):
    """Joins the host-time spans and the simulated-time telemetry into one
    Chrome trace (metadata first, then events in timestamp order)."""
    events = []
    for name in ("host_spans.json", "sim_trace.json"):
        with open(os.path.join(trace_dir, name), encoding="utf-8") as f:
            events += json.load(f)["traceEvents"]
    meta = [e for e in events if e["ph"] == "M"]
    timed = sorted((e for e in events if e["ph"] != "M"),
                   key=lambda e: e["ts"])
    path = os.path.join(trace_dir, "trace.json")
    with open(path, "w", encoding="utf-8") as f:
        json.dump({"traceEvents": meta + timed}, f)
    return path


def validate_trace(trace_dir):
    trace = merge_traces(trace_dir)
    done = subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", "validate_trace.py"),
         trace, "--metrics", os.path.join(trace_dir, "metrics.jsonl"),
         "--strict"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        check=False)
    print(done.stdout.rstrip())
    if done.returncode != 0:
        fail("trace validation failed")


def check_expected(result, args):
    """On the committed seed, the simulated results must match the
    committed digest (and fig6a-grid the fig6a_response_time table)."""
    with open(os.path.join(HERE, "expected.json"), encoding="utf-8") as f:
        expected = json.load(f)
    if args.seed != expected["seed"]:
        print(f"output check: seed {args.seed} is not the committed "
              f"{expected['seed']}; digest check skipped")
        return
    want = expected["digests"][args.workload]
    if result["digest"] != want:
        fail(f"digest {result['digest']} != committed {want}")
    if args.workload == "fig6a-grid":
        table = "\n".join(expected["fig6a_table"])
        if result["table"].strip() != table.strip():
            fail("fig6a-grid table differs from fig6a_response_time's:\n"
                 + result["table"])
    print(f"output check: digest {want} matches the committed seed")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["fig6a-grid", "read-steady", "qos-mixed"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    binary = build()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds)]
    trace_dir = None
    if args.trace:
        trace_dir = os.path.join(build_dir(), "traces",
                                 f"{args.workload}-{args.seed}")
        os.makedirs(trace_dir, exist_ok=True)
        command += ["--trace-dir", trace_dir]

    start = time.perf_counter()
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        fail(f"flexbench did not finish within {RUN_TIMEOUT_S} s")
    wall_s = time.perf_counter() - start
    lines = done.stdout.strip().splitlines()
    if not lines:
        fail(f"flexbench exited {done.returncode} without a result")
    result = json.loads(lines[-1])
    for failure in result["failures"]:
        print(f"check failed: {failure}", file=sys.stderr)
    if done.returncode != 0 or result["failures"]:
        fail(f"flexbench exited {done.returncode}")

    print(f"workload {args.workload}  seed {args.seed}  "
          f"seconds {args.seconds}  digest {result['digest']}")
    check_expected(result, args)
    phases = result["phases"]
    accounted = phases["setup_s"] + phases["timed_s"] + phases["teardown_s"]
    gap = wall_s - accounted
    tolerance = max(PHASE_TOLERANCE_S, PHASE_TOLERANCE_SHARE * wall_s)
    print(f"phases: setup {phases['setup_s']:.3f} s + timed "
          f"{phases['timed_s']:.3f} s + teardown {phases['teardown_s']:.3f} s"
          f" = {accounted:.3f} s of wall {wall_s:.3f} s "
          f"(unaccounted {gap:.3f} s, tolerance {tolerance:.3f} s)")
    if abs(gap) > tolerance:
        fail("phases do not add up to the wall-clock time")
    if trace_dir:
        validate_trace(trace_dir)

    values = result["metrics"]
    chosen = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for metric in chosen:
        name = metric["name"]
        if name not in values:
            fail(f"metric {name} was not measured")
        metrics[name] = {"value": values[name], "unit": metric["unit"]}
        print(f"  {name:38s} {values[name]:>16.6g} {metric['unit']}")
    rates = ", ".join(f"{r:.0f}" for r in result["rates"])
    print(f"sim_req_per_s per repetition: {rates}")
    # Host speed is printed on every run but gated on none (see README);
    # perfbench/steadiness.py reads this line.
    print("ungated " + json.dumps({
        "wall_s": wall_s,
        "sim_req_per_s": result["metrics"]["sim_req_per_s"]}))
    samples = result["samples"]
    print(f"latency samples: {samples['read']} reads, {samples['t0_read']} "
          f"tenant-0 reads; attempted {result['attempted']}, failed "
          f"{result['failed']}")
    if args.workload == "fig6a-grid":
        print(result["table"].rstrip())
        print(f"paper gap: {result['paper_gap_pp']:.2f} pp (mean absolute "
              "gap of the three averages to -66 / -33 / +27)")
    print(json.dumps({"correct": True, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))


if __name__ == "__main__":
    main()
