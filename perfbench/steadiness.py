#!/usr/bin/env python3
"""Steadiness check for the repository benchmark.

Runs two sets of runs through perfbench/run.py. Each set runs every
workload --runs times on seeds 1..--runs, in alternating workload order (so
slow drift on the machine does not land on one workload). Per set, workload
and metric it prints the median and the spread, (Q3 - Q1) / median, with
quartiles as statistics.quantiles(values, n=4) gives them; then the drift,
how much worse the second set's median is than the first's, as a share of
the first.

Every end-to-end metric of BENCHMARK.json is judged as the benchmark's
acceptance does: its drift must stay within its bound, and so must each
spread except that of setup_s. A spread below a third of the bound is
marked steady. The host-speed metrics wall_s and sim_req_per_s, which no
bound gates, are judged the same way against the largest allowed bound,
0.25, and reported without failing the script.

Usage, from the repository root:

    python3 perfbench/steadiness.py --runs 10 [--workloads read-steady,...]

Exits nonzero if a run fails or a gated metric fails its check. Raw values
go to $CARGO_TARGET_DIR/steadiness.json (default .bench_build).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
UNGATED = [{"name": "wall_s", "better": "lower"},
           {"name": "sim_req_per_s", "better": "higher"}]
LARGEST_BOUND = 0.25


def run_once(workload, seed, seconds):
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        check=False)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        sys.exit(f"run failed: {workload} seed {seed}")
    lines = done.stdout.strip().splitlines()
    values = {name: m["value"]
              for name, m in json.loads(lines[-1])["metrics"].items()}
    for line in lines:
        if line.startswith("ungated "):
            values.update(json.loads(line[len("ungated "):]))
    return values


def spread(series):
    mid = statistics.median(series)
    q1, _, q3 = statistics.quantiles(series, n=4)
    return (q3 - q1) / abs(mid)


def drift(first, second, better):
    """How much worse the second median is than the first, as a share."""
    a, b = statistics.median(first), statistics.median(second)
    return (b - a) / a if better == "lower" else (a - b) / a


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in spec["workloads"]))
    args = parser.parse_args()
    if args.runs < 2:
        parser.error("--runs must be at least 2")
    workloads = args.workloads.split(",")
    metrics = spec["end_to_end"] + UNGATED

    sets = []
    for set_index in range(2):
        values = {w: {m["name"]: [] for m in metrics} for w in workloads}
        for i in range(args.runs):
            order = workloads if i % 2 == 0 else workloads[::-1]
            for workload in order:
                measured = run_once(workload, i + 1, spec["run_seconds"])
                for metric in metrics:
                    values[workload][metric["name"]].append(
                        measured[metric["name"]])
                print(f"set {set_index + 1} run {i + 1}/{args.runs} "
                      f"{workload} done", file=sys.stderr)
        sets.append(values)

    log = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                            ".bench_build"),
                       "steadiness.json")
    os.makedirs(os.path.dirname(log), exist_ok=True)
    with open(log, "w", encoding="utf-8") as f:
        json.dump(sets, f, indent=1)

    failed = []
    for workload in workloads:
        print(f"\n{workload} (2 sets of {args.runs} runs, seeds "
              f"1..{args.runs})")
        print(f"  {'metric':18s} {'median 1':>12s} {'spread 1':>9s} "
              f"{'median 2':>12s} {'spread 2':>9s} {'drift':>8s} "
              f"{'bound':>6s}  verdict")
        for metric in metrics:
            name = metric["name"]
            first, second = (s[workload][name] for s in sets)
            spreads = [spread(first), spread(second)]
            worse = drift(first, second, metric["better"])
            gated = "bound" in metric
            bound = metric["bound"] if gated else LARGEST_BOUND
            problems = []
            if worse > bound:
                problems.append("drift")
            if name != "setup_s" and max(spreads) > bound:
                problems.append("spread")
            if problems:
                verdict = "FAILS on " + " and ".join(problems)
                if gated:
                    failed.append(f"{workload} {name}")
                else:
                    verdict += " (ungated)"
            elif name == "setup_s" or max(spreads) < bound / 3:
                verdict = "steady"
            else:
                verdict = "within bound, spread above a third of it"
            print(f"  {name:18s} {statistics.median(first):12.6g} "
                  f"{spreads[0]:9.2%} {statistics.median(second):12.6g} "
                  f"{spreads[1]:9.2%} {worse:8.2%} "
                  f"{bound if gated else '-':>6}  {verdict}")
    print(f"\nraw values: {log}")
    if failed:
        sys.exit("fails the acceptance check: " + ", ".join(failed))


if __name__ == "__main__":
    main()
