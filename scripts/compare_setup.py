#!/usr/bin/env python3
"""Set-up time gate against a same-machine parent run.

setup_s spreads 8-21% between runs of one commit, and one machine's speed
is not another's, so it cannot be gated against a committed number. This
script instead builds the parent (the merge-base with the target
branch) in a temporary `git worktree`, then runs perfbench/run.py on
parent and change in 5 alternating pairs on the same machine, and fails
when the change's median setup_s exceeds the parent's by more than the
setup_s bound in the parent's BENCHMARK.json (the change cannot loosen
the gate that checks it).

Usage, from the repository root of a checkout with full history:

    python3 scripts/compare_setup.py --workload qos-mixed

The parent builds into its own $CARGO_TARGET_DIR under a temporary
directory, which is removed afterwards along with the worktree; the
change uses run.py's usual build directory. Exits 0 when every workload
is within the bound, 1 otherwise.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("fig6a-grid", "read-steady", "qos-mixed")
PAIRS = 5
SECONDS = 2
SEED = 2015


def git(*args):
    return subprocess.run(["git", *args], cwd=ROOT, check=True,
                          stdout=subprocess.PIPE, text=True).stdout.strip()


def parent_commit():
    """The merge-base with the target branch; on that branch itself
    (a push), the first parent of HEAD."""
    target = "origin/" + (os.environ.get("GITHUB_BASE_REF") or "main")
    head = git("rev-parse", "HEAD")
    base = git("merge-base", "HEAD", target)
    return git("rev-parse", "HEAD^") if base == head else base


def setup_s(tree, env, workload):
    """One run.py call in `tree`; returns its setup_s."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(SEED), "--seconds", str(SECONDS), "--trace", "0"],
        cwd=tree, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True, check=False)
    if done.returncode != 0:
        sys.stdout.write(done.stdout)
        raise SystemExit(f"run.py failed in {tree} on {workload}")
    last = done.stdout.strip().splitlines()[-1]
    return json.loads(last)["metrics"]["setup_s"]["value"]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=WORKLOADS,
                        help="repeatable; default: all three")
    args = parser.parse_args()

    base_sha = git("rev-parse", parent_commit())
    scratch = tempfile.mkdtemp(prefix="compare_setup.")
    tree = os.path.join(scratch, "parent")
    git("worktree", "add", "--detach", tree, base_sha)
    failed = []
    try:
        with open(os.path.join(tree, "BENCHMARK.json"),
                  encoding="utf-8") as f:
            bound = next(m["bound"] for m in json.load(f)["end_to_end"]
                         if m["name"] == "setup_s")
        sides = {"parent": (tree, dict(os.environ, CARGO_TARGET_DIR=
                                       os.path.join(scratch, "build"))),
                 "change": (ROOT, os.environ)}
        for workload in args.workload or WORKLOADS:
            runs = {"parent": [], "change": []}
            for pair in range(PAIRS):
                # Alternate which side goes first so drift in machine
                # speed over the series falls on both equally.
                order = ("parent", "change") if pair % 2 == 0 else (
                    "change", "parent")
                for side in order:
                    runs[side].append(setup_s(*sides[side], workload))
            parent = statistics.median(runs["parent"])
            change = statistics.median(runs["change"])
            limit = parent * (1 + bound)
            verdict = "ok" if change <= limit else "FAIL"
            print(f"{workload}: setup_s median parent {parent:.3f} s "
                  f"(runs {', '.join(f'{v:.3f}' for v in runs['parent'])}), "
                  f"change {change:.3f} s "
                  f"(runs {', '.join(f'{v:.3f}' for v in runs['change'])}), "
                  f"{change / parent - 1:+.1%}, limit {limit:.3f} s "
                  f"(+{bound:.0%}): {verdict}")
            if change > limit:
                failed.append(workload)
    finally:
        git("worktree", "remove", "--force", tree)
        shutil.rmtree(scratch, ignore_errors=True)
    print(f"parent {base_sha[:12]}, {PAIRS} alternating pairs at "
          f"--seconds {SECONDS} --seed {SEED}")
    if failed:
        print(f"setup_s regressed beyond +{bound:.0%} on: {', '.join(failed)}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
