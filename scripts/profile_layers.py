#!/usr/bin/env python3
"""Folds a gprof flat profile by source layer into BENCH_profile.json.

The layer of a function is the namespace right below `flex::` (`ftl`,
`ssd`, `reliability`, `flexlevel`, `telemetry`, ...); functions declared
directly in `flex::` belong to `common`, and everything outside `flex::`
(the C++ standard library, libc, `main`) to `other`. Only self time is
folded: a flat profile has no inclusive times.

Usage, from the repository root, with a FLEX_PROFILE build tree:

    cmake -B build-pg -S . -DFLEX_PROFILE=ON
    cmake --build build-pg -j --target fig6a_response_time
    python3 scripts/profile_layers.py --build-dir build-pg \\
        --out BENCH_profile.json

This runs `fig6a_response_time 20000 --jobs 1` in a temporary directory
(gprof samples only the main thread, so the run is serial) and folds
`gprof -b -p` over its gmon.out.
"""

import argparse
import json
import os
import re
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = "fig6a_response_time"
REQUESTS = 20000
# Layers reported even when they drew no samples.
NAMED_LAYERS = ("ftl", "ssd", "reliability", "flexlevel", "telemetry",
                "common")
TOP_FUNCTIONS = 5

# `operator<`, `operator()` and friends would confuse the bracket scan.
OPERATOR = re.compile(r"operator\s*(<=>|<<=|>>=|<<|>>|<=|>=|->\*|->|\(\)|"
                      r"\[\]|[<>]|[^\s(]+)")


def sub_namespaces():
    """Namespaces below flex::: one per src/ directory, plus the benches."""
    names = {d for d in os.listdir(os.path.join(ROOT, "src"))
             if os.path.isdir(os.path.join(ROOT, "src", d))}
    names.discard("common")  # src/common declares into flex:: itself
    return names | {"bench"}


def qualified_name(name):
    """The function's qualified name: the last top-level token before the
    top-level parameter list (drops any return type and template
    arguments nested in it)."""
    # Mask brackets that are not nesting, keeping every offset in place.
    text = OPERATOR.sub(lambda m: "operator" + "@" * (len(m.group(0)) - 8),
                        name)
    text = text.replace("(anonymous namespace)", "{anonymous namespace}")
    depth = 0
    start = 0
    for i, ch in enumerate(text):
        if ch in "<[{":
            depth += 1
        elif ch in ">]}":
            depth -= 1
        elif depth == 0 and ch == " ":
            start = i + 1
        elif depth == 0 and ch == "(":
            return name[start:i]
    return name[start:]


def layer_of(name, namespaces):
    qualified = qualified_name(name)
    if not qualified.startswith("flex::"):
        return "other"
    head = qualified[len("flex::"):].split("::", 1)
    if len(head) == 2 and head[0] in namespaces:
        return head[0]
    return "common"


def parse_flat(text):
    """Yields (self_seconds, calls, name) rows of a `gprof -b -p` listing."""
    rows = []
    for line in text.splitlines():
        fields = line.split(None, 3)
        if len(fields) < 4:
            continue
        try:
            float(fields[0])
            float(fields[1])
            self_s = float(fields[2])
        except ValueError:
            continue  # header or blank
        rest = fields[3].split(None, 3)
        # With call counts: calls, self/call, total/call, name.
        if len(rest) == 4 and all(re.fullmatch(r"[\d.]+", f)
                                  for f in rest[:3]):
            rows.append((self_s, int(rest[0]), rest[3]))
        else:
            rows.append((self_s, None, fields[3]))
    return rows


def fold(rows):
    namespaces = sub_namespaces()
    layers = {name: {"self_s": 0.0, "functions": 0, "top": []}
              for name in NAMED_LAYERS}
    for self_s, calls, name in rows:
        layer = layers.setdefault(layer_of(name, namespaces),
                                  {"self_s": 0.0, "functions": 0, "top": []})
        layer["self_s"] += self_s
        layer["functions"] += 1
        layer["top"].append({"name": qualified_name(name), "self_s": self_s,
                             "calls": calls})
    total = sum(layer["self_s"] for layer in layers.values())
    out = []
    for name, layer in layers.items():
        top = sorted(layer["top"], key=lambda f: -f["self_s"])
        out.append({"layer": name,
                    "self_s": round(layer["self_s"], 4),
                    "share": round(layer["self_s"] / total, 4)
                    if total > 0 else 0.0,
                    "functions": layer["functions"],
                    "top": top[:TOP_FUNCTIONS]})
    out.sort(key=lambda layer: (-layer["self_s"], layer["layer"]))
    return round(total, 4), out


def run_profile(build_dir):
    binary = os.path.abspath(os.path.join(build_dir, "bench", BENCH))
    if not os.access(binary, os.X_OK):
        sys.exit(f"{binary} not found: build it with -DFLEX_PROFILE=ON")
    with tempfile.TemporaryDirectory() as work:
        subprocess.run([binary, str(REQUESTS), "--jobs", "1"], cwd=work,
                       stdout=subprocess.DEVNULL, check=True)
        gmon = os.path.join(work, "gmon.out")
        if not os.path.isfile(gmon):
            sys.exit(f"{BENCH} wrote no gmon.out: was it built with "
                     "-DFLEX_PROFILE=ON?")
        return subprocess.run(["gprof", "-b", "-p", binary, gmon],
                              stdout=subprocess.PIPE, text=True,
                              check=True).stdout


def git_sha():
    done = subprocess.run(["git", "describe", "--always", "--dirty",
                           "--abbrev=7"], cwd=ROOT,
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True, check=False)
    return done.stdout.strip() or "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--build-dir", required=True,
                        help="FLEX_PROFILE build tree")
    parser.add_argument("--out", default="BENCH_profile.json")
    args = parser.parse_args()

    rows = parse_flat(run_profile(args.build_dir))
    if not rows:
        sys.exit("no flat-profile rows found")
    total, layers = fold(rows)
    doc = {"bench": "profile", "git_sha": git_sha(), "command": f"{BENCH} {REQUESTS} --jobs 1",
           "sampled_s": total, "layers": layers}
    with open(args.out, "w", encoding="utf-8") as f:
        json.dump(doc, f, indent=1)
        f.write("\n")
    for layer in layers:
        print(f"{layer['layer']:<12} {layer['self_s']:9.3f} s "
              f"{100 * layer['share']:6.2f}%")


if __name__ == "__main__":
    main()
