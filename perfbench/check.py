#!/usr/bin/env python3
"""The benchmark's own check, run from the repository root:

    python3 perfbench/check.py [--seeds 1,2] [--seconds 10] [--workload NAME ...]

For every workload it makes three traced runs: two of the first seed and
one of the second. It fails (exit 1) unless

- every run is correct;
- every exact count repeats bit for bit across the two runs of one seed;
- each run keeps its workload's shape, judged by counts: sparse-pass2 has
  |C2| at least 50 times the frequent itemsets, dense-deep at least 10
  passes and more than 10^5 rules, sim-p64 a virtual time for CD, IDD
  and HD;
- the trace confirms each workload's reason: on sparse-pass2 pass-2
  counting is at least 90% of the serial mine, on dense-deep rule
  generation takes longer than all counter work.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Exact values: the same seed must reproduce them bit for bit.
EXACT_PREFIXES = ("apriori.", "counter.", "rules.count", "io.input_mib")
EXACT_SUFFIXES = (".bytes", ".messages", ".virtual_s")


def is_exact(name):
    timed = name.endswith("_s") and not name.endswith(".virtual_s")
    return not timed and (name.startswith(EXACT_PREFIXES) or name.endswith(EXACT_SUFFIXES))


def traced_run(workload, seed, seconds):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True,
    )
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or len(lines) < 2:
        sys.stderr.write(out.stderr)
        raise SystemExit(f"{workload} seed {seed}: benchmark exited {out.returncode}")
    result = json.loads(lines[-1])
    context = json.loads(lines[-2])["context"]
    return result, {k: v["value"] for k, v in result["metrics"].items()}, context


def shape_problems(workload, m):
    serial_mine = sum(m[k] for k in (
        "apriori.pass1_s", "apriori.gen_s", "counter.build_s",
        "counter.count_k2_s", "counter.count_k3plus_s", "counter.extract_s"))
    counter_total = sum(m[k] for k in (
        "counter.build_s", "counter.count_k2_s", "counter.count_k3plus_s",
        "counter.extract_s"))
    checks = {
        "sparse-pass2": [
            ("|C2| >= 50 x frequent", m["apriori.candidates_k2"] >= 50 * m["apriori.frequent"]),
            ("pass-2 counting >= 90% of the serial mine",
             m["counter.count_k2_s"] >= 0.9 * serial_mine),
        ],
        "dense-deep": [
            (">= 10 passes", m["apriori.passes"] >= 10),
            ("> 1e5 rules", m["rules.count"] > 1e5),
            ("rules.serial_s > counter total", m["rules.serial_s"] > counter_total),
        ],
        "sim-p64": [
            (f"mpsim.{a}.virtual_s reported", m.get(f"mpsim.{a}.virtual_s", 0) > 0)
            for a in ("cd", "idd", "hd")
        ],
    }[workload]
    return [name for name, ok in checks if not ok]


def main():
    ap = argparse.ArgumentParser(description="the benchmark's own check")
    ap.add_argument("--seeds", default="1,2")
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--workload", action="append")
    args = ap.parse_args()
    first, second = (int(s) for s in args.seeds.split(","))
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        names = [w["name"] for w in json.load(f)["workloads"]]
    problems = []
    for workload in args.workload or names:
        runs = [traced_run(workload, seed, args.seconds) for seed in (first, first, second)]
        for (result, metrics, context), seed in zip(runs, (first, first, second)):
            label = f"{workload} seed {seed}"
            if not result["correct"]:
                problems.append(f"{label}: not correct")
            problems += [f"{label}: {p}" for p in shape_problems(workload, metrics)]
            print(f"{label}: shape {context['shape']}")
        a, b = runs[0][1], runs[1][1]
        for name in sorted(k for k in a if is_exact(k)):
            if a[name] != b[name]:
                problems.append(f"{workload}: {name} differs across runs of seed {first}: "
                                f"{a[name]} vs {b[name]}")
    for p in problems:
        print("FAIL", p)
    print("ok" if not problems else f"{len(problems)} problem(s)")
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
