#!/usr/bin/env python3
"""Run vaobench on two checkouts in alternating pairs and compare them.

Usage:
  scripts/vaobench_pairs.py PARENT_DIR CHANGE_DIR --workload wide \
      --seed 1007 --pairs 10 --seconds 12 [--build-root DIR]

Each pair runs `vaobench/run.py` once in each checkout, parent first on even
pairs and change first on odd ones, so a drift in the host's speed does not
favour one side. Each side builds into its own CARGO_TARGET_DIR
(BUILD_ROOT/parent and BUILD_ROOT/change; default BUILD_ROOT is
.bench_build/pairs next to this script's repository).

For every end-to-end metric named in the change's BENCHMARK.json it prints
each run, then per side the median and quartiles, the change's median
against the parent's, the pairs the change won, whether it worsened by more
than the metric's bound, and whether it would count as a claimed gain (won
at least 90% of the pairs, and the median gap exceeds the parent's
interquartile range). Bounds are read from BENCHMARK.json, never copied.

Exit status: 1 when any run was not `"correct": true` with `failed` 0, or
did not finish; 2 when a metric worsened beyond its bound; 0 otherwise.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIDES = ("parent", "change")


def run_once(checkout, build_dir, args):
    """One vaobench run; returns (result dict or None, error text)."""
    command = [sys.executable, os.path.join(checkout, "vaobench", "run.py"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", "0"]
    env = dict(os.environ, CARGO_TARGET_DIR=build_dir)
    run = subprocess.run(command, stdout=subprocess.PIPE,
                         stderr=subprocess.PIPE, text=True, env=env)
    lines = run.stdout.splitlines()
    if run.returncode != 0 or not lines:
        return None, f"exit {run.returncode}: {run.stderr.strip()[-300:]}"
    try:
        return json.loads(lines[-1]), ""
    except json.JSONDecodeError:
        return None, f"unparsable last line: {lines[-1][:200]}"


def quartiles(values):
    """(q1, median, q3), inclusive quartiles; one value repeats itself."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", help="checkout of the parent commit")
    parser.add_argument("change", help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--pairs", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--build-root",
                        default=os.path.join(ROOT, ".bench_build", "pairs"))
    args = parser.parse_args()

    checkouts = {"parent": os.path.abspath(args.parent),
                 "change": os.path.abspath(args.change)}
    with open(os.path.join(checkouts["change"], "BENCHMARK.json"),
              encoding="utf-8") as handle:
        metrics = json.load(handle)["end_to_end"]

    runs = {side: [] for side in SIDES}
    problems = []
    for pair in range(args.pairs):
        order = SIDES if pair % 2 == 0 else SIDES[::-1]
        for side in order:
            build_dir = os.path.join(os.path.abspath(args.build_root), side)
            result, error = run_once(checkouts[side], build_dir, args)
            runs[side].append(result)
            if result is None:
                problems.append(f"pair {pair} {side}: {error}")
            elif result.get("correct") is not True or result.get("failed"):
                problems.append(f"pair {pair} {side}: correct="
                                f"{result.get('correct')} failed="
                                f"{result.get('failed')}")
            print(f"pair {pair} {side} done", file=sys.stderr, flush=True)

    def value(result, name):
        if result is None:
            return math.nan
        return result["metrics"].get(name, {}).get("value", math.nan)

    print(f"workload={args.workload} seed={args.seed} pairs={args.pairs} "
          f"seconds={args.seconds}")
    over_bound = False
    for metric in metrics:
        name, lower = metric["name"], metric["better"] == "lower"
        values = {side: [value(r, name) for r in runs[side]] for side in SIDES}
        print(f"\n{name} ({metric['unit']}, {metric['better']} is better, "
              f"bound {metric['bound']:.0%})")
        for pair in range(args.pairs):
            print(f"  pair {pair}: parent {values['parent'][pair]:.6g}  "
                  f"change {values['change'][pair]:.6g}")
        finite = {side: [v for v in values[side] if not math.isnan(v)]
                  for side in SIDES}
        if not finite["parent"] or not finite["change"]:
            print("  no complete runs")
            continue
        summary = {side: quartiles(finite[side]) for side in SIDES}
        for side in SIDES:
            q1, median, q3 = summary[side]
            print(f"  {side:6s} median {median:.6g}  [q1 {q1:.6g}, "
                  f"q3 {q3:.6g}]")
        parent_q1, parent_median, parent_q3 = summary["parent"]
        change_median = summary["change"][1]
        wins = sum(1 for p, c in zip(values["parent"], values["change"])
                   if (c < p if lower else c > p))
        gap = parent_median - change_median if lower else \
            change_median - parent_median
        worse = -gap / parent_median if parent_median else 0.0
        ratio = change_median / parent_median if parent_median else math.nan
        exceeds = worse > metric["bound"]
        over_bound = over_bound or exceeds
        gain = wins >= 0.9 * args.pairs and gap > parent_q3 - parent_q1
        print(f"  change/parent {ratio:.4f}  worse by {worse:+.1%} "
              f"({'OVER BOUND' if exceeds else 'within bound'})  "
              f"wins {wins}/{args.pairs}  "
              f"gain {'yes' if gain else 'no'} (gap {gap:.6g} vs parent "
              f"IQR {parent_q3 - parent_q1:.6g})")

    if problems:
        print("\nruns that were not correct:")
        for line in problems:
            print("  " + line)
        return 1
    print("\nevery run correct with failed 0")
    return 2 if over_bound else 0


if __name__ == "__main__":
    sys.exit(main())
