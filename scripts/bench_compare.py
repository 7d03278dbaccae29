#!/usr/bin/env python3
"""Compare fresh bench JSON output against a committed baseline.

Usage:
  scripts/bench_compare.py BASELINE.json FRESH.json [FRESH2.json ...]

Every bench writes {"title": ..., "rows": [{field: value, ...}, ...]}.
Fields are split by name:

  * timing fields (wall clock, speedups, seconds, overhead percentages) are
    noisy, so the best of the N fresh runs (min for times, max for speedups)
    is flagged when it falls outside +/- BAND of the baseline. Flags are
    printed but never fail the comparison.
  * every other field -- work units, spends, answers, counts -- is
    deterministic and must match the baseline exactly. Any mismatch, a
    missing field or a different row count fails (exit 1).

A change that is meant to move work re-baselines by copying the fresh JSON
over the baseline and quoting the before/after in CHANGES.md.
"""

import argparse
import json
import re
import sys

# Timing-like field names: measured, not derived from work units.
TIMING = re.compile(r"(wall|speedup|seconds|_s$|_ms$|_ns$|overhead|per_s)")
HIGHER_IS_BETTER = re.compile(r"(speedup|per_s)")
# Relative noise band around the baseline for timing fields.
BAND = 0.25


def load(path):
    with open(path, encoding="utf-8") as handle:
        data = json.load(handle)
    if not isinstance(data, dict) or not isinstance(data.get("rows"), list):
        raise ValueError(f"{path}: expected an object with a 'rows' list")
    return data


def is_timing(field):
    return bool(TIMING.search(field))


def best_of(field, values):
    numbers = [v for v in values if isinstance(v, (int, float))]
    if not numbers:
        return values[0]
    return max(numbers) if HIGHER_IS_BETTER.search(field) else min(numbers)


def compare(baseline, fresh_runs):
    """Returns (failures, flags) as lists of human-readable lines."""
    failures = []
    flags = []
    base_rows = baseline["rows"]
    for index, run in enumerate(fresh_runs):
        if len(run["rows"]) != len(base_rows):
            failures.append(
                f"run {index}: {len(run['rows'])} rows, baseline has "
                f"{len(base_rows)}")
    if failures:
        return failures, flags

    for r, base_row in enumerate(base_rows):
        for field, base_value in base_row.items():
            values = [run["rows"][r].get(field) for run in fresh_runs]
            where = f"row {r} {field}"
            if any(v is None for v in values):
                failures.append(f"{where}: missing in a fresh run")
                continue
            if is_timing(field):
                best = best_of(field, values)
                if (isinstance(best, (int, float))
                        and isinstance(base_value, (int, float))
                        and base_value != 0
                        and abs(best - base_value) > BAND * abs(base_value)):
                    flags.append(f"{where}: best {best} vs baseline "
                                 f"{base_value} (outside +/-{BAND:.0%})")
                continue
            for run_index, value in enumerate(values):
                if value != base_value:
                    failures.append(f"{where}: run {run_index} has {value}, "
                                    f"baseline {base_value}")
        for field in fresh_runs[0]["rows"][r]:
            if field not in base_row:
                failures.append(f"row {r} {field}: not in the baseline")
    return failures, flags


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline")
    parser.add_argument("fresh", nargs="+")
    args = parser.parse_args(argv)

    baseline = load(args.baseline)
    fresh_runs = [load(path) for path in args.fresh]
    failures, flags = compare(baseline, fresh_runs)
    title = baseline.get("title", args.baseline)
    for line in flags:
        print(f"FLAG {title}: {line}")
    for line in failures:
        print(f"FAIL {title}: {line}")
    if failures:
        return 1
    print(f"OK {title}: deterministic fields match "
          f"({len(baseline['rows'])} rows, {len(fresh_runs)} run(s), "
          f"{len(flags)} timing flag(s))")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
