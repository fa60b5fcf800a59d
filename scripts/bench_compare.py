#!/usr/bin/env python3
"""Diff two BENCH_<tag>.json files and flag regressions.

Every bench binary persists its rows as BENCH_<tag>.json (see
bench/bench_common.hpp). This script compares a baseline file against a
candidate file row by row and reports per-column relative changes. A change
larger than the threshold (default 10%) in the *bad* direction counts as a
regression; the direction is inferred from the column name:

  higher is better:  *_per_sec, speedup, *ratio*, greedy, ps, filtering,
                     sample_solve, dual_primal
  lower is better:   *seconds*, *_err, max_err, stored, frac, oracle_calls,
                     conv_round, total_rounds, p50, p95, p99,
                     sim_rounds_ratio, bytes_per_edge, stall_share,
                     peak_resident

Exact names win over substrings, so sim_rounds_ratio gates lower-is-better
even though generic "*ratio*" columns gate higher-is-better.

Columns with no known direction (n, m, eps, ...) are treated as row keys /
informational and never flagged.

Usage:
  scripts/bench_compare.py BASELINE.json CANDIDATE.json [--threshold 0.10]
  scripts/bench_compare.py --no-fail ...   # report only, always exit 0

Exit status: 1 if any regression was flagged, or if a column named by
--columns is missing from either file (a gate on a column that is not
there would pass vacuously); 0 otherwise, and always 0 with --no-fail.
"""

import argparse
import json
import sys

# Exact column names (short names like "ps" must not substring-match
# parameter columns like "eps"). Exact names take precedence over the
# substring rules below, which is how a lower-is-better ratio column
# ("sim_rounds_ratio": executed simulator rounds / sampling rounds) gates
# in the right direction without flipping the higher-is-better ratio /
# speedup columns that the substring rule serves.
EXACT_HIGHER = {"speedup", "greedy", "ps", "filtering", "sample_solve",
                "dual_primal"}
EXACT_LOWER = {"stored", "frac", "max_err", "oracle_calls", "conv_round",
               "total_rounds", "p50", "p95", "p99", "sim_rounds_ratio",
               "bytes_per_edge", "stall_share", "peak_resident"}
# Unambiguous substrings for derived metric names.
SUBSTR_HIGHER = ("_per_sec", "ratio")
SUBSTR_LOWER = ("seconds", "_err")


def direction(column):
    """-1 = lower is better, +1 = higher is better, 0 = informational."""
    name = column.lower()
    if name in EXACT_HIGHER:
        return 1
    if name in EXACT_LOWER:
        return -1
    for pat in SUBSTR_HIGHER:
        if pat in name:
            return 1
    for pat in SUBSTR_LOWER:
        if pat in name:
            return -1
    return 0


def load(path):
    with open(path, "r", encoding="utf-8") as f:
        data = json.load(f)
    for key in ("bench", "columns", "rows"):
        if key not in data:
            raise ValueError(f"{path}: missing '{key}'")
    return data


def main():
    parser = argparse.ArgumentParser(
        description="Diff two BENCH_*.json files and flag regressions.")
    parser.add_argument("baseline")
    parser.add_argument("candidate")
    parser.add_argument("--threshold", type=float, default=0.10,
                        help="relative change that counts as a regression "
                             "(default 0.10 = 10%%)")
    parser.add_argument("--no-fail", action="store_true",
                        help="always exit 0, report only")
    parser.add_argument("--columns", default=None,
                        help="comma-separated list of metric columns to "
                             "compare (default: all); useful in CI to gate "
                             "only machine-relative metrics like 'speedup'")
    args = parser.parse_args()

    base = load(args.baseline)
    cand = load(args.candidate)
    if base["bench"] != cand["bench"]:
        print(f"warning: comparing different benches "
              f"('{base['bench']}' vs '{cand['bench']}')")

    # A metric present in only one snapshot is reported as added/removed
    # (not an error unless --columns gates it): the common columns still
    # compare, matched by name.
    base_idx = {col: c for c, col in enumerate(base["columns"])}
    cand_idx = {col: c for c, col in enumerate(cand["columns"])}
    removed = [col for col in base["columns"] if col not in cand_idx]
    added = [col for col in cand["columns"] if col not in base_idx]
    for col in removed:
        print(f"removed: [{base['bench']}] column '{col}' is only in the "
              f"baseline; skipping it")
    for col in added:
        print(f"added: [{base['bench']}] column '{col}' is only in the "
              f"candidate; skipping it")
    columns = [col for col in base["columns"] if col in cand_idx]
    missing = []
    if args.columns is not None:
        wanted = [c.strip() for c in args.columns.split(",") if c.strip()]
        for col in wanted:
            absent = [name for name, idx in (("baseline", base_idx),
                                             ("candidate", cand_idx))
                      if col not in idx]
            if absent:
                missing.append(col)
                print(f"error: [{base['bench']}] gated column '{col}' is "
                      f"missing from the {' and '.join(absent)}")
        columns = [col for col in columns
                   if col in wanted or direction(col) == 0]
    if not columns:
        print("warning: no common columns; nothing to compare")

    rows = min(len(base["rows"]), len(cand["rows"]))
    if len(base["rows"]) != len(cand["rows"]):
        print(f"warning: row counts differ "
              f"({len(base['rows'])} vs {len(cand['rows'])}); "
              f"comparing the first {rows}")

    regressions = 0
    improvements = 0
    for r in range(rows):
        brow, crow = base["rows"][r], cand["rows"][r]
        key = ", ".join(
            f"{col}={brow[base_idx[col]]:g}" for col in columns
            if direction(col) == 0 and base_idx[col] < len(brow))
        for col in columns:
            sense = direction(col)
            bc, cc = base_idx[col], cand_idx[col]
            if sense == 0 or bc >= len(brow) or cc >= len(crow):
                continue
            old, new = brow[bc], crow[cc]
            if old == 0:
                continue
            change = (new - old) / abs(old)
            if abs(change) <= args.threshold:
                continue
            worse = (sense > 0) == (change < 0)
            tag = "REGRESSION" if worse else "improvement"
            if worse:
                regressions += 1
            else:
                improvements += 1
            print(f"{tag}: [{base['bench']}] row {r} ({key}) {col}: "
                  f"{old:g} -> {new:g} ({change:+.1%})")

    print(f"{base['bench']}: {regressions} regression(s), "
          f"{improvements} improvement(s) beyond "
          f"{args.threshold:.0%} across {rows} row(s)")
    return 1 if (regressions or missing) and not args.no_fail else 0


if __name__ == "__main__":
    sys.exit(main())
