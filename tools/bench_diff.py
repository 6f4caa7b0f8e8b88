#!/usr/bin/env python3
"""Compare two sam-campaign JSON files and flag cycle regressions.

Usage:
    tools/bench_diff.py BASELINE.json CURRENT.json [--threshold PCT]

Both files must be `sam-campaign-v1` documents. samcampaign writes
them, and so do the bench drivers when SAM_BENCH_JSON is set; both
use the one writer in src/runner/figures.hh. Runs are matched by their
`id`. A run whose cycle count grew by more than the threshold
(default 5%) is a regression; a run present in the baseline but missing
from the current file is also an error, since silently dropping a
campaign point would hide a regression. Newly added runs are reported
but never fail the diff.

Exit status: 0 when clean, 1 on regression or missing run, 2 on usage
or schema errors.
"""

import argparse
import json
import sys


SCHEMA = "sam-campaign-v1"


def die(msg):
    """Schema/usage error: diagnostic on stderr, exit status 2."""
    print(f"bench_diff: {msg}", file=sys.stderr)
    sys.exit(2)


def numeric_cycles(path, run_id, run):
    cycles = run.get("cycles")
    # bool is an int subclass; `"cycles": true` is still a typo.
    if isinstance(cycles, bool) or not isinstance(cycles, (int, float)):
        die(f"{path}: run {run_id!r}: cycles is {cycles!r}, "
            f"expected a number")
    return cycles


def load_campaign(path, *, is_baseline=False):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        die(f"cannot read {path}: {exc}")
    if not isinstance(doc, dict):
        die(f"{path}: top level is {type(doc).__name__}, "
            f"expected an object")
    if doc.get("schema") != SCHEMA:
        die(f"{path}: expected schema {SCHEMA!r}, "
            f"got {doc.get('schema')!r}")
    raw_runs = doc.get("runs", [])
    if not isinstance(raw_runs, list):
        die(f"{path}: 'runs' is {type(raw_runs).__name__}, "
            f"expected a list")
    if is_baseline and not raw_runs:
        die(f"{path}: baseline has no runs -- an empty baseline "
            f"would vacuously pass every diff; refresh it")
    runs = {}
    for run in raw_runs:
        if not isinstance(run, dict):
            die(f"{path}: run entry is {type(run).__name__}, "
                f"expected an object")
        run_id = run.get("id")
        if not run_id:
            die(f"{path}: run without an id")
        if run_id in runs:
            die(f"{path}: duplicate run id {run_id!r}")
        numeric_cycles(path, run_id, run)
        runs[run_id] = run
    return doc, runs


def main():
    parser = argparse.ArgumentParser(
        description="flag cycle regressions between two campaign files")
    parser.add_argument("baseline", help="committed baseline JSON")
    parser.add_argument("current", help="freshly produced JSON")
    parser.add_argument("--threshold", type=float, default=5.0,
                        help="regression threshold in percent "
                             "(default: %(default)s)")
    args = parser.parse_args()
    if args.threshold < 0:
        die(f"threshold must be >= 0, got {args.threshold:g}")

    base_doc, base_runs = load_campaign(args.baseline, is_baseline=True)
    cur_doc, cur_runs = load_campaign(args.current)

    base_scale = base_doc.get("scale")
    cur_scale = cur_doc.get("scale")
    if base_scale != cur_scale:
        die(f"scale mismatch: baseline is {base_scale!r}, current is "
            f"{cur_scale!r} -- cycle counts are not comparable")

    regressions = []
    improvements = []
    skipped = []
    missing = sorted(set(base_runs) - set(cur_runs))
    added = sorted(set(cur_runs) - set(base_runs))

    for run_id in sorted(set(base_runs) & set(cur_runs)):
        base_cycles = base_runs[run_id]["cycles"]
        cur_cycles = cur_runs[run_id]["cycles"]
        if base_cycles <= 0:
            # A zero-cycle baseline run never executed; a percentage
            # against it is meaningless, but hide nothing.
            skipped.append(run_id)
            continue
        delta_pct = 100.0 * (cur_cycles - base_cycles) / base_cycles
        entry = (run_id, base_cycles, cur_cycles, delta_pct)
        if delta_pct > args.threshold:
            regressions.append(entry)
        elif delta_pct < -args.threshold:
            improvements.append(entry)

    name = cur_doc.get("campaign", "?")
    compared = len(set(base_runs) & set(cur_runs))
    print(f"bench_diff: campaign {name!r}: {compared} runs compared, "
          f"threshold {args.threshold:g}%")

    for run_id, base_c, cur_c, pct in sorted(
            regressions, key=lambda e: -e[3]):
        print(f"  REGRESSION {run_id}: {base_c} -> {cur_c} cycles "
              f"({pct:+.2f}%)")
    for run_id, base_c, cur_c, pct in sorted(
            improvements, key=lambda e: e[3]):
        print(f"  improved   {run_id}: {base_c} -> {cur_c} cycles "
              f"({pct:+.2f}%)")
    for run_id in skipped:
        print(f"  skipped    {run_id}: non-positive baseline cycle "
              f"count, percentage undefined")
    for run_id in missing:
        print(f"  MISSING    {run_id}: in baseline but not in current")
    for run_id in added:
        print(f"  new        {run_id}: not in baseline "
              f"(refresh the baseline to track it)")

    if regressions or missing:
        print(f"bench_diff: FAIL ({len(regressions)} regression(s), "
              f"{len(missing)} missing run(s))")
        return 1
    print("bench_diff: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
