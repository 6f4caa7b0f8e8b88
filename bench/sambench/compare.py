#!/usr/bin/env python3
"""Compare two sambench reports against the BENCHMARK.json bounds.

Usage:
    python3 bench/sambench/compare.py A.json B.json [--seed-out PATH]

A is the parent commit, B the change. Each is a report written by
run.py (`--report R --append` collects one run per invocation), or
`FILE:N` for set N of a seed file such as results/seed.json. Collect
the two sides in alternating order (A, B, B, A, ...) so run i of A and
run i of B form a pair.

For every workload (one row each) and end-to-end metric:
  regressed   B's median is worse than A's by more than the bound
  improved    at least 10 pairs, B wins at least 9 in 10 of them (ties
              count for neither), and the medians differ by more than
              A's quartile spread
  unresolved  a side's spread (q3 - q1) / median exceeds the bound and
              B does not beat every run of A
  ok          otherwise: within the bound
It also checks that sim_digest matches on every seed both sides ran (on
every seed, for workloads whose digest ignores the seed) and that B
fails no more runs than A, and lists per-layer medians of traced runs.

--seed-out writes both reports and the agreement table as one seed
file (the format of results/seed.json).

Exit status: 0 when nothing regressed and the digest and failure checks
hold, 1 otherwise, 2 on usage errors.
"""

import argparse
import json
import os
import statistics
import sys

BENCH_PATH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__)))), "BENCHMARK.json")


def load_report(spec):
    path, _, index = spec.rpartition(":")
    if not path or not index.isdigit():
        path, index = spec, None
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    if index is not None:
        return doc["sets"][int(index)]
    return doc


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def better(x, y, direction):
    """True when x reads better than y."""
    return x < y if direction == "lower" else x > y


def metric_row(a, b, metric):
    """Verdict for one metric; a and b are per-run values in run order."""
    bound, direction = metric["bound"], metric["better"]
    qa, qb = quartiles(a), quartiles(b)
    med_a, med_b = qa[1], qb[1]
    change = (med_b - med_a) / med_a
    worse = change if direction == "lower" else -change
    spread_a = (qa[2] - qa[0]) / med_a
    spread_b = (qb[2] - qb[0]) / med_b
    pairs = min(len(a), len(b))
    wins = sum(better(b[i], a[i], direction) for i in range(pairs))
    beats_all = all(better(y, x, direction) for x in a for y in b)
    if worse > bound:
        verdict = "regressed"
    elif (pairs >= 10 and wins >= 0.9 * pairs
          and better(med_b, med_a, direction)
          and abs(med_b - med_a) > qa[2] - qa[0]):
        verdict = "improved"
    elif max(spread_a, spread_b) > bound and not beats_all:
        verdict = "unresolved"
    else:
        verdict = "ok"
    return {"verdict": verdict, "median_a": med_a, "median_b": med_b,
            "q_a": [qa[0], qa[2]], "q_b": [qb[0], qb[2]],
            "change": change, "spread_a": spread_a, "spread_b": spread_b,
            "bound": bound, "pairs": pairs, "wins": wins}


def digest_problems(runs_a, runs_b):
    problems = []
    seed_free = any(r.get("digest_seed_free") for r in runs_a + runs_b)
    digests = {}
    for side, runs in (("A", runs_a), ("B", runs_b)):
        for r in runs:
            key = "any seed" if seed_free else f"seed {r['seed']}"
            digests.setdefault(key, {}).setdefault(side, set()).add(
                r["sim_digest"])
    for key, sides in sorted(digests.items()):
        if len(sides) == 2:
            values = sides["A"] | sides["B"]
            if len(values) > 1:
                problems.append(f"sim_digest differs ({key}): "
                                + " ".join(sorted(values)))
    return problems


def compare(rep_a, rep_b, bench):
    """Per-workload verdicts; result["ok"] is the exit condition."""
    result = {"ok": True, "workloads": {}}
    shared = [w for w in rep_a["workloads"] if w in rep_b["workloads"]]
    for name in shared:
        wa, wb = rep_a["workloads"][name], rep_b["workloads"][name]
        entry = {"metrics": {}, "problems": [], "layers": {}}
        runs_a, runs_b = wa.get("runs", []), wb.get("runs", [])
        if runs_a and runs_b:
            for metric in bench["end_to_end"]:
                m = metric["name"]
                entry["metrics"][m] = metric_row(
                    [r["metrics"][m] for r in runs_a],
                    [r["metrics"][m] for r in runs_b], metric)
            failed_a = sum(r["failed"] for r in runs_a)
            failed_b = sum(r["failed"] for r in runs_b)
            if failed_b > failed_a:
                entry["problems"].append(
                    f"B failed {failed_b} run(s), A {failed_a}")
            entry["problems"] += digest_problems(runs_a, runs_b)
        traced_a, traced_b = wa.get("traced", []), wb.get("traced", [])
        if traced_a and traced_b:
            for metric in bench["per_layer"]:
                m = metric["name"]
                entry["layers"][m] = [
                    statistics.median(r["metrics"][m] for r in traced_a),
                    statistics.median(r["metrics"][m] for r in traced_b)]
        if entry["problems"] or any(
                row["verdict"] == "regressed"
                for row in entry["metrics"].values()):
            result["ok"] = False
        result["workloads"][name] = entry
    return result


def render(result, bench):
    names = [m["name"] for m in bench["end_to_end"]]
    lines = ["workload        " + "".join(f"{n:>22}" for n in names)]
    for name, entry in result["workloads"].items():
        cells = []
        for n in names:
            row = entry["metrics"].get(n)
            cells.append(f"{row['change'] * 100:+7.1f}% {row['verdict']:>12}"
                         if row else f"{'-':>22}")
        lines.append(f"{name:<16}" + "".join(f"{c:>22}" for c in cells))
    for name, entry in result["workloads"].items():
        lines.append(f"\n== {name} ==")
        for n, row in entry["metrics"].items():
            lines.append(
                f"  {n:<16} A {row['median_a']:.4f} "
                f"[{row['q_a'][0]:.4f}, {row['q_a'][1]:.4f}]  "
                f"B {row['median_b']:.4f} "
                f"[{row['q_b'][0]:.4f}, {row['q_b'][1]:.4f}]  "
                f"spread {row['spread_a'] * 100:.1f}%/"
                f"{row['spread_b'] * 100:.1f}% bound "
                f"{row['bound'] * 100:.0f}%  B won {row['wins']}/"
                f"{row['pairs']}  {row['verdict']}")
        for p in entry["problems"]:
            lines.append(f"  PROBLEM: {p}")
        for n, (a, b) in entry["layers"].items():
            delta = f"{(b - a) / a * 100:+.1f}%" if a else "n/a"
            lines.append(f"  layer {n:<36} A {a:.4f}  B {b:.4f}  {delta}")
    lines.append("\nverdict: " + ("OK" if result["ok"] else "FAIL"))
    return "\n".join(lines)


def main(argv):
    ap = argparse.ArgumentParser(
        description="Compare two sambench reports (A = parent, B = change).")
    ap.add_argument("a")
    ap.add_argument("b")
    ap.add_argument("--seed-out", help="write both reports as a seed file")
    args = ap.parse_args(argv)
    try:
        rep_a, rep_b = load_report(args.a), load_report(args.b)
        with open(BENCH_PATH, encoding="utf-8") as fh:
            bench = json.load(fh)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        print(f"compare: {exc}", file=sys.stderr)
        return 2
    result = compare(rep_a, rep_b, bench)
    print(render(result, bench))
    if args.seed_out:
        seed = {"schema": "sambench-seed-v1", "commit": rep_a.get("commit"),
                "nproc": rep_a.get("nproc"), "sets": [rep_a, rep_b],
                "agreement": result}
        with open(args.seed_out, "w", encoding="utf-8") as fh:
            json.dump(seed, fh, indent=1)
            fh.write("\n")
    return 0 if result["ok"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
