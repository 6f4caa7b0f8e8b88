#!/usr/bin/env python3
"""sambench: the repository benchmark (see README.md next to this file).

Builds the sambench project into build-sambench/, runs each workload as
several fresh `sambench` processes, checks correctness, prints every
metric by name with its unit, and writes a JSON report. The last line
of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Usage:
    python3 bench/sambench/run.py [--workload NAME|all] [--seed N]
        [--seconds S] [--reps R] [--trace 0|1|OUT.json] [--smoke]
        [--report PATH [--append]] [--binary PATH]

--trace 0 runs only the timed passes (end-to-end metrics); --trace 1
only the traced pass (per-layer metrics); without --trace, or with a
file name, both run. The traced pass's spans are written as Chrome
trace events to that file, or to build-sambench/trace.json.

Exit status: 0 with a result line, 1 on a build, run, or correctness
failure (no result line when nothing was measured), 2 on usage errors.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
BUILD = os.path.join(ROOT, "build-sambench")
WORKLOADS = ["grid_quick", "grid_full_par", "sweep_long", "ras_chipkill"]

# grid_quick's mean |gmean(Q) speedup - paper| / paper over the seven
# Fig 12 accelerators when the benchmark was introduced (8.456%),
# rounded up. Any increase fails the run.
PAPER_ERR_PCT_CEILING = 8.46

# Repetitions per workload when no --seconds budget is given.
DEFAULT_REPS = 5
# Time allowed per workload after the build; a process still running at
# the deadline is killed. A one-workload invocation therefore ends within
# three minutes of its build; the default all-workload one gets four
# times as long (README.md lists typical durations).
RUN_LIMIT_S = 170.0

_child = None


class BenchError(Exception):
    """A failure that leaves nothing to report."""


def die_on_signal(signum, _frame):
    raise SystemExit(128 + signum)


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    units.update({m["name"]: m["unit"] for m in bench["per_layer"]})
    return bench, units


def build():
    """Configure (once) and build the sambench binary; returns its path."""
    log = sys.stderr
    if not os.path.exists(os.path.join(BUILD, "Makefile")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       stdout=log, stderr=log, check=True)
    subprocess.run(["cmake", "--build", BUILD, "--target", "sambench",
                    "-j", str(os.cpu_count() or 1)],
                   stdout=log, stderr=log, check=True)
    return os.path.join(BUILD, "sambench")


def spawn(cmd, tag, deadline):
    """Run one sambench process; returns (report, peak RSS in MB)."""
    global _child
    out_dir = os.path.join(BUILD, "runs")
    os.makedirs(out_dir, exist_ok=True)
    out_path = os.path.join(out_dir, tag + ".json")
    err_path = os.path.join(out_dir, tag + ".err")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        _child = subprocess.Popen(cmd, stdout=out, stderr=err)
    timer = threading.Timer(max(0.0, deadline - time.monotonic()),
                            _child.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(_child.pid, 0)
    finally:
        timer.cancel()
    _child.returncode = os.waitstatus_to_exitcode(status)
    code, _child = _child.returncode, None
    if code != 0:
        with open(err_path, encoding="utf-8", errors="replace") as fh:
            tail = fh.read()[-2000:]
        why = "timed out" if time.monotonic() >= deadline else f"exit {code}"
        raise BenchError(f"{' '.join(cmd)}: {why}\n{tail}")
    with open(out_path, encoding="utf-8") as fh:
        return json.load(fh), usage.ru_maxrss / 1024.0


def spread(values):
    """(median, q1, q3, n) as statistics.quantiles(n=4) gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0], len(values)
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, len(values)


def first_line(text):
    return text.strip().splitlines()[0] if text.strip() else "(no message)"


def timed_workload(binary, name, args, deadline):
    """Fresh-process repetitions of the timed passes, aggregated."""
    base = [binary, "--workload", name, "--seed", str(args.seed)]
    if args.smoke:
        base.append("--smoke")
    reps = []
    t0 = time.monotonic()
    while True:
        n = len(reps)
        if args.seconds is None:
            if n >= (1 if args.smoke else args.reps or DEFAULT_REPS):
                break
        elif n >= (args.reps or 1):
            # Stop once another repetition would overshoot the budget
            # by more than half a repetition.
            elapsed = time.monotonic() - t0
            if elapsed + elapsed / n / 2 > args.seconds:
                break
        reps.append(spawn(base, f"{name}-timed-{n}", deadline))

    # Host interference only ever adds time, so each process's fastest
    # pass is its least-disturbed measurement; the median over processes
    # keeps one lucky process from setting the value. A run's time is
    # likewise its fastest over every pass (run_ms is in spec order).
    fastest, digests, failures = [], set(), []
    attempted = passes = misses = 0
    for doc, _ in reps:
        misses += doc["table_misses_timed"]
        for p in doc["passes"]:
            digests.add(p["sim_digest"])
            attempted += len(p["run_ms"])
            failures.extend(p["failures"])
        passes += len(doc["passes"])
        fastest.append(min(doc["passes"], key=lambda p: p["wall_ms"]))
    run_ms = [min(times) for times in zip(
        *(p["run_ms"] for doc, _ in reps for p in doc["passes"]))]
    samples = {
        "wall_s": [p["wall_ms"] / 1e3 for p in fastest],
        "setup_s": [doc["setup_s"] for doc, _ in reps],
        "run_ms_p50": run_ms,
        "run_ms_p90": run_ms,
        "sim_mcmd_per_s": [p["commands"] / (p["wall_ms"] / 1e3) / 1e6
                           for p in fastest],
        "peak_rss_mb": [rss for _, rss in reps],
    }
    metrics = {k: spread(v)[0] for k, v in samples.items()}
    deciles = statistics.quantiles(run_ms, n=10, method="inclusive")
    metrics["run_ms_p50"] = deciles[4]
    metrics["run_ms_p90"] = deciles[8]

    problems = [f"{f['id']}: {first_line(f['error'])}" for f in failures]
    if len(digests) != 1:
        problems.append(f"sim_digest differs across passes: {sorted(digests)}")
    if misses:
        problems.append(f"TableCache missed {misses} time(s) during the "
                        "timed passes (set-up did not warm every table)")
    result = {
        "seed": args.seed,
        "attempted": attempted,
        "failed": len(failures),
        "failures": problems,
        "metrics": metrics,
        "sim_digest": sorted(digests)[0],
        "digest_seed_free": reps[0][0]["digest_seed_free"],
        "reps": len(reps),
        "passes": passes,
        "jobs": reps[0][0]["jobs"],
        "tail_ms": statistics.median(p["tail_ms"] for p in fastest),
    }
    paper = [doc["paper_err_pct"] for doc, _ in reps if "paper_err_pct" in doc]
    if paper:
        result["paper_err_pct"] = paper[0]
        if not args.smoke and paper[0] > PAPER_ERR_PCT_CEILING:
            problems.append(f"paper_err_pct {paper[0]:.3f} exceeds the "
                            f"ceiling {PAPER_ERR_PCT_CEILING}")
    result["correct"] = not problems
    return result, samples


def traced_workload(binary, name, args, trace_path, deadline):
    cmd = [binary, "--workload", name, "--seed", str(args.seed), "--traced",
           "--trace-out", trace_path]
    if args.smoke:
        cmd.append("--smoke")
    doc, _ = spawn(cmd, f"{name}-traced", deadline)
    m = doc["metrics"]
    problems = [f"{f['id']}: {first_line(f['error'])}"
                for f in doc["failures"]]
    if m["trace.composition_mismatches"]:
        problems.append(f"{m['trace.composition_mismatches']} composed "
                        "run(s) differ from Session::run")
    if m["table.misses_timed"]:
        problems.append("TableCache missed after set-up in the traced "
                        "process")
    return {
        "seed": args.seed,
        "attempted": doc["attempted"],
        "failed": len(doc["failures"]),
        "failures": problems,
        "metrics": m,
        "sim_digest": doc["sim_digest"],
        "correct": not problems,
    }


def merge_traces(paths, out_path):
    """One Chrome trace document, one process per workload."""
    events = []
    for pid, path in enumerate(paths, start=1):
        with open(path, encoding="utf-8") as fh:
            for e in json.load(fh)["traceEvents"]:
                e["pid"] = pid
                events.append(e)
    tmp = out_path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)
    os.replace(tmp, out_path)


def print_timed(name, result, samples, units):
    print(f"== {name}: seed {result['seed']}, jobs {result['jobs']}, "
          f"{result['reps']} process(es), {result['passes']} timed "
          f"pass(es), {result['attempted']} runs ==")
    for metric, values in samples.items():
        value = result["metrics"][metric]
        if metric.startswith("run_ms_p"):
            beyond = sum(v > value for v in values)
            detail = (f"percentile of n={len(values)} runs, each its "
                      f"fastest of {result['passes']} passes, "
                      f"{beyond} beyond")
        else:
            _, q1, q3, n = spread(values)
            detail = f"median of n={n} [q1 {q1:.4f}, q3 {q3:.4f}]"
        print(f"  {metric:<16} {value:>12.4f} {units[metric]:<7} {detail}")
    print(f"  tail_ms          {result['tail_ms']:12.4f} ms      first worker "
          "idle to end of pass, fastest passes, median")
    print(f"  failed_frac      {result['failed']}/{result['attempted']}")
    if "paper_err_pct" in result:
        print(f"  paper_err_pct    {result['paper_err_pct']:.3f} %  "
              f"(ceiling {PAPER_ERR_PCT_CEILING})")
    print(f"  sim_digest       {result['sim_digest']}")


def print_traced(name, result, units):
    print(f"== {name}: traced pass (serial, one process) ==")
    for metric, value in result["metrics"].items():
        print(f"  {metric:<36} {value:>16.4f} {units.get(metric, '')}")
    print(f"  sim_digest {result['sim_digest']}")


def git_commit():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def write_report(path, append, entries):
    report = None
    if append and os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            report = json.load(fh)
    if report is None:
        report = {"schema": "sambench-report-v1", "commit": git_commit(),
                  "nproc": os.cpu_count(), "workloads": {}}
    for name, kind, entry in entries:
        slot = report["workloads"].setdefault(name, {"runs": [], "traced": []})
        slot[kind].append(entry)
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
    os.replace(tmp, path)


def parse_args(argv):
    ap = argparse.ArgumentParser(
        description="Build and run sambench (see README.md).")
    ap.add_argument("--workload", default="all",
                    choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float,
                    help="time budget per workload; repetitions continue "
                         "until it is spent")
    ap.add_argument("--reps", type=int,
                    help="repetitions (fresh processes) per workload; "
                         f"default {DEFAULT_REPS}, or the minimum under "
                         "--seconds")
    ap.add_argument("--trace", default=None,
                    help="0: timed passes only; 1: traced pass only; "
                         "a file name: both, spans written there")
    ap.add_argument("--smoke", action="store_true",
                    help="tiny tables, one repetition, one pass")
    ap.add_argument("--report", default=os.path.join(BUILD, "report.json"))
    ap.add_argument("--append", action="store_true",
                    help="add this run to an existing --report")
    ap.add_argument("--binary", help="use this sambench binary, skip build")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed wants a non-negative integer")
    if args.reps is not None and args.reps < 1:
        ap.error("--reps wants a positive integer")
    if args.seconds is not None and args.seconds <= 0:
        ap.error("--seconds wants a positive number")
    return args


def main(argv):
    args = parse_args(argv)
    signal.signal(signal.SIGTERM, die_on_signal)
    bench, units = load_benchmark()
    names = WORKLOADS if args.workload == "all" else [args.workload]
    timed = args.trace != "1"
    traced = args.trace != "0"
    trace_out = (args.trace if args.trace not in (None, "0", "1")
                 else os.path.join(BUILD, "trace.json"))

    try:
        binary = args.binary or build()
        deadline = time.monotonic() + RUN_LIMIT_S * len(names)
        entries, span_files, lines = [], [], {}
        correct, attempted, failed = True, 0, 0
        for name in names:
            if timed:
                result, samples = timed_workload(binary, name, args, deadline)
                print_timed(name, result, samples, units)
                entries.append((name, "runs", result))
            if traced:
                path = os.path.join(BUILD, "runs", f"{name}-trace.json")
                tres = traced_workload(binary, name, args, path, deadline)
                print_traced(name, tres, units)
                entries.append((name, "traced", tres))
                span_files.append(path)
            for _, _, res in entries[-(timed + traced):]:
                for p in res["failures"]:
                    print(f"  FAILED {name}: {p}")
                correct = correct and res["correct"]
                attempted += res["attempted"]
                failed += res["failed"]
                for metric, value in res["metrics"].items():
                    key = metric if len(names) == 1 else f"{name}.{metric}"
                    lines[key] = {"value": value, "unit": units[metric]}
        if traced:
            merge_traces(span_files, trace_out)
            print(f"trace: {trace_out}")
        write_report(args.report, args.append, entries)
        print(f"report: {args.report}")
    except (BenchError, subprocess.CalledProcessError, OSError) as exc:
        print(f"sambench: {exc}", file=sys.stderr)
        return 1
    finally:
        if _child is not None and _child.returncode is None:
            _child.kill()
            _child.wait()

    expected = {m["name"] for m in bench["end_to_end"]} if timed else set()
    if traced:
        expected |= {m["name"] for m in bench["per_layer"]}
    got = {k.split(".", 1)[1] if len(names) > 1 else k for k in lines}
    if got != expected:
        print(f"sambench: metrics {sorted(got ^ expected)} do not match "
              "BENCHMARK.json", file=sys.stderr)
        return 1
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": lines}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
