#!/usr/bin/env python3
"""Unit tests for compare.py (stdlib unittest; run by ctest)."""

import contextlib
import io
import json
import os
import sys
import tempfile
import unittest
from unittest import mock

# Leave no __pycache__ beside the sources.
sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import compare  # noqa: E402

BENCH = {
    "end_to_end": [
        {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.1},
        {"name": "rate", "unit": "1/s", "better": "higher", "bound": 0.1},
    ],
    "per_layer": [{"name": "x.ms", "unit": "ms", "better": "lower"}],
}


def run_entry(seed, wall, rate, digest="d0", failed=0, seed_free=True):
    return {"seed": seed, "attempted": 100, "failed": failed,
            "correct": failed == 0, "sim_digest": digest,
            "digest_seed_free": seed_free,
            "metrics": {"wall_s": wall, "rate": rate}}


def report(walls, rates=None, **kw):
    rates = rates or [1.0] * len(walls)
    runs = [run_entry(i, w, r, **kw)
            for i, (w, r) in enumerate(zip(walls, rates))]
    return {"schema": "sambench-report-v1", "commit": "abc", "nproc": 4,
            "workloads": {"w": {"runs": runs, "traced": []}}}


STEADY = [1.00, 1.01, 0.99, 1.00, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00]


class VerdictTest(unittest.TestCase):
    def verdict(self, a, b, metric="wall_s"):
        result = compare.compare(a, b, BENCH)
        return result, result["workloads"]["w"]["metrics"][metric]["verdict"]

    def test_identical_reports_are_ok(self):
        result, verdict = self.verdict(report(STEADY), report(STEADY))
        self.assertEqual(verdict, "ok")
        self.assertTrue(result["ok"])

    def test_slower_beyond_bound_regresses(self):
        result, verdict = self.verdict(
            report(STEADY), report([w * 1.2 for w in STEADY]))
        self.assertEqual(verdict, "regressed")
        self.assertFalse(result["ok"])

    def test_higher_is_better_direction(self):
        result, verdict = self.verdict(
            report(STEADY, rates=[100.0] * 10),
            report(STEADY, rates=[80.0] * 10), metric="rate")
        self.assertEqual(verdict, "regressed")
        _, verdict = self.verdict(
            report(STEADY, rates=[100.0] * 10),
            report(STEADY, rates=[130.0] * 10), metric="rate")
        self.assertEqual(verdict, "improved")

    def test_consistent_win_beyond_iqr_is_improved(self):
        _, verdict = self.verdict(
            report(STEADY), report([w * 0.95 for w in STEADY]))
        self.assertEqual(verdict, "improved")

    def test_improvement_needs_nine_in_ten_wins(self):
        b = [w * 0.95 for w in STEADY]
        b[0] = b[1] = 1.03  # two lost pairs: 8/10
        _, verdict = self.verdict(report(STEADY), report(b))
        self.assertEqual(verdict, "ok")

    def test_improvement_needs_ten_pairs(self):
        _, verdict = self.verdict(
            report(STEADY[:9]), report([w * 0.95 for w in STEADY[:9]]))
        self.assertEqual(verdict, "ok")

    def test_improvement_needs_gap_beyond_parent_spread(self):
        noisy = [1.0, 1.1, 0.9, 1.05, 0.95, 1.08, 0.92, 1.0, 1.02, 0.98]
        _, verdict = self.verdict(
            report(noisy), report([w * 0.99 for w in noisy]))
        self.assertNotEqual(verdict, "improved")

    def test_wide_spread_is_unresolved(self):
        noisy = [1.0, 1.3, 0.7, 1.2, 0.8, 1.25, 0.75, 1.0, 1.1, 0.9]
        result, verdict = self.verdict(report(noisy), report(noisy))
        self.assertEqual(verdict, "unresolved")
        self.assertTrue(result["ok"])

    def test_wide_spread_but_every_run_better_is_not_unresolved(self):
        a = [1.0, 1.3, 0.8, 1.2, 0.85, 1.25, 0.9, 1.0, 1.1, 0.95]
        b = [0.5, 0.65, 0.4, 0.6, 0.42, 0.62, 0.45, 0.5, 0.55, 0.47]
        _, verdict = self.verdict(report(a), report(b))
        self.assertEqual(verdict, "improved")


class CorrectnessTest(unittest.TestCase):
    def problems(self, a, b):
        result = compare.compare(a, b, BENCH)
        return result, result["workloads"]["w"]["problems"]

    def test_digest_mismatch_fails(self):
        result, problems = self.problems(report(STEADY),
                                         report(STEADY, digest="d1"))
        self.assertFalse(result["ok"])
        self.assertIn("sim_digest differs", problems[0])

    def test_seed_dependent_digest_compared_per_seed(self):
        a = report(STEADY, seed_free=False)
        b = report(STEADY, seed_free=False)
        for i, r in enumerate(a["workloads"]["w"]["runs"]):
            r["sim_digest"] = f"s{i}"
        for i, r in enumerate(b["workloads"]["w"]["runs"]):
            r["sim_digest"] = f"s{i}"
        result, problems = self.problems(a, b)
        self.assertTrue(result["ok"])
        self.assertEqual(problems, [])

    def test_more_failures_fail(self):
        result, problems = self.problems(report(STEADY),
                                         report(STEADY, failed=1))
        self.assertFalse(result["ok"])
        self.assertIn("failed", problems[0])


class CliTest(unittest.TestCase):
    def setUp(self):
        self.dir = tempfile.TemporaryDirectory()
        self.bench = self.write("bench.json", BENCH)

    def tearDown(self):
        self.dir.cleanup()

    def write(self, name, doc):
        path = os.path.join(self.dir.name, name)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        return path

    def main(self, *args):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()), \
                mock.patch.object(compare, "BENCH_PATH", self.bench):
            code = compare.main(list(args))
        return code, out.getvalue()

    def test_exit_codes(self):
        a = self.write("a.json", report(STEADY))
        b = self.write("b.json", report([w * 1.3 for w in STEADY]))
        self.assertEqual(self.main(a, a)[0], 0)
        code, text = self.main(a, b)
        self.assertEqual(code, 1)
        self.assertIn("regressed", text)
        self.assertEqual(self.main(a, os.path.join(self.dir.name, "no"))[0],
                         2)

    def test_seed_file_round_trip(self):
        a = self.write("a.json", report(STEADY))
        seed = os.path.join(self.dir.name, "seed.json")
        self.assertEqual(self.main(a, a, "--seed-out", seed)[0], 0)
        self.assertEqual(self.main(seed + ":0", seed + ":1")[0], 0)
        with open(seed, encoding="utf-8") as fh:
            doc = json.load(fh)
        self.assertEqual(doc["nproc"], 4)
        self.assertTrue(doc["agreement"]["ok"])


if __name__ == "__main__":
    unittest.main()
