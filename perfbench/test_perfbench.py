#!/usr/bin/env python3
"""The benchmark's own tests: tail-percentile selection, span self-time
arithmetic, and a reduced-size smoke run of every workload that runs all
of its output checks.

    python3 perfbench/test_perfbench.py

The smoke runs build the benchmark program like run.py does (into
.bench_build/).
"""

import json
import os
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402


class TailPercentileTest(unittest.TestCase):
    def check(self, n, percentile, beyond):
        values = [float(v) for v in range(n, 0, -1)]  # unsorted input
        p, value, got_beyond = run.tail_percentile(values)
        self.assertEqual(p, percentile)
        self.assertEqual(got_beyond, beyond)
        self.assertEqual(sum(1 for v in values if v > value), beyond)

    def test_ladder(self):
        self.check(20, 50.0, 10)
        self.check(39, 50.0, 19)
        self.check(40, 75.0, 10)
        self.check(100, 90.0, 10)
        self.check(199, 90.0, 19)
        self.check(200, 95.0, 10)
        self.check(1000, 99.0, 10)
        self.check(10000, 99.9, 10)

    def test_too_few_samples_reports_the_maximum(self):
        self.check(19, 100.0, 0)
        self.check(1, 100.0, 0)


class SelfTimeTest(unittest.TestCase):
    def test_overlapping_children_counted_once(self):
        spans = [
            [0, 0, 100, -1, 0],
            [1, 10, 30, 0, 0],
            [1, 20, 50, 0, 0],
            [1, 90, 120, 0, 0],  # sticks out of its parent: clipped
        ]
        self.assertEqual(run.self_times(spans), [50, 20, 30, 30])

    def test_grandchildren_only_reduce_their_parent(self):
        spans = [
            [0, 0, 100, -1, 0],
            [1, 10, 60, 0, 0],
            [2, 20, 30, 1, 0],
            [2, 40, 45, 1, 0],
            [0, 200, 210, -1, 1],
        ]
        self.assertEqual(run.self_times(spans), [50, 35, 10, 5, 10])

    def test_medians_by_name(self):
        doc = {"spans": {"names": ["a", "b"],
                         "list": [[0, 0, 10, -1, 0], [1, 2, 4, 0, 0],
                                  [0, 20, 40, -1, 1], [0, 50, 54, -1, 2]]}}
        self.assertEqual(run.span_medians(doc), {"a": 8, "b": 2})


def smoke(workload, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(run.HERE, "run.py"), "--workload",
         workload, "--seed", "3", "--seconds", "0", "--trace", str(trace),
         "--smoke"],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        cwd=run.ROOT, timeout=900)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, json.loads(lines[-2])["report"], json.loads(
        lines[-1])


class SmokeTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        cls.e2e = {m["name"] for m in spec["end_to_end"]}
        cls.layers = {m["name"] for m in spec["per_layer"]}
        cls.runs = {(w, t): smoke(w, t)
                    for w in ("figures", "stap", "tenants")
                    for t in (0, 1)}

    def test_every_workload_passes_its_checks(self):
        for (w, t), (rc, report, final) in self.runs.items():
            with self.subTest(workload=w, trace=t):
                self.assertEqual(rc, 0)
                self.assertTrue(final["correct"], report["failures"])
                self.assertEqual(set(final),
                                 {"correct", "attempted", "failed",
                                  "metrics"})
                want = self.layers if t else self.e2e
                self.assertEqual(set(final["metrics"]), want)

    def test_modeled_digest_same_traced_and_untraced(self):
        for w in ("figures", "stap", "tenants"):
            with self.subTest(workload=w):
                self.assertEqual(self.runs[(w, 0)][1]["modeled_digest"],
                                 self.runs[(w, 1)][1]["modeled_digest"])

    def test_failed_probes_are_counted_not_fatal(self):
        # Two probes per tenant per pass fail today (see CHANGES.md);
        # figures and stap have none.
        for (w, t), (rc, report, final) in self.runs.items():
            with self.subTest(workload=w, trace=t):
                if w == "tenants":
                    passes = sum(p["passes"] for p in report["phases"])
                    self.assertEqual(final["failed"], 8 * passes)
                    self.assertGreater(final["attempted"], final["failed"])
                else:
                    self.assertEqual(final["failed"], 0)
                self.assertAlmostEqual(report["failed_frac"],
                                       final["failed"] / final["attempted"])


if __name__ == "__main__":
    unittest.main()
