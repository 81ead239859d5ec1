"""Self-tests of the benchmark's own arithmetic and metadata.

    python3 perfbench/selftest.py

Needs neither ``repro`` nor a run: it checks the tail-percentile rule,
self-time subtraction, span coverage, failure accounting, the fp32 output
bound, and that ``layers.json``, ``BENCHMARK.json`` and the workloads
agree on the metrics and workloads they name.
"""

from __future__ import annotations

import json
import statistics
import unittest
from pathlib import Path

import numpy as np

from measure import (
    Tally,
    fp32_error_bound,
    quartile_spread,
    samples_beyond,
    self_times,
    tail_percentile,
    unattributed_fraction,
)

HERE = Path(__file__).resolve().parent


class TailRule(unittest.TestCase):
    def test_highest_percentile_with_ten_beyond(self):
        self.assertEqual(tail_percentile(10000), 99.9)
        self.assertEqual(tail_percentile(1000), 99.0)
        self.assertEqual(tail_percentile(999), 95.0)
        self.assertEqual(tail_percentile(200), 95.0)
        self.assertEqual(tail_percentile(199), 90.0)
        self.assertEqual(tail_percentile(100), 90.0)
        self.assertIsNone(tail_percentile(99))

    def test_samples_beyond(self):
        self.assertEqual(samples_beyond(1000, 99), 10)
        self.assertEqual(samples_beyond(1000, 95), 50)
        self.assertEqual(samples_beyond(840, 99), 8)

    def test_quartile_spread(self):
        values = [10.0, 11.0, 9.0, 10.5, 9.5]
        q1, q2, q3 = statistics.quantiles(values, n=4)
        self.assertAlmostEqual(quartile_spread(values), (q3 - q1) / q2)


class Spans(unittest.TestCase):
    SPANS = [
        ("root", 0.0, 10.0, None),
        ("a", 1.0, 3.0, 0),
        ("b", 2.0, 4.0, 0),  # overlaps a: the union, not the sum, is subtracted
        ("c", 5.0, 6.0, 0),
        ("c.child", 5.2, 5.7, 3),  # a grandchild does not count against root
        ("other", 12.0, 13.0, None),
    ]

    def test_self_time_is_span_minus_children(self):
        own = self_times(self.SPANS)
        self.assertAlmostEqual(own[0], 10.0 - 3.0 - 1.0)
        self.assertAlmostEqual(own[1], 2.0)
        self.assertAlmostEqual(own[3], 0.5)
        self.assertAlmostEqual(own[4], 0.5)

    def test_unattributed_is_the_uncovered_share_of_the_windows(self):
        self.assertAlmostEqual(
            unattributed_fraction(self.SPANS, [(0.0, 10.0), (11.0, 15.0)]),
            1.0 - (10.0 + 1.0) / 14.0,
        )
        self.assertAlmostEqual(unattributed_fraction(self.SPANS[1:3], [(0.0, 10.0)]), 0.7)


class Failures(unittest.TestCase):
    def test_each_failing_request_counts_once(self):
        tally = Tally()
        # 2 is duplicated and shed: still one failure.
        tally.settle(range(1, 6), [1, 2, 2, 3, 7], {3: "wrong_y", 2: "shed"})
        summary = tally.summary()
        self.assertEqual(summary["attempted"], 5)
        self.assertEqual(summary["succeeded"], 1)
        self.assertEqual(summary["lost"], 2)
        self.assertEqual(summary["duplicated"], 1)
        self.assertEqual(summary["spurious"], 1)
        self.assertEqual(summary["wrong_y"], 1)
        self.assertEqual(summary["failed"], 5)  # 2, 3, 4, 5 and the spurious 7

    def test_clean_run(self):
        tally = Tally()
        tally.settle(["a", "b"], ["b", "a"], {})
        self.assertEqual(tally.summary()["failed"], 0)
        self.assertEqual(tally.summary()["succeeded"], 2)

    def test_groups_add_up(self):
        tally = Tally()
        tally.settle([("pass", 0), ("pass", 1)], [("pass", 0)], {})
        tally.settle([("round", 0)], [("round", 0)], {("round", 0): "inline"})
        summary = tally.summary()
        self.assertEqual(summary["attempted"], 3)
        self.assertEqual(summary["failed"], 2)
        self.assertEqual(summary["lost"], 1)
        self.assertEqual(summary["inline"], 1)

    def test_resent_id_is_an_error(self):
        with self.assertRaises(ValueError):
            Tally().settle([1, 1], [1], {})


class Fp32Bound(unittest.TestCase):
    def test_sequential_fp32_sums_stay_within_the_bound(self):
        rng = np.random.default_rng(11)
        for terms in (1, 7, 300):
            for _ in range(50):
                a = rng.uniform(-1, 1, terms)
                x = rng.uniform(-1, 1, terms)
                acc = np.float32(0.0)
                for ai, xi in zip(a.astype(np.float32), x.astype(np.float32)):
                    acc = np.float32(acc + np.float32(ai * xi))
                exact = float(np.dot(a, x))
                bound = fp32_error_bound(terms, float(np.sum(np.abs(a * x))))
                self.assertLessEqual(abs(float(acc) - exact), bound)

    def test_empty_row_must_be_exact(self):
        self.assertEqual(fp32_error_bound(0, 0.0), 0.0)


class Metadata(unittest.TestCase):
    def setUp(self):
        self.spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        self.layers = json.loads((HERE / "layers.json").read_text())

    def test_layer_map_names_the_benchmark_metrics(self):
        per_layer = [m["name"] for m in self.spec["per_layer"]]
        self.assertEqual(sorted(per_layer), sorted(self.layers["per_layer"]))
        end_to_end = {m["name"] for m in self.spec["end_to_end"]}
        self.assertLessEqual(end_to_end, set(self.layers["end_to_end"]))
        workloads = {w["name"] for w in self.spec["workloads"]}
        for name, entry in self.layers["per_layer"].items():
            for workload, metrics in entry["moves"].items():
                self.assertIn(workload, workloads, name)
                self.assertLessEqual(set(metrics), end_to_end, name)

    def test_zero_by_design_counts_are_checks_not_metrics(self):
        metrics = {m["name"] for m in self.spec["end_to_end"] + self.spec["per_layer"]}
        zero = set(self.layers["must_be_zero"]["counts"]) | {"failed_frac"}
        self.assertFalse(metrics & zero)

    def test_tail_metric_is_named_after_the_rule(self):
        from workloads import PASS_TAIL_PERCENTILE

        names = {m["name"] for m in self.spec["end_to_end"]}
        self.assertIn(f"latency_p{PASS_TAIL_PERCENTILE:g}_ms", names)

    def test_setup_has_the_largest_bound(self):
        bounds = {m["name"]: m["bound"] for m in self.spec["end_to_end"]}
        self.assertEqual(bounds["setup_s"], max(bounds.values()))


if __name__ == "__main__":
    unittest.main()
