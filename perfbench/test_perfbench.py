"""Tests of the benchmark itself: its metric math, and a smoke run of
every workload on a tiny input.

    python3 -m unittest discover -s perfbench -p 'test_*.py'

The smoke runs build the harness on first use, like run.py does.
"""

import json
import math
import statistics
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import metrics as m  # noqa: E402
import run  # noqa: E402


class MetricMathTest(unittest.TestCase):
    def test_median_and_quartiles(self):
        values = [7, 1, 3, 5, 9, 11, 13, 15, 2, 4]
        self.assertEqual(m.median(values), 6)
        q1, _, q3 = statistics.quantiles(values, n=4)
        self.assertEqual(m.quartiles(values), (q1, q3))
        self.assertEqual(m.quartiles([1, 2, 3, 4, 5]), (1.5, 4.5))
        self.assertAlmostEqual(m.spread([1, 2, 3, 4, 5]), 3 / 3)

    def test_spread_of_zero_median_is_null(self):
        self.assertIsNone(m.spread([-1, 0, 0, 1]))

    def test_ratio_with_zero_base_is_null(self):
        self.assertEqual(m.ratio(3, 4), 0.75)
        self.assertIsNone(m.ratio(0, 0))
        self.assertIsNone(m.ratio(5, 0))

    def test_reference_seconds(self):
        # On the reference host, reference seconds are seconds.
        self.assertAlmostEqual(m.reference_seconds(2.0, 0.015, 0.015), 2.0)
        # A host twice as slow takes twice as long for both: no change.
        self.assertAlmostEqual(m.reference_seconds(4.0, 0.03, 0.015), 2.0)
        self.assertAlmostEqual(m.reference_seconds(1.0, 0.03, 0.015), 0.5)

    def test_weighted_mean(self):
        self.assertEqual(m.weighted_mean([(10.0, 1), (20.0, 3)]), 17.5)
        self.assertIsNone(m.weighted_mean([]))
        self.assertIsNone(m.weighted_mean([(0.0, 0), (0.0, 0)]))

    def test_exact_percentiles_from_sample_counts(self):
        counts = m.merge_counts([[[v, 1] for v in range(1, 51)],
                                 [[v, 1] for v in range(51, 101)]])
        self.assertEqual(m.percentile(counts, 50), 50)
        self.assertEqual(m.percentile(counts, 99), 99)
        self.assertEqual(m.percentile(counts, 100), 100)
        self.assertEqual(m.percentile(counts, 0), 1)
        # Repeated values: 90 zeros and 10 samples of 1000.
        skewed = m.merge_counts([[[0, 90]], [[1000, 10]]])
        self.assertEqual(m.percentile(skewed, 50), 0)
        self.assertEqual(m.percentile(skewed, 90), 0)
        self.assertEqual(m.percentile(skewed, 91), 1000)
        # A fractional rank rounds up: the 9.5th of ten samples is the 10th.
        ten = {v: 1 for v in range(1, 11)}
        self.assertEqual(m.percentile(ten, 95), 10)
        self.assertEqual(m.percentile(ten, 90), 9)
        self.assertEqual(m.percentile(skewed, 90.5), 1000)
        self.assertEqual(m.merge_counts([[[5, 2]], [[5, 3]]]), {5: 5})

    def test_percentile_without_samples_is_null(self):
        self.assertIsNone(m.percentile({}, 99))

    def test_jain_index(self):
        self.assertEqual(m.jain([3, 3, 3, 3]), 1.0)
        self.assertEqual(m.jain([8, 0, 0, 0]), 0.25)
        self.assertAlmostEqual(m.jain([1, 2]), 9 / 10)
        self.assertIsNone(m.jain([]))
        self.assertIsNone(m.jain([0, 0]))

    def test_geomean(self):
        self.assertAlmostEqual(m.geomean([1.0, 4.0]), 2.0)
        self.assertAlmostEqual(m.geomean([1.3] * 6), 1.3)
        self.assertIsNone(m.geomean([]))
        with self.assertRaises(ValueError):
            m.geomean([1.0, 0.0])


class BenchmarkFileTest(unittest.TestCase):
    def test_benchmark_json_matches_the_runner(self):
        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        names = [w["name"] for w in spec["workloads"]]
        self.assertEqual(names, [w for w in run.WORKLOADS if w in names])
        self.assertGreaterEqual(len(names), 2)
        self.assertEqual({e["name"]: e["unit"] for e in spec["end_to_end"]},
                         run.END_TO_END)
        self.assertEqual({e["name"]: e["unit"] for e in spec["per_layer"]},
                         run.PER_LAYER)


class SmokeTest(unittest.TestCase):
    """Runs every workload on a tiny input, untraced and traced."""

    def run_bench(self, workload, trace):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload,
             "--seed", "7", "--seconds", "0", "--trace", str(trace),
             "--scale", "tiny"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            timeout=300)
        self.assertEqual(proc.returncode, 0, proc.stderr[-3000:])
        lines = proc.stdout.strip().splitlines()
        return lines[:-1], json.loads(lines[-1])

    def check_result(self, table, result, expected):
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(list(result["metrics"]), list(expected))
        for name, unit in expected.items():
            metric = result["metrics"][name]
            self.assertEqual(metric["unit"], unit)
            self.assertIsInstance(metric["value"], (int, float))
            self.assertTrue(math.isfinite(metric["value"]))
            printed = [line.split() for line in table
                       if line.split()[:1] == [name]]
            self.assertEqual(len(printed), 1, name)
            self.assertEqual(printed[0][-1], unit, name)

    def test_every_workload_prints_every_metric(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload, trace=0):
                table, result = self.run_bench(workload, 0)
                self.check_result(table, result, run.END_TO_END)
                for name in run.END_TO_END:
                    self.assertGreater(result["metrics"][name]["value"], 0)
            with self.subTest(workload=workload, trace=1):
                table, result = self.run_bench(workload, 1)
                self.check_result(table, result, run.PER_LAYER)
                values = {k: v["value"] for k, v in result["metrics"].items()}
                self.assertEqual(values["trace.dropped"], 0)
                self.assertGreater(values["trace.events"], 0)
                self.assertEqual(values["failed_ratio"], 0)


if __name__ == "__main__":
    unittest.main()
