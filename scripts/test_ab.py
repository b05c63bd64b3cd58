"""Unit tests of scripts/ab.py's pairing, flip and bootstrap math. They
build and run nothing:

    python3 -m unittest discover -s scripts -p 'test_ab.py'
"""

import unittest

import ab


def result(cycles, **metrics):
    values = {"sim_cycles": cycles, **metrics}
    return {"correct": True, "failed": 0,
            "metrics": {k: {"value": v, "unit": ""} for k, v in values.items()}}


class PairOrder(unittest.TestCase):
    def test_first_side_flips_every_pair(self):
        self.assertEqual(ab.pair_orders(4),
                         [("base", "change"), ("change", "base"),
                          ("base", "change"), ("change", "base")])

    def test_each_side_goes_first_equally_often(self):
        firsts = [order[0] for order in ab.pair_orders(10)]
        self.assertEqual(firsts.count("base"), firsts.count("change"))


class Ratios(unittest.TestCase):
    def test_ratio_is_change_over_base_per_pair(self):
        self.assertEqual(ab.paired_ratios([2, 4], [3, 2]), [1.5, 0.5])

    def test_undefined_ratios_are_dropped(self):
        self.assertEqual(ab.paired_ratios([0, None, 2], [1, 1, 1]), [0.5])

    def test_wins_follow_the_metric_direction(self):
        ratios = [0.5, 1.0, 2.0, 3.0]
        self.assertEqual(ab.wins(ratios, "higher"), 2)
        self.assertEqual(ab.wins(ratios, "lower"), 1)


class Bootstrap(unittest.TestCase):
    def test_constant_ratios_give_a_point_interval(self):
        self.assertEqual(ab.bootstrap_interval([1.25] * 7), (1.25, 1.25))

    def test_interval_lies_within_the_range_and_brackets_the_median(self):
        ratios = [0.9, 0.95, 1.0, 1.02, 1.05, 1.1, 1.3]
        lo, hi = ab.bootstrap_interval(ratios)
        self.assertLessEqual(min(ratios), lo)
        self.assertLessEqual(lo, 1.02)
        self.assertLessEqual(1.02, hi)
        self.assertLessEqual(hi, max(ratios))

    def test_fixed_seed_repeats(self):
        ratios = [0.8, 1.1, 1.4, 0.95, 1.2]
        self.assertEqual(ab.bootstrap_interval(ratios),
                         ab.bootstrap_interval(ratios))

    def test_no_ratios_give_no_interval(self):
        self.assertIsNone(ab.bootstrap_interval([]))


class Formatting(unittest.TestCase):
    def test_large_counts_keep_every_digit(self):
        self.assertEqual(ab.describe([6132405.0, 6132406.0, 6132405.0]),
                         "6132405.0 [6132405.0-6132406.0]")

    def test_small_values_keep_six_digits(self):
        self.assertEqual(ab.describe([0.0472127123]), "0.0472127")


class Summaries(unittest.TestCase):
    def test_summary_pairs_sides_by_run(self):
        pairs = [{"base": result(10, setup_s=4.0),
                  "change": result(10, setup_s=1.0)},
                 {"base": result(10, setup_s=2.0),
                  "change": result(10, setup_s=1.0)}]
        s = ab.summarize(pairs, "setup_s", "lower")
        self.assertEqual(s["ratios"], [0.25, 0.5])
        self.assertEqual(s["wins"], 2)
        self.assertEqual(s["base"], [4.0, 2.0])

    def test_failed_runs_count_missing_and_failed_results(self):
        bad = result(10)
        bad["failed"], bad["correct"] = 1, False
        pairs = [{"base": None, "change": result(10)},
                 {"base": result(10), "change": bad}]
        self.assertEqual(ab.failed_runs(pairs, "base"), 1)
        self.assertEqual(ab.failed_runs(pairs, "change"), 1)

    def test_pairs_whose_cycles_differ_are_flagged(self):
        pairs = [{"base": result(10), "change": result(10)},
                 {"base": result(10), "change": result(11)},
                 {"base": None, "change": result(12)}]
        self.assertEqual(ab.cycle_mismatches(pairs), [1])


if __name__ == "__main__":
    unittest.main()
