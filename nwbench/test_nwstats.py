"""Tests of NWBench's statistics helpers.

    python3 -m unittest discover -s nwbench -p 'test_*.py'
"""

import math
import unittest

import nwstats


class PercentileTest(unittest.TestCase):
    def test_interpolates_between_ranks(self):
        values = list(range(1, 101))  # 1..100
        self.assertEqual(nwstats.percentile(values, 50), 50.5)
        self.assertAlmostEqual(nwstats.percentile(values, 99), 99.01)
        self.assertEqual(nwstats.percentile(values, 0), 1)
        self.assertEqual(nwstats.percentile(values, 100), 100)

    def test_order_does_not_matter(self):
        self.assertEqual(nwstats.percentile([3, 1, 2], 50), 2)

    def test_failed_requests_sort_last(self):
        values = [1.0] * 99 + [math.inf]
        self.assertEqual(nwstats.percentile(values, 50), 1.0)
        self.assertTrue(math.isinf(nwstats.percentile(values, 100)))

    def test_empty_is_an_error(self):
        with self.assertRaises(ValueError):
            nwstats.percentile([], 50)

    def test_summary_counts_samples_beyond_p99(self):
        s = nwstats.latency_summary([float(v) for v in range(1000)])
        self.assertEqual(s["n"], 1000)
        self.assertEqual(s["p50"], 499.5)
        self.assertAlmostEqual(s["p99"], 989.01)
        self.assertEqual(s["beyond_p99"], 10)

    def test_summary_of_few_samples_has_few_beyond(self):
        s = nwstats.latency_summary([1.0, 2.0, 3.0])
        self.assertEqual(s["n"], 3)
        self.assertEqual(s["beyond_p99"], 1)

    def test_spread_is_iqr_over_median(self):
        self.assertAlmostEqual(nwstats.spread([10.0] * 10), 0.0)
        values = [9.0, 10.0, 10.0, 10.0, 11.0]
        q1, med, q3 = 9.5, 10.0, 10.5  # statistics.quantiles, exclusive
        self.assertAlmostEqual(nwstats.spread(values), (q3 - q1) / med)


class BacklogTest(unittest.TestCase):
    def test_series_counts_outstanding(self):
        intervals = [(0, 10), (5, 25), (12, None)]
        self.assertEqual(nwstats.backlog_series(intervals, 0, 30, 5),
                         [1, 2, 1, 2, 2, 1])

    def test_flat_backlog_is_not_growing(self):
        series = [2, 3, 2, 4, 3, 2, 3, 2] * 4
        self.assertFalse(nwstats.backlog_growing(series, sent=1000))

    def test_climbing_backlog_is_growing(self):
        series = list(range(0, 200, 5))
        self.assertTrue(nwstats.backlog_growing(series, sent=1000))

    def test_growth_within_tolerance_is_not_growing(self):
        # +10 requests over a phase of 1000 sent: under 2% of sent.
        series = [5] * 10 + [15] * 10
        self.assertFalse(nwstats.backlog_growing(series, sent=1000))
        self.assertTrue(nwstats.backlog_growing(series, sent=100))

    def test_short_series_is_not_growing(self):
        self.assertFalse(nwstats.backlog_growing([0, 50, 100], sent=10))


class LadderTest(unittest.TestCase):
    def test_all_rungs_pass(self):
        rungs = [(100, 1.0, False), (200, 2.0, False)]
        self.assertEqual(nwstats.ladder_max_rate(rungs, 10.0), 200)

    def test_interpolates_toward_first_failure_on_log_p99(self):
        rungs = [(100, 1.0, False), (200, 5.0, False), (400, 20.0, False)]
        # log(10/5) / log(20/5) = 0.5 of the way from 200 to 400.
        self.assertAlmostEqual(nwstats.ladder_max_rate(rungs, 10.0), 300.0)

    def test_backlog_failure_adds_nothing(self):
        rungs = [(100, 1.0, False), (200, 2.0, True)]
        self.assertEqual(nwstats.ladder_max_rate(rungs, 10.0), 100)

    def test_growing_rung_over_the_limit_still_interpolates(self):
        rungs = [(100, 5.0, False), (200, 20.0, True)]
        self.assertAlmostEqual(nwstats.ladder_max_rate(rungs, 10.0), 150.0)

    def test_unanswered_requests_fail_the_rung(self):
        rungs = [(100, 1.0, False), (200, math.inf, False)]
        self.assertEqual(nwstats.ladder_max_rate(rungs, 10.0), 100)

    def test_no_passing_rung_scales_the_first(self):
        self.assertEqual(nwstats.ladder_max_rate([(100, 20.0, False)], 10.0),
                         50.0)

    def test_stops_at_first_failure(self):
        rungs = [(100, 1.0, False), (200, 50.0, False), (400, 2.0, False)]
        self.assertLess(nwstats.ladder_max_rate(rungs, 10.0), 200)


class SelfTimeTest(unittest.TestCase):
    def span(self, sid, parent, name, start, end):
        return {"id": sid, "parent": parent, "name": name, "start": start,
                "end": end}

    def test_children_are_subtracted(self):
        spans = [self.span(1, 0, "root", 0, 100),
                 self.span(2, 1, "a", 10, 30),
                 self.span(3, 1, "b", 50, 90)]
        self.assertEqual(nwstats.self_times(spans), {1: 40, 2: 20, 3: 40})

    def test_overlapping_children_count_once(self):
        spans = [self.span(1, 0, "root", 0, 100),
                 self.span(2, 1, "a", 10, 60),
                 self.span(3, 1, "a", 40, 80)]
        self.assertEqual(nwstats.self_times(spans)[1], 30)

    def test_grandchildren_belong_to_their_parent(self):
        spans = [self.span(1, 0, "root", 0, 100),
                 self.span(2, 1, "a", 0, 50),
                 self.span(3, 2, "b", 10, 20)]
        self.assertEqual(nwstats.self_times(spans), {1: 50, 2: 40, 3: 10})

    def test_totals_by_name(self):
        spans = [self.span(1, 0, "root", 0, 100),
                 self.span(2, 1, "a", 0, 10),
                 self.span(3, 1, "a", 20, 40)]
        self.assertEqual(nwstats.self_time_by_name(spans),
                         {"root": 70, "a": 30})

    def test_self_times_sum_to_the_root(self):
        spans = [self.span(1, 0, "root", 0, 1000),
                 self.span(2, 1, "a", 100, 400),
                 self.span(3, 2, "b", 150, 250),
                 self.span(4, 1, "c", 500, 900)]
        self.assertEqual(sum(nwstats.self_times(spans).values()), 1000)


if __name__ == "__main__":
    unittest.main()
