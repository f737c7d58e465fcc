"""Tests of the benchmark's metric math and output check.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import os
import statistics
import tempfile
import unittest

import analysis


def span(id, name, parent, start, end, cell=-1):
    return {"id": id, "name": name, "parent": parent, "cell": cell,
            "start_ns": start, "end_ns": end}


class SummaryStatistics(unittest.TestCase):
    def test_median_odd_and_even(self):
        self.assertEqual(analysis.median([3, 1, 2]), 2)
        self.assertEqual(analysis.median([4, 1, 3, 2]), 2.5)

    def test_quartiles_match_statistics_quantiles(self):
        values = [10.0, 12.0, 11.0, 15.0, 9.0, 13.0, 14.0, 10.5, 11.5, 12.5]
        q1, med, q3 = analysis.quartiles(values)
        self.assertEqual((q1, med, q3),
                         tuple(statistics.quantiles(values, n=4)))
        self.assertEqual(med, statistics.median(values))
        self.assertLess(q1, med)
        self.assertLess(med, q3)

    def test_quartiles_of_one_value(self):
        self.assertEqual(analysis.quartiles([7.0]), (7.0, 7.0, 7.0))

    def test_spread_is_iqr_over_median(self):
        values = [1.0, 2.0, 3.0, 4.0, 5.0]
        q1, med, q3 = statistics.quantiles(values, n=4)
        self.assertAlmostEqual(analysis.spread(values), (q3 - q1) / med)

    def test_fail_ratio(self):
        self.assertEqual(analysis.fail_ratio(0, 45), 0.0)
        self.assertEqual(analysis.fail_ratio(9, 45), 0.2)
        # Nothing attempted is a failure, never a clean zero.
        self.assertEqual(analysis.fail_ratio(0, 0), 1.0)


class SelfTime(unittest.TestCase):
    def test_leaf_self_time_is_its_duration(self):
        spans = [span(1, "a", 0, 100, 250)]
        self.assertEqual(analysis.self_times(spans), {1: 150})

    def test_nested_children_are_subtracted(self):
        spans = [span(1, "phase", 0, 0, 1000),
                 span(2, "cell", 1, 100, 600),
                 span(3, "vm", 2, 200, 300),
                 span(4, "vm", 2, 400, 500)]
        selfs = analysis.self_times(spans)
        self.assertEqual(selfs[1], 1000 - 500)
        self.assertEqual(selfs[2], 500 - 200)
        self.assertEqual(selfs[3], 100)
        self.assertEqual(selfs[4], 100)

    def test_overlapping_parallel_children_count_once(self):
        # Two pool workers ran children at the same time: the parent's
        # covered interval is their union, 100..400.
        spans = [span(1, "phase", 0, 0, 500),
                 span(2, "x", 1, 100, 300),
                 span(3, "x", 1, 200, 400)]
        self.assertEqual(analysis.self_times(spans)[1], 500 - 300)

    def test_child_outside_parent_is_clipped(self):
        spans = [span(1, "p", 0, 100, 200), span(2, "c", 1, 50, 150)]
        self.assertEqual(analysis.self_times(spans)[1], 50)


class LayerMetrics(unittest.TestCase):
    def run_record(self):
        return {
            "jobs": 4,
            "spans": [span(1, "phase.execute", 0, 0, 2_000_000_000),
                      span(2, "vm.execute", 1, 0, 1_500_000_000, cell=0),
                      span(3, "vm.execute", 1, 0, 500_000_000, cell=1)],
            "counts": {"vm.instructions": 4_000_000_000},
            "phases": {"execute": {"wall_s": 2.0, "cpu_s": 4.0}},
        }

    def test_sums_max_and_ratios(self):
        m = analysis.layer_metrics(self.run_record())
        self.assertAlmostEqual(m["vm.execute_s"], 2.0)
        self.assertAlmostEqual(m["vm.cell_max_s"], 1.5)
        self.assertAlmostEqual(m["vm.mips"], 2000.0)
        self.assertAlmostEqual(m["exec.utilization.execute"], 0.5)

    def test_idle_layers_report_zero(self):
        m = analysis.layer_metrics(self.run_record())
        self.assertEqual(m["trace.record_s"], 0)
        self.assertEqual(m["predict.ns_per_event_predictor"], 0.0)
        self.assertEqual(m["exec.utilization.tournament"], 0.0)
        for name in analysis.SELF_TIME:
            self.assertIn(name, m)


class OutputCheck(unittest.TestCase):
    def setUp(self):
        self.expected = {
            "li/8queens": {"trace.events": "100", "trace.branch_events": "90",
                           "zoo.branch_events": "90",
                           "zoo.tage.branches": "90",
                           "zoo.tage.mispredicts": "7"},
            "analysis/figure1": {"rows": "45", "digest": "00ff"},
        }
        self.stats = {"li/8queens": {"stats.instructions": "1000"}}
        self.produced = {g: dict(k) for g, k in self.expected.items()}
        self.produced["li/8queens"]["trace.stats.instructions"] = "1000"

    def check(self, errors=()):
        return analysis.check(self.produced, list(errors), self.expected,
                              self.stats)

    def test_matching_outputs_pass(self):
        attempted, failed = self.check()
        self.assertEqual(attempted, 2)
        self.assertEqual(failed, {})

    def test_corrupted_expected_value_fails_that_cell(self):
        self.expected["li/8queens"]["zoo.tage.mispredicts"] = "8"
        attempted, failed = self.check()
        self.assertEqual(list(failed), ["li/8queens"])
        self.assertEqual(analysis.fail_ratio(len(failed), attempted), 0.5)

    def test_missing_and_unexpected_keys_fail(self):
        del self.produced["analysis/figure1"]["digest"]
        self.produced["li/8queens"]["extra"] = "1"
        _, failed = self.check()
        self.assertEqual(set(failed), {"analysis/figure1", "li/8queens"})

    def test_trace_stats_must_equal_runner_stats(self):
        self.produced["li/8queens"]["trace.stats.instructions"] = "999"
        _, failed = self.check()
        self.assertIn("li/8queens", failed)

    def test_every_zoo_member_scores_every_branch_event(self):
        self.expected["li/8queens"]["zoo.tage.branches"] = "89"
        self.produced["li/8queens"]["zoo.tage.branches"] = "89"
        _, failed = self.check()
        self.assertIn("li/8queens", failed)

    def test_characterize_branches_equal_trace_branches(self):
        for d in (self.expected, self.produced):
            d["li/8queens"]["characterize.branches"] = "91"
        _, failed = self.check()
        self.assertIn("li/8queens", failed)

    def test_a_throw_fails_its_group(self):
        attempted, failed = self.check(
            [("li/9queens", "stats", "instruction budget exceeded")])
        self.assertEqual(attempted, 3)
        self.assertEqual(set(failed), {"li/9queens"})

    def test_expected_file_round_trip_drops_trace_stats(self):
        with tempfile.TemporaryDirectory() as d:
            path = os.path.join(d, "w.tsv")
            analysis.write_expected(path, self.produced)
            self.assertEqual(analysis.read_expected(path), self.expected)


if __name__ == "__main__":
    unittest.main()
