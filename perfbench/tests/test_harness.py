"""Self-tests of the benchmark harness (no build needed):

    python3 -m unittest discover -s perfbench/tests
"""

import json
import sys
import unittest
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH_DIR))

import harness  # noqa: E402


def record(spec, energy=-1.0, exact=-1.1, hf=-0.9, wall=1.5, ok=True, tuned=None):
    fields = {"problem": "molecule:H2", "ok": ok, "cafqa_energy": energy,
              "reference_energy": hf, "exact_energy": exact}
    if tuned is not None:
        fields["tuned_value"] = tuned
    fields["wall_ms"] = wall
    fields["spec"] = spec
    return json.dumps(fields, separators=(",", ":"))


def job(spec="problem=molecule:H2?bond=0.74 seed=3", latency=10.0, cycle=0, **kwargs):
    return {"spec": spec, "cycle": cycle, "latency_ms": latency,
            "record": record(spec, **kwargs)}


class PercentileTest(unittest.TestCase):
    def test_single_sample_is_every_percentile(self):
        self.assertEqual(harness.percentile([7.0], 50), 7.0)
        self.assertEqual(harness.percentile([7.0], 99), 7.0)
        self.assertEqual(harness.samples_beyond(1, 99), 0)

    def test_nearest_rank_is_a_sample(self):
        samples = [5.0, 1.0, 4.0, 2.0, 3.0]
        self.assertEqual(harness.percentile(samples, 50), 3.0)
        self.assertEqual(harness.percentile(samples, 20), 1.0)
        self.assertEqual(harness.percentile(samples, 21), 2.0)
        self.assertEqual(harness.percentile(samples, 100), 5.0)

    def test_even_count_median_uses_lower_middle(self):
        self.assertEqual(harness.percentile([1.0, 2.0, 3.0, 4.0], 50), 2.0)
        self.assertEqual(harness.median([1.0, 2.0, 3.0, 4.0]), 2.5)

    def test_p99_tail_sample_count(self):
        samples = list(range(1000))
        self.assertEqual(harness.percentile(samples, 99), 989)
        self.assertEqual(harness.samples_beyond(1000, 99), 10)
        self.assertEqual(harness.samples_beyond(999, 99), 9)
        self.assertEqual(harness.samples_beyond(100, 99), 1)
        self.assertEqual(harness.samples_beyond(0, 99), 0)

    def test_rejects_empty_and_bad_rank(self):
        with self.assertRaises(ValueError):
            harness.percentile([], 50)
        with self.assertRaises(ValueError):
            harness.percentile([1.0], 0)
        with self.assertRaises(ValueError):
            harness.median([])

    def test_ties(self):
        self.assertEqual(harness.percentile([2.0, 2.0, 2.0, 9.0], 75), 2.0)


class FailedCountTest(unittest.TestCase):
    def test_clean_run(self):
        raw = {"jobs": [job(), job(cycle=1)]}
        self.assertEqual(harness.check_run(raw), (2, 0, []))

    def test_reject_counts_as_failed(self):
        rejected = {"spec": "problem=molecule:H2 seed=1", "cycle": 0,
                    "latency_ms": 1.0, "rejected": True,
                    "error": "rejected: queue full"}
        attempted, failed, violations = harness.check_run({"jobs": [job(), rejected]})
        self.assertEqual((attempted, failed), (2, 1))
        self.assertIn("queue full", violations[0][1][0])

    def test_energy_outside_exact_and_hf(self):
        below = job(spec="problem=a seed=1", energy=-1.2)
        above = job(spec="problem=b seed=1", energy=-0.8)
        unseeded = job(spec="problem=c seed=1 hf-seed=0", energy=-0.8)
        attempted, failed, _ = harness.check_run({"jobs": [below, above, unseeded]})
        self.assertEqual((attempted, failed), (3, 2))

    def test_record_not_ok(self):
        _, failed, _ = harness.check_run({"jobs": [job(ok=False)]})
        self.assertEqual(failed, 1)

    def test_repeat_must_match_first_apart_from_wall_ms(self):
        same = job(wall=99.0, cycle=1)
        drift = job(energy=-1.05, cycle=2)
        attempted, failed, _ = harness.check_run({"jobs": [job(), same, drift]})
        self.assertEqual((attempted, failed), (3, 1))

    def test_solo_and_traced_mismatches(self):
        raw = {
            "jobs": [job()],
            "solo": [job(energy=-1.01)],
            "traced": {"jobs": [job(energy=-1.02)]},
        }
        attempted, failed, violations = harness.check_run(raw)
        self.assertEqual((attempted, failed), (2, 2))
        self.assertEqual(len(violations), 2)

    def test_missing_solo_record_and_client_error(self):
        raw = {"jobs": [job()], "solo": [], "client_errors": ["reset"]}
        attempted, failed, _ = harness.check_run(raw)
        self.assertEqual((attempted, failed), (2, 2))

    def test_strip_wall_ms_anywhere_in_record(self):
        first = '{"a":1,"wall_ms":2.5,"b":2}'
        last = '{"a":1,"b":2,"wall_ms":3}'
        self.assertEqual(harness.strip_wall_ms(first), '{"a":1,"b":2}')
        self.assertEqual(harness.strip_wall_ms(last), '{"a":1,"b":2}')

    def test_result_is_incorrect_on_any_violation(self):
        raw = {"jobs": [job(), job(energy=-1.2, spec="problem=x seed=1")],
               "blocks": [{"jobs": 2, "wall_ms": 1000.0}],
               "wall_ms": 1000.0, "setup_ms": [1.0], "peak_rss_kib": 1024}
        _, result = harness.result_line(raw, False, ["jobs_per_s"], [])
        self.assertFalse(result["correct"])
        self.assertEqual((result["attempted"], result["failed"]), (2, 1))


class ThroughputTest(unittest.TestCase):
    def test_median_of_block_rates(self):
        raw = {"jobs": [job()] * 3, "wall_ms": 9000.0,
               "blocks": [{"jobs": 1, "wall_ms": 1000.0},
                          {"jobs": 1, "wall_ms": 4000.0},
                          {"jobs": 1, "wall_ms": 2000.0}]}
        self.assertEqual(harness.block_rates(raw), [1.0, 0.25, 0.5])
        self.assertEqual(harness.median(harness.block_rates(raw)), 0.5)


class MetricNameTest(unittest.TestCase):
    def test_declared_names_are_valid_and_unique(self):
        spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
        names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
        self.assertEqual(len(names), len(set(names)))
        for metric in spec["end_to_end"] + spec["per_layer"]:
            self.assertTrue(harness.valid_metric_name(metric["name"]), metric["name"])
            self.assertTrue(harness.valid_unit(metric["unit"]), metric["unit"])
        for metric in spec["end_to_end"]:
            self.assertEqual(harness.END_TO_END_UNITS[metric["name"]], metric["unit"])
            self.assertLessEqual(metric["bound"], 0.25)
        for metric in spec["per_layer"]:
            self.assertEqual(harness.PER_LAYER_UNITS[metric["name"]], metric["unit"])

    def test_setup_metric_is_declared(self):
        spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
        setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(setup[0]["unit"], "s")
        self.assertEqual(setup[0]["better"], "lower")

    def test_name_rules(self):
        for good in ["jobs_per_s", "surrogate.fit_ms.w16", "0x", "a-b"]:
            self.assertTrue(harness.valid_metric_name(good), good)
        for bad in ["", "_x", ".x", "a b", "a/b", "x" * 65]:
            self.assertFalse(harness.valid_metric_name(bad), bad)
        self.assertTrue(harness.valid_unit("1/s"))
        self.assertFalse(harness.valid_unit("per second"))


class TraceTest(unittest.TestCase):
    SPANS = [
        ["problem_build", 2, 1, 0.0, 2.0],
        ["search", 3, 1, 2.0, 10.0],
        ["search_eval", 4, 3, 2.0, 3.0],
        ["search_model", 5, 3, 3.0, 10.0],
        ["job", 1, 0, 0.0, 11.0],
    ]

    def test_self_time_subtracts_direct_children(self):
        own = harness.self_times(self.SPANS)
        self.assertAlmostEqual(own[1], 1.0)
        self.assertAlmostEqual(own[3], 0.0)
        self.assertAlmostEqual(own[5], 7.0)

    def test_layer_totals_and_coverage(self):
        totals = harness.layer_self_ms([{"spans": self.SPANS}])
        self.assertAlmostEqual(totals["search_model"], 7.0)
        self.assertAlmostEqual(totals["job"], 1.0)
        covered = sum(v for k, v in totals.items() if k != "job")
        self.assertAlmostEqual(covered / 11.0, 10.0 / 11.0)

    def test_chrome_trace_events(self):
        raw = {"traced": {"jobs": [{"spec": "s", "tid": 1, "spans": self.SPANS}]}, "jobs": []}
        events = harness.chrome_trace(raw)["traceEvents"]
        self.assertEqual(len(events), len(self.SPANS))
        self.assertTrue(all(e["ph"] == "X" and e["dur"] >= 0 for e in events))


class EnergyMetricTest(unittest.TestCase):
    def test_first_cycles_only(self):
        jobs = [job(energy=-1.0, tuned=-1.09), job(energy=-1.05, cycle=1)]
        metrics = harness.energy_metrics(jobs)
        self.assertAlmostEqual(metrics["energy_gap_mha"], 100.0)
        self.assertAlmostEqual(metrics["corr_recovered_pct"], 50.0)
        self.assertAlmostEqual(metrics["tuned_gap_mha"], 10.0)
        both = harness.energy_metrics(jobs, cycles=2)
        self.assertAlmostEqual(both["energy_gap_mha"], 75.0)

    def test_recovery_skips_jobs_hf_already_solves(self):
        jobs = [job(energy=-1.0), job(energy=-1.1, exact=-1.1, hf=-1.1)]
        metrics = harness.energy_metrics(jobs)
        self.assertAlmostEqual(metrics["corr_recovered_pct"], 50.0)
        self.assertAlmostEqual(metrics["energy_gap_mha"], 50.0)


if __name__ == "__main__":
    unittest.main()
