"""Tests of the benchmark's own logic.

    python3 perfbench/test_benchlib.py
"""

import json
import unittest

import benchlib


def sample_line(endpoint, status=200, ok=True, latency_us=1000.0,
                trace_id="-", start_us=0.0):
    return (f"{endpoint} {status} {int(ok)} {start_us:.3f} {latency_us:.3f} "
            f"{trace_id}")


def samples_of(lines, keep_trace=lambda trace_id: True):
    out = benchlib.Samples(keep_trace)
    for line in lines:
        out.add_line(line)
    return out


def log_line(trace_id, endpoint, queue_us, compute_us, render_us, status=200):
    return json.dumps({"trace_id": trace_id, "ts_us": 1.0, "endpoint": endpoint,
                       "circuit": "bench", "status": status,
                       "queue_us": queue_us, "compute_us": compute_us,
                       "render_us": render_us,
                       "total_us": queue_us + compute_us + render_us,
                       "deadline_slack_us": 0.0, "spans": 3})


class PercentileTest(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(1, 101))  # 1..100
        self.assertEqual(benchlib.percentile(values, 0.5), 50)
        self.assertEqual(benchlib.percentile(values, 0.9), 90)
        # Order of the input does not matter.
        self.assertEqual(benchlib.percentile(values[::-1], 0.9), 90)

    def test_rank_rounds_up(self):
        # 21 samples: rank ceil(0.5 * 21) = 11, so 10 samples lie beyond.
        values = [float(v) for v in range(21)]
        self.assertEqual(benchlib.percentile(values, 0.5), 10.0)

    def test_needs_ten_samples_beyond(self):
        self.assertIsNone(benchlib.percentile(list(range(19)), 0.5))
        self.assertEqual(benchlib.percentile(list(range(20)), 0.5), 9)
        self.assertIsNone(benchlib.percentile(list(range(99)), 0.9))
        self.assertEqual(benchlib.percentile(list(range(100)), 0.9), 89)
        self.assertIsNone(benchlib.percentile(list(range(999)), 0.99))
        self.assertEqual(benchlib.percentile(list(range(1000)), 0.99), 989)

    def test_empty(self):
        self.assertIsNone(benchlib.percentile([], 0.5))


class AccountingTest(unittest.TestCase):
    def test_rejections_and_failed_checks_count(self):
        samples = samples_of([
            sample_line("analyze"), sample_line("top-k"),
            sample_line("analyze", status=429),
            sample_line("top-k", status=504),
            sample_line("score-region", status=503),
            sample_line("top-k", ok=False),     # wrong ranking
            sample_line("analyze", status=0),   # transport failure
            "garbage"])                         # not a sample line
        self.assertEqual((samples.attempted, samples.failed), (7, 5))

    def test_failures_excluded_from_latency(self):
        samples = samples_of([
            sample_line("top-k", latency_us=2000.0),
            sample_line("score-region", latency_us=4000.0),
            sample_line("top-k", status=429, latency_us=10.0),
            sample_line("analyze", latency_us=9000.0)])
        self.assertEqual(list(samples.latencies(benchlib.READ_ENDPOINTS)),
                         [2.0, 4.0])
        self.assertEqual(list(samples.latencies(("analyze",))), [9.0])

    def test_trace_selection(self):
        samples = samples_of(
            [sample_line("top-k", trace_id="00000000000000a0"),
             sample_line("top-k", trace_id="00000000000000a1")],
            lambda trace_id: trace_id.endswith("0"))
        self.assertEqual(set(samples.round_trip_us), {"00000000000000a0"})

    def test_sampling_spreads_over_an_alternating_mix(self):
        # The daemon numbers requests 1, 2, 3, ...; in the query mix, odd
        # and even ids alternate between /top-k and /score-region.
        kept = [i for i in range(1, 16001)
                if benchlib.sampled_trace(f"{i:016x}")]
        self.assertTrue(800 <= len(kept) <= 1200)
        odd = sum(i % 2 for i in kept)
        self.assertTrue(0.4 <= odd / len(kept) <= 0.6)


class SliceRateTest(unittest.TestCase):
    def test_rates_per_slice(self):
        # 2 s window, 4 slices of 0.5 s; the last completion lands on the
        # window's end and counts in the last slice.
        rates = benchlib.slice_rates([0.1, 0.2, 0.7, 1.9, 2.0], 2.0, slices=4)
        self.assertEqual(rates, [4.0, 2.0, 0.0, 4.0])

    def test_stall_does_not_move_the_median(self):
        # One request completes every 10 ms for 10 s, except during a 1 s
        # stall: the mean rate drops by a tenth, the median slice rate not.
        samples = benchlib.Samples()
        for i in range(1000):
            if not 300 <= i < 400:
                samples.add_line(sample_line("top-k", start_us=i * 1e4,
                                             latency_us=5e3))
        samples.add_line(sample_line("top-k", status=429, start_us=0.0))
        samples.end_window(10.0)
        self.assertEqual(len(samples.slice_rates), benchlib.SLICES_PER_WINDOW)
        self.assertEqual(benchlib.median(samples.slice_rates), 100.0)
        self.assertEqual(sum(samples.slice_rates), 900.0)

    def test_windows_pool_their_slices(self):
        samples = benchlib.Samples()
        samples.add_line(sample_line("top-k", start_us=0.0))
        samples.end_window(1.0)
        samples.end_window(2.0)  # a window without completions
        self.assertEqual(len(samples.slice_rates),
                         2 * benchlib.SLICES_PER_WINDOW)
        self.assertEqual(sum(samples.slice_rates), 10.0)


class AccessLogTest(unittest.TestCase):
    def test_per_endpoint_medians_and_http(self):
        lines = [log_line("a1", "analyze", 100.0, 5000.0, 300.0),
                 log_line("a2", "analyze", 300.0, 7000.0, 500.0),
                 log_line("a3", "analyze", 200.0, 6000.0, 400.0),
                 log_line("t1", "top-k", 50.0, 20.0, 10.0),
                 # not an endpoint of the workloads
                 log_line("l1", "load", 0.0, 1e6, 10.0),
                 ""]
        samples = samples_of([
            sample_line("analyze", latency_us=5500.0, trace_id="a1"),
            sample_line("top-k", latency_us=180.0, trace_id="t1"),
            # not in the log
            sample_line("top-k", latency_us=999.0, trace_id="zz")])
        out = benchlib.aggregate_access_log(lines, samples.round_trip_us)
        self.assertAlmostEqual(out["serve.queue_ms.analyze"], 0.2)
        self.assertAlmostEqual(out["serve.compute_ms.analyze"], 6.0)
        self.assertAlmostEqual(out["serve.render_ms.analyze"], 0.4)
        self.assertAlmostEqual(out["serve.queue_ms.top-k"], 0.05)
        # Endpoint never seen: 0.
        self.assertEqual(out["serve.compute_ms.score-region"], 0.0)
        # Round trip minus server time: a1 5500-5400=100us, t1 180-80=100us.
        self.assertAlmostEqual(out["serve.http_ms"], 0.1)
        names = {f"serve.{p}_ms.{e}" for p in ("queue", "compute", "render")
                 for e in benchlib.ENDPOINTS} | {"serve.http_ms"}
        self.assertEqual(set(out), names)
        self.assertTrue(names <= set(benchlib.PER_LAYER))


class ResultLineTest(unittest.TestCase):
    def test_shape(self):
        values = {"setup_s": 1.5, "peak_rss_mb": 60.0, "throughput_ops": 4.0,
                  "analyze_p50_ms": 1200.25}  # reported, not gated
        line = json.loads(benchlib.result_line(True, 10, 0, values,
                                               benchlib.END_TO_END))
        self.assertEqual(set(line),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertEqual(set(line["metrics"]), set(benchlib.END_TO_END))
        self.assertEqual(line["metrics"]["setup_s"],
                         {"value": 1.5, "unit": "s"})


class BenchmarkJsonTest(unittest.TestCase):
    def test_metric_tables_match_benchmark_json(self):
        from pathlib import Path
        root = Path(__file__).resolve().parent.parent
        spec = json.loads((root / "BENCHMARK.json").read_text())
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]},
                         benchlib.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]},
                         benchlib.PER_LAYER)


if __name__ == "__main__":
    unittest.main()
