"""Self-tests of the benchmark's own arithmetic (no build, no processes).

    python3 stepbench/test_stepbench.py
"""

import sys

sys.dont_write_bytecode = True

import json  # noqa: E402
import os  # noqa: E402
import statistics  # noqa: E402
import unittest  # noqa: E402

import report  # noqa: E402
import run  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))


def span(name, tid, start, dur, **args):
    return {"ph": "X", "pid": 1, "tid": tid, "name": name, "cat": "x",
            "ts": start, "dur": dur, "args": args}


def step_record(step, episode=0, job=0, measured=True, wall_ms=100.0):
    return {"type": "step", "episode": episode, "traced": 1, "job": job,
            "step": step, "measured": int(measured), "wall_ms": wall_ms,
            "solve_ms": 80.0, "deposit_ms": 5.0, "phase_solve_ms": 80.0,
            "gather_ms": 4.0, "push_ms": 1.0, "gpu_ms": 0.5,
            "forecast_mae": 0.25, "kernel_intervals": 1000,
            "fallback_items": 50, "warp_instructions": 2000,
            "active_lane_slots": 60000, "lane_slots": 64000,
            "l1_transactions": 500, "l1_hits": 400, "l1_misses": 100,
            "force": "f%d" % step, "kernel": "k%d" % step}


def episode_record(measured_steps, measured_wall_s, setup_s, episode=0):
    return {"type": "episode", "episode": episode, "traced": 1,
            "setup_s": setup_s, "wall_s": 1.0,
            "measured_wall_s": measured_wall_s,
            "measured_steps": measured_steps, "failures": [],
            "peak_rss_mb": 100.0,
            "metrics": {
                "counters": {"rp.kernel_evaluations": 4000,
                             "rp.fallback_evaluations": 200,
                             "kmeans.pruned_distances": 30,
                             "kmeans.full_distances": 70,
                             "simt.launches": 4, "pool.jobs": 10,
                             "fleet.evictions": 2, "fleet.resumes": 2},
                "histograms": {"predictive.kmeans_iterations": [2, 6.0]},
                "gauges": {"predictive.warm_start_hits": [1.0, 1],
                           "checkpoint.bytes": [3000.0, 2]}}}


# One measured solo step (step 2) on the main thread (tid 1), with a worker
# lane (tid 2) helping in the lane pass; times in microseconds.
SOLO_TRACE = {"traceEvents": [
    span("sim.step", 1, 0.0, 50.0, step=1),  # bootstrap: not measured
    span("sim.step", 1, 100.0, 1000.0, step=2),
    span("sim.deposit", 1, 101.0, 9.0),
    span("sim.solve", 1, 110.0, 880.0),
    span("predictive.forecast", 1, 111.0, 20.0),
    span("pool.job", 1, 112.0, 10.0),
    span("rp.compute_integral", 1, 140.0, 700.0),
    span("simt.launch", 1, 150.0, 680.0),
    span("simt.lane_pass", 1, 151.0, 500.0),
    span("pool.job", 1, 152.0, 490.0),
    span("pool.work", 2, 153.0, 480.0),
    span("simt.cache_replay", 1, 660.0, 160.0),
    span("rp.fallback", 1, 850.0, 100.0),
    span("simt.launch", 1, 860.0, 80.0),
    span("simt.lane_pass", 1, 861.0, 60.0),
    span("simt.cache_replay", 1, 925.0, 10.0),
    span("predictive.learn", 1, 960.0, 25.0),
    span("sim.gather", 1, 992.0, 6.0),
    span("sim.push", 1, 1098.0, 1.0),
]}


class AggregationTest(unittest.TestCase):
    def test_median_and_quartile_spread(self):
        values = [10.0, 12.0, 11.0, 13.0, 9.0, 14.0, 10.5, 11.5, 12.5, 8.0]
        q1, q2, q3 = statistics.quantiles(values, n=4)
        self.assertEqual(report.median(values), 11.25)
        self.assertAlmostEqual(report.quartile_spread(values),
                               (q3 - q1) / q2)
        self.assertAlmostEqual(q1, 9.75)
        self.assertAlmostEqual(q3, 12.625)

    def test_end_to_end_medians_and_counts(self):
        episodes = [episode_record(2, 0.5, 0.3), episode_record(2, 0.3, 0.5),
                    episode_record(2, 0.2, 0.4)]
        steps = [step_record(k, episode=e, wall_ms=w) for e, k, w in
                 ((0, 1, 900.0), (0, 2, 100.0), (0, 3, 300.0),
                  (1, 2, 200.0), (1, 3, 260.0), (2, 2, 500.0),
                  (2, 3, 900.0))]
        steps[0]["measured"] = 0
        values, counts = report.end_to_end(episodes, steps)
        # Median of the episodes' rates 4, 6.67 and 10 steps/s.
        self.assertAlmostEqual(values["steps_per_s"], 2 / 0.3)
        # Median of the episode medians 200, 230 and 700 (step 1 excluded).
        self.assertEqual(values["step_ms_p50"], 230.0)
        self.assertEqual(values["setup_s"], 0.4)
        self.assertEqual(counts["step_ms_p50"], 6)
        self.assertEqual(counts["setup_s"], 3)
        self.assertAlmostEqual(values["model_warp_exec_eff"], 60 / 64)
        self.assertAlmostEqual(values["model_l1_hit_rate"], 0.8)


class SelfTimeTest(unittest.TestCase):
    def test_self_times_partition_the_measured_step(self):
        roots = report.build_forest(report.span_events(SOLO_TRACE))
        step = [r for r in roots if r["args"].get("step") == 2]
        times = report.self_times(step)
        self.assertAlmostEqual(times["simt.lane_pass_ms"], 0.560)
        self.assertAlmostEqual(times["simt.cache_replay_ms"], 0.170)
        self.assertAlmostEqual(times["simt.launch_self_ms"], 0.030)
        self.assertAlmostEqual(times["rp.integral_self_ms"], 0.020)
        self.assertAlmostEqual(times["rp.fallback_self_ms"], 0.020)
        self.assertAlmostEqual(times["predictive.forecast_ms"], 0.020)
        self.assertAlmostEqual(times["predictive.learn_ms"], 0.025)
        self.assertAlmostEqual(times["beam.deposit_ms"], 0.009)
        self.assertAlmostEqual(times["beam.push_ms"], 0.001)
        # sim.solve's own time is not a layer: it is unattributed.
        self.assertAlmostEqual(times["trace.unattributed_ms"], 0.035)
        self.assertAlmostEqual(times["sim.other_ms"], 0.104)
        self.assertAlmostEqual(sum(times.values()), 1.0)

    def test_straddling_span_is_rejected(self):
        bad = {"traceEvents": [span("sim.step", 1, 0.0, 10.0),
                               span("sim.deposit", 1, 5.0, 10.0)]}
        with self.assertRaises(ValueError):
            report.build_forest(report.span_events(bad))

    def test_solo_per_layer_adds_up_to_step(self):
        steps = [step_record(1, measured=False), step_record(2)]
        layers, residual = report.per_layer(
            SOLO_TRACE, episode_record(1, 0.1, 0.05), steps, 2, False, 10.0)
        self.assertAlmostEqual(layers["sim.step_ms"], 1.0)
        self.assertAlmostEqual(layers["sim.solve_ms"], 0.88)
        self.assertAlmostEqual(residual, 0.0)
        self.assertAlmostEqual(layers["pool.busy_fraction"],
                               480.0 / (2 * 500.0))
        self.assertAlmostEqual(layers["trace_overhead_frac"], 0.0)
        self.assertAlmostEqual(layers["rp.fallback_share"], 0.05)
        self.assertAlmostEqual(layers["kmeans.pruned_fraction"], 0.3)
        self.assertEqual(layers["fleet.round_ms"], 0.0)

    def test_fleet_per_layer_adds_up_to_lane_time(self):
        # Two lanes: the scheduling thread (tid 1) runs one quantum inside
        # its round, a worker (tid 2) runs another and then idles.
        trace = {"traceEvents": [
            span("fleet.round", 1, 0.0, 100000.0),
            span("pool.job", 1, 10.0, 99980.0),
            span("fleet.quantum", 1, 20.0, 99000.0),
            span("rp.compute_integral", 1, 30.0, 50000.0),
            span("simt.launch", 1, 40.0, 49000.0),
            span("fleet.evict", 1, 90000.0, 5000.0),
            span("pool.work", 2, 15.0, 60000.0),
            span("fleet.quantum", 2, 20.0, 59000.0),
            span("rp.fallback", 2, 100.0, 20000.0),
        ]}
        steps = [step_record(k, job=j) for j in (0, 1) for k in (1, 2)]
        layers, residual = report.per_layer(
            trace, episode_record(2, 0.2, 0.1), steps, 2, True, 10.0)
        n = len(steps)
        self.assertAlmostEqual(layers["fleet.round_ms"], 200.0 / n)
        self.assertAlmostEqual(layers["fleet.lane_busy_fraction"],
                               158.0 / 200.0)
        self.assertAlmostEqual(layers["fleet.lane_idle_ms"], 42.0 / n)
        self.assertAlmostEqual(layers["fleet.evict_ms"], 5.0 / n)
        self.assertAlmostEqual(layers["beam.deposit_ms"], 5.0)
        self.assertAlmostEqual(residual, 0.0, places=9)
        self.assertAlmostEqual(
            sum(layers[m] for m in report.PARTITION), layers["fleet.round_ms"])


class MetricNamesTest(unittest.TestCase):
    def setUp(self):
        with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
            self.bench = json.load(f)

    def test_benchmark_json_matches_emitted_end_to_end_metrics(self):
        episodes = [episode_record(1, 0.1, 0.05)]
        steps = [step_record(1, measured=False), step_record(2)]
        values, counts = report.end_to_end(episodes, steps)
        declared = {m["name"]: (m["unit"], m["better"])
                    for m in self.bench["end_to_end"]}
        self.assertEqual(set(values), set(declared))
        self.assertEqual(set(counts), set(declared))
        self.assertEqual(declared, report.END_TO_END)

    def test_benchmark_json_matches_emitted_per_layer_metrics(self):
        steps = [step_record(1, measured=False), step_record(2)]
        layers, _ = report.per_layer(SOLO_TRACE, episode_record(1, 0.1, 0.05),
                                     steps, 2, False, 10.0)
        declared = {m["name"]: m["unit"] for m in self.bench["per_layer"]}
        self.assertEqual(set(layers), set(declared))
        self.assertEqual(declared, report.PER_LAYER)

    def test_workloads_match_run_py(self):
        self.assertEqual([w["name"] for w in self.bench["workloads"]],
                         list(run.WORKLOADS))


class DigestCheckTest(unittest.TestCase):
    HEADER = {"sims": [{"key": "rigid-32/1", "steps": 2},
                       {"key": "evolving-32/2", "steps": 2}]}
    EXPECTED = {"rigid-32/1": [["f1", "k1"], ["f2", "k2"]],
                "evolving-32/2": [["f1", "k1"], ["f2", "k2"]]}

    def test_all_steps_match(self):
        steps = [step_record(k, job=j) for j in (0, 1) for k in (1, 2)]
        attempted, failed, problems = run.check_digests(
            self.HEADER, steps, [episode_record(2, 1.0, 0.1)], self.EXPECTED)
        self.assertEqual((attempted, failed, problems), (4, 0, []))

    def test_mismatch_and_missing_steps_fail(self):
        steps = [step_record(k, job=0) for k in (1, 2)]
        steps[1]["kernel"] = "other"
        attempted, failed, problems = run.check_digests(
            self.HEADER, steps, [episode_record(2, 1.0, 0.1)], self.EXPECTED)
        self.assertEqual((attempted, failed), (4, 3))
        self.assertEqual(len(problems), 3)

    def test_expected_digests_cover_every_seed_and_job(self):
        with open(run.DIGESTS) as f:
            expected = json.load(f)
        for seed in run.DEV_SEEDS + (run.HELD_OUT_SEED,):
            for key in ("rigid-64/%d" % seed, "evolving-64/%d" % seed,
                        "rigid-32/%d" % seed, "rigid-32/%d" % (seed + 1),
                        "evolving-32/%d" % (seed + 2),
                        "evolving-32/%d" % (seed + 3)):
                self.assertIn(key, expected)


if __name__ == "__main__":
    unittest.main()
