"""Metrics of the whole-step benchmark, computed from the stepbench binary's
JSON records and from the chrome trace of a traced episode.

Pure functions only (no processes, no files): run.py drives the binary and
test_stepbench.py checks this arithmetic on synthetic inputs.
"""

import statistics

# Name -> (unit, better) of every end-to-end metric a --trace 0 run prints.
END_TO_END = {
    "steps_per_s": ("steps/s", "higher"),
    "step_ms_p50": ("ms", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "model_gpu_ms_per_step": ("model_ms", "lower"),
    "model_warp_exec_eff": ("fraction", "higher"),
    "model_l1_hit_rate": ("fraction", "higher"),
}

# Name -> unit of every per-layer metric a --trace 1 run prints. Times are
# ms of one thread per step; see README.md for each metric's source.
PER_LAYER = {
    "sim.step_ms": "ms",
    "sim.solve_ms": "ms",
    "sim.other_ms": "ms",
    "beam.deposit_ms": "ms",
    "beam.gather_ms": "ms",
    "beam.push_ms": "ms",
    "predictive.forecast_ms": "ms",
    "predictive.cluster_ms": "ms",
    "predictive.learn_ms": "ms",
    "predictive.forecast_mae": "count",
    "predictive.kmeans_iterations": "count",
    "predictive.warm_start_hits": "count",
    "kmeans.pruned_fraction": "fraction",
    "rp.integral_self_ms": "ms",
    "rp.fallback_self_ms": "ms",
    "rp.kernel_intervals": "count",
    "rp.fallback_items": "count",
    "rp.fallback_share": "fraction",
    "rp.kernel_evaluations": "count",
    "rp.fallback_evaluations": "count",
    "rp.host_ns_per_eval": "ns",
    "simt.lane_pass_ms": "ms",
    "simt.cache_replay_ms": "ms",
    "simt.launch_self_ms": "ms",
    "simt.launches": "count",
    "simt.warp_instructions": "count",
    "simt.l1_transactions": "count",
    "simt.host_ns_per_warp_instruction": "ns",
    "simt.host_ns_per_l1_transaction": "ns",
    "pool.jobs": "count",
    "pool.busy_fraction": "fraction",
    "fleet.round_ms": "ms",
    "fleet.lane_busy_fraction": "fraction",
    "fleet.lane_idle_ms": "ms",
    "fleet.evictions": "count",
    "fleet.resumes": "count",
    "fleet.evict_ms": "ms",
    "checkpoint.bytes": "bytes",
    "trace.unattributed_ms": "ms",
    "trace_overhead_frac": "fraction",
}

# Span name -> per-layer metric that receives the span's self time. Spans
# not named here (sim.solve's own time, for one) go to trace.unattributed_ms.
SELF_TIME_METRIC = {
    "sim.step": "sim.other_ms",
    "sim.deposit": "beam.deposit_ms",
    "sim.gather": "beam.gather_ms",
    "sim.push": "beam.push_ms",
    "predictive.forecast": "predictive.forecast_ms",
    "predictive.cluster_merge": "predictive.cluster_ms",
    "predictive.learn": "predictive.learn_ms",
    "rp.compute_integral": "rp.integral_self_ms",
    "rp.fallback": "rp.fallback_self_ms",
    "simt.launch": "simt.launch_self_ms",
    "simt.lane_pass": "simt.lane_pass_ms",
    "simt.cache_replay": "simt.cache_replay_ms",
    "fleet.evict": "fleet.evict_ms",
}

# Pool spans cut across every layer (the lane pass, k-means, deposit all
# fork-join through the pool): their time belongs to the span that issued
# the parallel loop, so self-time attribution looks through them.
TRANSPARENT_SPANS = {"pool.job", "pool.work"}

# The per-layer metrics that add up to sim.step_ms (solo) or to
# fleet.round_ms (fleet).
PARTITION = sorted(set(SELF_TIME_METRIC.values()) |
                   {"trace.unattributed_ms", "fleet.lane_idle_ms"})

# Containment slack: chrome ts/dur carry three decimals of microseconds.
EPS_US = 0.01


def median(values):
    return statistics.median(values)


def quartile_spread(values):
    """(q3 - q1) / median, with quartiles as statistics.quantiles(n=4)."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


# ---------------------------------------------------------------------------
# Span containment
# ---------------------------------------------------------------------------


def span_events(chrome):
    """Complete ("X") events of a chrome trace as dicts with name, tid,
    start, end (microseconds) and args."""
    out = []
    for e in chrome["traceEvents"]:
        if e.get("ph") != "X":
            continue
        start = float(e["ts"])
        out.append({"name": e["name"], "tid": e["tid"], "start": start,
                    "end": start + float(e["dur"]),
                    "args": e.get("args", {})})
    return out


def build_forest(events):
    """Nests each thread's non-transparent spans by containment.

    Returns the root spans; every span gets a "children" list and a
    "self_us" (its duration minus the duration of its direct children)."""
    by_tid = {}
    for e in events:
        if e["name"] not in TRANSPARENT_SPANS:
            by_tid.setdefault(e["tid"], []).append(dict(e, children=[]))
    roots = []
    for spans in by_tid.values():
        spans.sort(key=lambda s: (s["start"], -s["end"]))
        stack = []
        for s in spans:
            while stack and s["start"] >= stack[-1]["end"] - EPS_US:
                stack.pop()
            if stack:
                parent = stack[-1]
                if s["end"] > parent["end"] + EPS_US:
                    raise ValueError(
                        "span %s straddles the end of %s" %
                        (s["name"], parent["name"]))
                parent["children"].append(s)
            else:
                roots.append(s)
            stack.append(s)
    for root in roots:
        for s in walk(root):
            s["self_us"] = (s["end"] - s["start"]) - sum(
                c["end"] - c["start"] for c in s["children"])
    return roots


def walk(span):
    yield span
    for c in span["children"]:
        yield from walk(c)


def self_times(roots):
    """Self time (ms) of every span in the given trees, summed per
    per-layer metric; unmapped spans go to trace.unattributed_ms."""
    out = {m: 0.0 for m in SELF_TIME_METRIC.values()}
    out["trace.unattributed_ms"] = 0.0
    for root in roots:
        for s in walk(root):
            metric = SELF_TIME_METRIC.get(s["name"], "trace.unattributed_ms")
            out[metric] += s["self_us"] / 1e3
    return out


def total_ms(spans, name):
    return sum(s["end"] - s["start"] for s in spans
               if s["name"] == name) / 1e3


# ---------------------------------------------------------------------------
# End-to-end metrics (--trace 0)
# ---------------------------------------------------------------------------


def model_steps(steps):
    """Steps after each simulation's bootstrap step: a fixed set per
    workload and seed, so model_* metrics repeat exactly."""
    return [s for s in steps if s["step"] > 1]


def model_metrics(steps):
    ms = model_steps(steps)
    lanes = sum(s["lane_slots"] for s in ms)
    l1 = sum(s["l1_hits"] + s["l1_misses"] for s in ms)
    return {
        "model_gpu_ms_per_step": sum(s["gpu_ms"] for s in ms) / len(ms),
        "model_warp_exec_eff":
            sum(s["active_lane_slots"] for s in ms) / lanes,
        "model_l1_hit_rate": sum(s["l1_hits"] for s in ms) / l1,
    }


def steps_per_s(episodes):
    """Median over episodes of measured steps / their wall time: one slow
    episode (a noisy neighbour) does not move it."""
    return median([e["measured_steps"] / e["measured_wall_s"]
                   for e in episodes])


def end_to_end(episodes, steps):
    """The end-to-end metrics of untraced episodes and their steps.
    Returns (values, sample counts).

    step_ms_p50 is the median over episodes of each episode's median step
    time: an episode that a scheduling race or a noisy neighbour slowed
    (or, on the fleet, serialised onto one lane) does not move it.
    peak_rss_mb is the process's peak RSS when the last episode ends."""
    timed = {}
    for s in steps:
        if s["measured"] and s["wall_ms"] >= 0:
            timed.setdefault(s["episode"], []).append(s["wall_ms"])
    values = {
        "steps_per_s": steps_per_s(episodes),
        "step_ms_p50": median([median(v) for v in timed.values()]),
        "setup_s": median([e["setup_s"] for e in episodes]),
        "peak_rss_mb": episodes[-1]["peak_rss_mb"],
    }
    values.update(model_metrics(steps))
    counts = {
        "steps_per_s": sum(e["measured_steps"] for e in episodes),
        "step_ms_p50": sum(len(v) for v in timed.values()),
        "setup_s": len(episodes),
        "peak_rss_mb": 1,
    }
    for name in ("model_gpu_ms_per_step", "model_warp_exec_eff",
                 "model_l1_hit_rate"):
        counts[name] = len(model_steps(steps))
    return values, counts


# ---------------------------------------------------------------------------
# Per-layer metrics (--trace 1)
# ---------------------------------------------------------------------------


def _counter(metrics, name):
    return metrics["counters"].get(name, 0)


def _hist_sum(metrics, name):
    return metrics["histograms"].get(name, [0, 0.0])[1]


def _gauge_sum(metrics, name):
    return metrics["gauges"].get(name, [0.0, 0])[0]


def _gauge_mean(metrics, name):
    total, n = metrics["gauges"].get(name, [0.0, 0])
    return total / n if n else 0.0


def _ratio(num, den):
    return num / den if den else 0.0


def per_layer(chrome, episode, steps, pool_threads, fleet,
              untraced_steps_per_s):
    """Per-layer metrics of one traced episode.

    Solo workloads: spans of the measured steps (sim.step with step > 1) on
    the thread that ran them; counters of the same steps.
    Fleet: lane time, i.e. pool_threads x the fleet.round spans, split into
    quantum self time (minus the StepStats phase times of the steps it ran),
    the solver spans the TimedSolver routed into the session, eviction and
    idle lanes; counters and steps of the whole episode.
    Returns the metrics and the identity residual in ms (see README.md)."""
    events = span_events(chrome)
    metrics = episode["metrics"]
    counted = steps if fleet else [s for s in steps if s["measured"]]
    n = len(counted)
    out = {name: 0.0 for name in PER_LAYER}

    roots = build_forest(events)
    if fleet:
        windows = [r for r in roots if r["name"] == "fleet.round"]
        trees = [s for r in roots for s in walk(r)
                 if s["name"] == "fleet.quantum"]
        lane_ms = pool_threads * total_ms(windows, "fleet.round")
        busy_ms = total_ms(trees, "fleet.quantum")
        times = self_times(trees)
        # Quantum self time holds the steps' deposit/gather/push (their
        # sim.* spans go to the job's private session): take them out.
        beam = {
            "beam.deposit_ms": sum(s["deposit_ms"] for s in steps),
            "beam.gather_ms": sum(s["gather_ms"] for s in steps),
            "beam.push_ms": sum(s["push_ms"] for s in steps),
        }
        times.update(beam)
        times["trace.unattributed_ms"] -= sum(beam.values())
        times["fleet.lane_idle_ms"] = lane_ms - busy_ms
        for name, v in times.items():
            out[name] = v / n
        out["sim.step_ms"] = sum(s["deposit_ms"] + s["phase_solve_ms"] +
                                 s["gather_ms"] + s["push_ms"]
                                 for s in steps) / n
        out["sim.solve_ms"] = sum(s["solve_ms"] for s in steps) / n
        out["fleet.round_ms"] = lane_ms / n
        out["fleet.lane_busy_fraction"] = _ratio(busy_ms, lane_ms)
        out["fleet.evictions"] = _counter(metrics, "fleet.evictions") / n
        out["fleet.resumes"] = _counter(metrics, "fleet.resumes") / n
        out["checkpoint.bytes"] = _gauge_mean(metrics, "checkpoint.bytes")
        target_ms = lane_ms
        traced_sps = steps_per_s([episode])
    else:
        windows = trees = [r for r in roots if r["name"] == "sim.step"
                           and r["args"].get("step", 0) > 1]
        for name, v in self_times(trees).items():
            out[name] = v / n
        target_ms = total_ms(trees, "sim.step")
        out["sim.step_ms"] = target_ms / n
        traced_sps = n / sum(s["wall_ms"] / 1e3 for s in counted)
    in_trees = [s for t in trees for s in walk(t)]
    if not fleet:
        out["sim.solve_ms"] = total_ms(in_trees, "sim.solve") / n

    # The self times, unattributed and idle time partition the step (solo)
    # or the lane time (fleet); the residual is rounding only.
    layer_ms = sum(out[m] for m in PARTITION)
    residual_ms = layer_ms * n - target_ms

    # Counts per step.
    out["predictive.forecast_mae"] = sum(
        s["forecast_mae"] for s in counted) / n
    out["predictive.kmeans_iterations"] = _hist_sum(
        metrics, "predictive.kmeans_iterations") / n
    out["predictive.warm_start_hits"] = _gauge_sum(
        metrics, "predictive.warm_start_hits") / n
    pruned = _counter(metrics, "kmeans.pruned_distances")
    full = _counter(metrics, "kmeans.full_distances")
    out["kmeans.pruned_fraction"] = _ratio(pruned, pruned + full)
    intervals = sum(s["kernel_intervals"] for s in counted)
    items = sum(s["fallback_items"] for s in counted)
    out["rp.kernel_intervals"] = intervals / n
    out["rp.fallback_items"] = items / n
    out["rp.fallback_share"] = _ratio(items, intervals)
    kernel_evals = _counter(metrics, "rp.kernel_evaluations")
    fallback_evals = _counter(metrics, "rp.fallback_evaluations")
    out["rp.kernel_evaluations"] = kernel_evals / n
    out["rp.fallback_evaluations"] = fallback_evals / n

    rp_ms = (total_ms(in_trees, "rp.compute_integral") +
             total_ms(in_trees, "rp.fallback"))
    out["rp.host_ns_per_eval"] = _ratio(rp_ms * 1e6,
                                        kernel_evals + fallback_evals)
    warp_instructions = sum(s["warp_instructions"] for s in counted)
    l1_transactions = sum(s["l1_transactions"] for s in counted)
    out["simt.launches"] = _counter(metrics, "simt.launches") / n
    out["simt.warp_instructions"] = warp_instructions / n
    out["simt.l1_transactions"] = l1_transactions / n
    out["simt.host_ns_per_warp_instruction"] = _ratio(
        total_ms(in_trees, "simt.lane_pass") * 1e6, warp_instructions)
    out["simt.host_ns_per_l1_transaction"] = _ratio(
        total_ms(in_trees, "simt.cache_replay") * 1e6, l1_transactions)

    # Pool spans that start inside the counted steps (solo) or rounds.
    pool = [e for e in events if e["name"] in TRANSPARENT_SPANS and any(
        w["start"] <= e["start"] <= w["end"] for w in windows)]
    out["pool.jobs"] = _counter(metrics, "pool.jobs") / n
    out["pool.busy_fraction"] = _ratio(
        total_ms(pool, "pool.work"), pool_threads * total_ms(pool, "pool.job"))
    out["trace_overhead_frac"] = 1.0 - traced_sps / untraced_steps_per_s
    return out, residual_ms
