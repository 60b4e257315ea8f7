#!/usr/bin/env bash
# CI entry point: tier-1 build + full test suite, then a ThreadSanitizer
# pass over the concurrency-sensitive tests (thread pool, SIMT executor,
# rp-kernels/solvers, deposition, k-means, telemetry scopes, checkpoint
# writers, the simulation fleet) with an oversubscribed pool
# (BD_NUM_THREADS=8) so cross-thread interleavings actually happen.
#
# An ASan+UBSan stage reruns the whole suite under AddressSanitizer +
# UndefinedBehaviorSanitizer (unlike TSan, the overhead is small enough
# for all of it). The robustness surface — serialization, checkpoint
# restore, fault injection, input parsers — handles corrupt/adversarial
# bytes, so memory errors hide there first.
#
# A debug stage builds the SIMT model and solver suites without NDEBUG, so
# every BD_DCHECK runs — among them the four per-launch KernelMetrics
# counter identities in simt::launch, which every optimized preset
# compiles out.
#
# A faults stage reruns the fleet-supervisor suite under an ambient
# BD_FAULT sweep (grid_nan, forecast, slow_step, pool_throw): tests that
# pin a fault spec must stay deterministic, the rest must absorb each
# ambient class through the retry/quarantine machinery.
#
# A docs stage checks docs consistency (tools/check_docs.sh): every
# telemetry name documented in docs/METRICS.md and every documented name
# still used, no dead markdown links, the fleet journal's record kinds
# matching docs/ROBUSTNESS.md's record-kind table, and every documented
# PredictiveOptions/ClusteringAccel/RpClusteringOptions/KnnConfig member
# still declared in its header.
#
# A perf-smoke stage runs bench_rp_eval against the checked-in baseline
# (tools/perf_baseline_rp_eval.json). Eval counts are deterministic, so
# the gate catches real regressions: > 2% more integrand evaluations than
# the baseline, a solver saving < 25% vs the naive engine, or the scratch
# arena allocating after warm-up on the rigid steady-state workload.
# It also runs bench_clustering against
# tools/perf_baseline_clustering.json (the solver fallback-count ceiling;
# the reference/accel Lloyd distance-ratio floor and the accel/reference
# inertia-ratio ceiling at 128^2/256^2),
# bench_fleet against tools/perf_baseline_fleet.json (the
# fleet-vs-solo digest gate always applies; the aggregate speedup floor
# only engages on machines with enough hardware threads), bench_simd
# against tools/perf_baseline_simd.json (batched-vs-scalar bitwise
# identity and the >= 2x batched-vs-scalar throughput floor)
# and bench_scaling against tools/perf_baseline_scaling.json (sharded
# replay counters identical to serial always; the replay speedup floor
# only on hosts with >= 4 hardware threads).
#
# Usage: tools/ci.sh [tier1|tsan|asan|debug|faults|docs|perf-smoke|all]   (default: all)
set -euo pipefail
cd "$(dirname "$0")/.."

stage="${1:-all}"

tier1() {
  echo "=== tier-1: build + ctest (preset: default) ==="
  cmake --preset default
  cmake --build --preset default -j "$(nproc)"
  ctest --preset default -j "$(nproc)"
}

tsan() {
  echo "=== tsan: executor/solver tests under ThreadSanitizer ==="
  cmake --preset tsan
  cmake --build --preset tsan -j "$(nproc)" --target \
    test_parallel test_determinism test_executor test_rp_kernels \
    test_solvers test_deposit test_kmeans test_clustering test_telemetry \
    test_checkpoint test_fleet test_eval_engine test_health test_simulation \
    test_wake
  ctest --preset tsan -j 1
}

debug() {
  echo "=== debug: SIMT model + solver tests with BD_DCHECK live ==="
  cmake --preset debug
  cmake --build --preset debug -j "$(nproc)" --target \
    test_warp test_coalescer test_cache test_executor test_rp_kernels \
    test_solvers test_determinism
  ctest --preset debug -j "$(nproc)"
}

faults() {
  echo "=== faults: fleet supervisor suite under a BD_FAULT sweep ==="
  cmake --preset default
  cmake --build --preset default -j "$(nproc)" --target test_fleet
  for spec in "grid_nan@2:8" "forecast@3:2" "slow_step@2:40" "pool_throw@3"; do
    echo "--- BD_FAULT=$spec ---"
    BD_FAULT="$spec" ./build/tests/test_fleet
  done
}

asan() {
  echo "=== asan: full test suite under Address+UBSanitizer ==="
  cmake --preset asan
  cmake --build --preset asan -j "$(nproc)"
  ctest --preset asan -j "$(nproc)"
}

docs() {
  echo "=== docs: telemetry names + markdown links ==="
  tools/check_docs.sh
}

perf_smoke() {
  echo "=== perf-smoke: bench_rp_eval vs checked-in baseline ==="
  cmake --preset default
  cmake --build --preset default -j "$(nproc)" --target bench_rp_eval
  ./build/bench/bench_rp_eval \
    --json=BENCH_rp_eval.json \
    --check-baseline=tools/perf_baseline_rp_eval.json
  cmake --build --preset default -j "$(nproc)" --target bench_clustering
  ./build/bench/bench_clustering \
    --json=BENCH_clustering.json \
    --check-baseline=tools/perf_baseline_clustering.json
  cmake --build --preset default -j "$(nproc)" --target bench_fleet
  ./build/bench/bench_fleet \
    --json=BENCH_fleet.json \
    --check-baseline=tools/perf_baseline_fleet.json
  cmake --build --preset default -j "$(nproc)" --target bench_simd
  ./build/bench/bench_simd \
    --json=BENCH_simd.json \
    --check-baseline=tools/perf_baseline_simd.json
  cmake --build --preset default -j "$(nproc)" --target bench_scaling
  ./build/bench/bench_scaling \
    --json=BENCH_scaling.json \
    --check-baseline=tools/perf_baseline_scaling.json
}

case "$stage" in
  tier1) tier1 ;;
  tsan) tsan ;;
  asan) asan ;;
  debug) debug ;;
  faults) faults ;;
  docs) docs ;;
  perf-smoke) perf_smoke ;;
  all) tier1; tsan; asan; debug; faults; docs; perf_smoke ;;
  *) echo "unknown stage: $stage (want tier1|tsan|asan|debug|faults|docs|perf-smoke|all)" >&2; exit 2 ;;
esac
echo "CI ($stage) OK"
