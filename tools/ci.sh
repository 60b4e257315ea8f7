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
# matching docs/ROBUSTNESS.md's record-kind table, every documented
# PredictiveOptions/ClusteringAccel/RpClusteringOptions member still
# declared in its header, every documented src/ module path naming an
# existing file or directory, and every function a src/ header declares
# being called in src/, bench/, examples/ or stepbench/ — not only in
# tests (tools/check_callers.py).
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
# only on hosts with >= 4 hardware threads). Last, two peak-RSS ceilings
# on the SIMT model's cache-replay buffers: tools/check_peak_rss.py reads
# a child's peak RSS with getrusage and fails above the ceiling in its
# baseline file. A 3-step 128^2 quickstart (1e5 particles) runs under
# tools/perf_baseline_rss.json, and a 9-step bench_table2 run
# (--warmup 1 --measure 8, which adds the heuristic's long warp streams)
# under tools/perf_baseline_rss_table2.json, each with a pool of 4.
#
# A mutants stage checks that the tests still catch known defects. Each
# tools/mutants/<name>.patch is a minimal diff to src/ after a header of
# "Must fail: <test target> <gtest filter>" lines. In a temporary copy of
# the tree it builds the named targets once, checks that the named tests
# pass unmutated, then applies each patch, rebuilds only its targets, runs
# them and reverts. The stage fails if a patch no longer applies, a mutant
# does not build, or a named test still passes with the mutant in place.
#
# Usage: tools/ci.sh [tier1|tsan|asan|debug|faults|docs|perf-smoke|mutants|all]   (default: all)
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
  echo "=== docs: telemetry names, markdown links, src/ callers ==="
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
  cmake --build --preset default -j "$(nproc)" --target quickstart
  BD_NUM_THREADS=4 tools/check_peak_rss.py tools/perf_baseline_rss.json \
    ./build/examples/quickstart --grid 128 --particles 100000 --steps 3
  cmake --build --preset default -j "$(nproc)" --target bench_table2
  BD_NUM_THREADS=4 tools/check_peak_rss.py \
    tools/perf_baseline_rss_table2.json \
    ./build/bench/bench_table2 --warmup 1 --measure 8 --csv=table2.csv
}

mutants() {
  echo "=== mutants: every seeded defect must fail the tests it names ==="
  local root work kills patch name target filter failed=0
  root=$(pwd)
  work=$(mktemp -d)
  # The copy lives only for this stage, whichever way it ends.
  # shellcheck disable=SC2064  # expand $work now: it is local
  trap "rm -rf '$work'" EXIT
  tar --exclude='./build*' --exclude=./.git --exclude=./.bench_build \
    -cf - . | tar -xf - -C "$work"
  cmake -S "$work" -B "$work/build" -DCMAKE_BUILD_TYPE=RelWithDebInfo >/dev/null
  must_fail() { sed -n 's/^Must fail: //p' "$@"; }
  kills=$(must_fail tools/mutants/*.patch | sort -u)
  # shellcheck disable=SC2046  # one word per target
  cmake --build "$work/build" -j "$(nproc)" --target \
    $(cut -d' ' -f1 <<< "$kills" | sort -u) >/dev/null
  while read -r target filter; do
    "$work/build/tests/$target" --gtest_filter="$filter" </dev/null \
      >/dev/null || {
      echo "mutants: $target $filter fails without any mutant" >&2
      return 1
    }
  done <<< "$kills"
  for patch in tools/mutants/*.patch; do
    name=$(basename "$patch" .patch)
    if ! (cd "$work" && git apply --check "$root/$patch" 2>/dev/null); then
      echo "mutants: $name no longer applies" >&2
      failed=1
      continue
    fi
    (cd "$work" && git apply "$root/$patch")
    # shellcheck disable=SC2046  # one word per target
    if ! cmake --build "$work/build" -j "$(nproc)" --target \
        $(must_fail "$patch" | cut -d' ' -f1) >/dev/null 2>&1; then
      echo "mutants: $name does not build" >&2
      failed=1
    else
      while read -r target filter; do
        if timeout 600 "$work/build/tests/$target" --gtest_filter="$filter" \
            </dev/null >/dev/null 2>&1; then
          echo "mutants: $name SURVIVED $target $filter" >&2
          failed=1
        else
          echo "mutants: $name killed by $target $filter"
        fi
      done < <(must_fail "$patch")
    fi
    (cd "$work" && git apply -R "$root/$patch")
  done
  return "$failed"
}

case "$stage" in
  tier1) tier1 ;;
  tsan) tsan ;;
  asan) asan ;;
  debug) debug ;;
  faults) faults ;;
  docs) docs ;;
  perf-smoke) perf_smoke ;;
  mutants) mutants ;;
  all) tier1; tsan; asan; debug; faults; docs; perf_smoke; mutants ;;
  *) echo "unknown stage: $stage (want tier1|tsan|asan|debug|faults|docs|perf-smoke|mutants|all)" >&2; exit 2 ;;
esac
echo "CI ($stage) OK"
