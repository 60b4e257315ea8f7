#pragma once
/// \file solver_scratch.hpp
/// Step-persistent scratch for the rp-solver hot path. One SolverScratch
/// is owned by the Simulation (handed to solvers through
/// RpProblem::scratch) and reused by every solve of every solver — all
/// solve calls are sequential, so sharing is safe. Buffers only ever grow;
/// after the first few steps every acquire is a growth-free reuse and the
/// solve phase performs zero steady-state heap allocations on these
/// surfaces (SolveResult's output grids are API-owned and excluded).
///
/// Instrumentation: every acquire and every PartitionSet layout counts a
/// grow event (capacity had to increase) or a reuse event. Solvers flush
/// them per solve as `rp.scratch_grows` / `rp.scratch_reuses`; the
/// perf-smoke gate asserts grows stay 0 after warm-up.

#include <cstdint>
#include <span>
#include <vector>

#include "core/rp_kernels.hpp"
#include "quad/adaptive.hpp"
#include "quad/partition_set.hpp"

namespace bd::core {

struct SolverScratch {
  // --- COMPUTE-RP-INTEGRAL (kernel 1) ---
  /// Per-warp failure lists and counters, indexed by block ×
  /// warps-per-block + thread_id / warp_size (the executor runs a warp's
  /// lanes serially; any two warps may run concurrently).
  std::vector<std::vector<FailedInterval>> failed_per_warp;
  std::vector<std::uint64_t> intervals_per_warp;
  std::vector<std::uint64_t> evals_per_warp;
  std::vector<std::uint64_t> saved_per_warp;
  /// Concatenated failure list the fallback consumes (RpKernelOutput::failed
  /// points into this).
  std::vector<FailedInterval> failed;

  // --- RP-ADAPTIVEQUADRATURE (fallback) ---
  /// Run starts of point-contiguous groups in `failed`, plus end sentinel.
  std::vector<std::size_t> group_offsets;
  std::vector<double> fb_integral;
  std::vector<double> fb_error;
  std::vector<std::uint64_t> fb_evals;
  std::vector<std::uint64_t> fb_saved;
  std::vector<std::uint8_t> fb_non_converged;
  std::vector<std::uint32_t> fb_intervals;
  /// Flat per-item subregion counts, stride num_subregions.
  std::vector<std::uint32_t> fb_counts;
  /// Per-warp adaptive worklists (lanes of a warp run serially).
  std::vector<std::vector<quad::AdaptiveWorkItem>> fb_stacks;

  // --- partition staging (solvers) ---
  quad::PartitionSet point_partitions;  ///< per-point build target
  quad::PartitionSet merged;            ///< MERGE-LISTS / next-step target
  std::vector<std::size_t> row_caps;
  std::vector<double> merge_a;  ///< MERGE-LISTS ping buffer
  std::vector<double> merge_b;  ///< MERGE-LISTS pong buffer
  std::vector<double> refined;  ///< heuristic per-item refinement
  std::vector<double> ones;     ///< all-ones bootstrap pattern
  std::vector<std::uint32_t> point_run;  ///< heuristic: failed run per point

  /// Size `v` to n elements (contents unspecified) and return its span,
  /// recording a grow or reuse event. Growth reserves 2·n so a workload
  /// whose demand drifts upward between steps must double before paying
  /// another allocation (amortized allocation-free under drift).
  template <typename T>
  std::span<T> acquire(std::vector<T>& v, std::size_t n) {
    if (n > v.capacity()) {
      note_capacity(true);
      v.reserve(2 * n);
    } else {
      note_capacity(false);
    }
    v.resize(n);
    return {v.data(), n};
  }

  /// Size `v` to n copies of `value` and return its span.
  template <typename T>
  std::span<T> acquire_fill(std::vector<T>& v, std::size_t n, T value) {
    if (n > v.capacity()) {
      note_capacity(true);
      v.reserve(2 * n);
    } else {
      note_capacity(false);
    }
    v.assign(n, value);
    return {v.data(), n};
  }

  /// Acquire for nested containers: grows the outer vector but never
  /// shrinks it. A shrinking resize would destroy the tail elements —
  /// and with them the inner heap buffers this scratch exists to keep —
  /// so a workload whose block count oscillates would re-allocate fresh
  /// inner vectors on every rebound. Callers index only the first `n`
  /// entries; the stale tail stays empty (kernel 1 clears every list).
  template <typename T>
  void acquire_nested(std::vector<std::vector<T>>& v, std::size_t n) {
    if (n > v.capacity()) {
      note_capacity(true);
      v.reserve(2 * n);
    } else {
      note_capacity(false);
    }
    if (n > v.size()) v.resize(n);
  }

  void note_capacity(bool grew) {
    if (grew) {
      ++grow_events;
    } else {
      ++reuse_events;
    }
  }

  /// Drain a PartitionSet's allocation events into this scratch.
  void absorb(quad::PartitionSet& set) {
    grow_events += set.take_grow_events();
    reuse_events += set.take_reuse_events();
  }

  /// Emit and reset the per-solve allocation counters
  /// (rp.scratch_grows / rp.scratch_reuses). Call once per solve.
  void flush_metrics();

  std::uint64_t grow_events = 0;
  std::uint64_t reuse_events = 0;

  /// Global high-water marks for the per-warp inner containers above.
  /// Every inner list is topped up to the worst warp ever observed, so
  /// capacity becomes a property of the workload rather than of cluster
  /// membership: solvers that reshuffle points across warps each step
  /// (predictive k-means) would otherwise chase the shuffle with a
  /// reallocation whenever some warp sets a purely local record.
  std::size_t failed_watermark = 0;
  std::size_t stack_watermark = 0;
};

}  // namespace bd::core
