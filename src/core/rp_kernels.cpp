#include "core/rp_kernels.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

#include "beam/wake.hpp"
#include "core/solver_scratch.hpp"
#include "quad/adaptive.hpp"
#include "quad/partition.hpp"
#include "quad/simpson.hpp"
#include "simt/executor.hpp"
#include "util/check.hpp"
#include "util/telemetry.hpp"

namespace bd::core {

namespace {
constexpr std::uint32_t kIntervalLoop = simt::site_id("core/rp/interval-loop");
constexpr std::uint32_t kAcceptSite = simt::site_id("core/rp/accept");
constexpr std::uint32_t kFallbackItems =
    simt::site_id("core/rp/fallback-items");

std::uint32_t block_dim_for(std::size_t max_cluster, std::uint32_t warp,
                            std::uint32_t max_threads) {
  const std::uint32_t raw =
      static_cast<std::uint32_t>((max_cluster + warp - 1) / warp) * warp;
  return std::min(std::max(raw, warp), max_threads);
}

/// The launch-wide index of the lane's warp. Warps are numbered block by
/// block, so concatenating per-warp lists in index order is lane order.
std::size_t warp_index(const simt::ThreadCtx& ctx,
                       std::uint32_t warps_per_block,
                       std::uint32_t warp_size) {
  return std::size_t{ctx.block_id} * warps_per_block +
         ctx.thread_id / warp_size;
}

/// Sum of inner capacities — a before/after pair detects reallocation by
/// the kernel lambdas (push_back past a list's high-water mark).
template <typename Inner>
std::size_t inner_capacity(const std::vector<Inner>& lists) {
  std::size_t total = 0;
  for (const auto& inner : lists) total += inner.capacity();
  return total;
}
}  // namespace

RpKernelOutput run_compute_rp_integral(const simt::DeviceSpec& device,
                                       const RpKernelInput& input,
                                       SolverScratch& scratch) {
  BD_CHECK(input.problem && input.clusters && input.partitions);
  const RpProblem& problem = *input.problem;
  const ClusterAssignment& clusters = *input.clusters;
  BD_CHECK(input.partitions->entries() == problem.num_points());

  const std::size_t num_points = problem.num_points();
  const std::size_t num_blocks = clusters.members.size();
  RpKernelOutput out;
  out.integral.assign(num_points, 0.0);
  out.error.assign(num_points, 0.0);
  out.contributions = PatternField(num_points, problem.num_subregions);

  namespace telemetry = util::telemetry;
  {
    telemetry::TraceSpan span("rp.compute_integral", "core");
    span.arg("clusters", static_cast<std::uint64_t>(num_blocks));
    span.arg("points", static_cast<std::uint64_t>(num_points));

    const std::uint32_t block_dim =
        block_dim_for(clusters.max_cluster_size, device.warp_size,
                      device.max_threads_per_block);
    BD_CHECK_MSG(clusters.max_cluster_size <= block_dim,
                 "cluster larger than a thread block ("
                     << clusters.max_cluster_size << " > " << block_dim
                     << ")");

    simt::LaunchConfig launch;
    launch.num_blocks = static_cast<std::uint32_t>(num_blocks);
    launch.threads_per_block = block_dim;

    // Per-warp failure lists and counters. The executor may run any two
    // warps concurrently, even warps of one block, but runs each warp's
    // lanes serially on one thread (see executor.hpp), so per-warp
    // accumulators are race-free. Writes to out.integral/out.error/
    // contributions are per-point, and every point belongs to exactly one
    // lane, so those need no partials.
    const std::uint32_t warps_per_block =
        (block_dim + device.warp_size - 1) / device.warp_size;
    const std::size_t num_warps = num_blocks * warps_per_block;
    scratch.acquire_nested(scratch.failed_per_warp, num_warps);
    // Top every list up to the global failure high-water mark (see
    // SolverScratch::failed_watermark). The top-up allocates, so it books
    // a grow; it stops firing once all capacities meet the watermark.
    {
      bool topped_up = false;
      for (auto& list : scratch.failed_per_warp) {
        list.clear();
        if (list.capacity() < scratch.failed_watermark) {
          list.reserve(scratch.failed_watermark);
          topped_up = true;
        }
      }
      if (topped_up) scratch.note_capacity(true);
    }
    auto intervals_per_warp = scratch.acquire_fill(
        scratch.intervals_per_warp, num_warps, std::uint64_t{0});
    auto evals_per_warp = scratch.acquire_fill(
        scratch.evals_per_warp, num_warps, std::uint64_t{0});
    auto saved_per_warp = scratch.acquire_fill(
        scratch.saved_per_warp, num_warps, std::uint64_t{0});
    const std::size_t failed_cap_before =
        inner_capacity(scratch.failed_per_warp);

    auto kernel = [&](const simt::ThreadCtx& ctx, simt::LaneProbe& probe) {
      const auto& members = clusters.members[ctx.block_id];
      if (ctx.thread_id >= members.size()) {
        probe.loop_trip(kIntervalLoop, 0);  // resident but idle lane
        return;
      }
      const std::uint32_t point = members[ctx.thread_id];
      const std::size_t warp =
          warp_index(ctx, warps_per_block, device.warp_size);
      double x = 0.0, y = 0.0;
      problem.point_coords(point, x, y);
      const beam::WakeIntegrand integrand(*problem.history, *problem.model,
                                          x, y, problem.step,
                                          problem.sub_width);

      const std::span<const double> partition = input.partitions->at(point);
      BD_DCHECK(quad::is_valid_partition(partition));

      const std::size_t intervals = partition.size() - 1;
      probe.loop_trip(kIntervalLoop, intervals);
      intervals_per_warp[warp] += intervals;

      auto contrib = out.contributions.at(point);
      auto& fail_list = scratch.failed_per_warp[warp];
      const std::uint64_t evals = quad::simpson_sweep(
          integrand, partition, probe,
          [&](std::size_t, double a, double b, const quad::QuadEstimate& est,
              const quad::SimpsonSamples& samples) {
            const double tau_local = local_tolerance(problem, a, b);
            const bool passed = est.error <= tau_local;
            probe.branch(kAcceptSite, passed);
            if (passed) {
              out.integral[point] += est.integral;
              out.error[point] += est.error;
              // Report the *required* refinement of this interval, not the
              // used one: Simpson error scales ~h⁴ relative to the
              // width-proportional tolerance, so (err/τ_local)^(1/4) is the
              // factor by which the interval should shrink (<1 = can
              // coarsen). Clamped for stability; this makes the true
              // requirement a fixed point of the observe→learn→predict
              // loop instead of ratcheting finer.
              const double ratio = est.error / tau_local;
              const double factor =
                  std::clamp(std::pow(ratio, 0.25), 0.125, 2.0);
              contrib[quad::subregion_of(a, b, problem.sub_width,
                                         problem.num_subregions)] += factor;
            } else {
              fail_list.push_back(FailedInterval{point, a, b, samples});
            }
          });
      evals_per_warp[warp] += evals;
      // The sweep shares one sample per interior breakpoint: the naive
      // per-interval loop would have paid 5·n evaluations.
      saved_per_warp[warp] +=
          5 * static_cast<std::uint64_t>(intervals) - evals;
    };

    out.metrics = simt::launch(device, launch, kernel);

    if (inner_capacity(scratch.failed_per_warp) > failed_cap_before) {
      scratch.note_capacity(true);
    }
    // Next power of two above 2x the worst list ever seen: the learner's
    // slow convergence drifts per-warp failure counts by a percent or so
    // per step, and a watermark that tracked the drift exactly would
    // re-trigger a round of top-ups on every new record. Quantized, the
    // watermark moves only when demand doubles.
    for (const auto& list : scratch.failed_per_warp) {
      scratch.failed_watermark = std::max(
          scratch.failed_watermark, std::bit_ceil(2 * list.size()));
    }

    std::size_t total_failed = 0;
    for (const auto& list : scratch.failed_per_warp) {
      total_failed += list.size();
    }
    // (block, warp) order is lane order: the fallback sees each cluster's
    // failures in member order, block by block, at any thread count.
    auto failed = scratch.acquire(scratch.failed, total_failed);
    std::size_t cursor = 0;
    for (std::size_t w = 0; w < num_warps; ++w) {
      const auto& list = scratch.failed_per_warp[w];
      std::copy(list.begin(), list.end(), failed.begin() + cursor);
      cursor += list.size();
      out.intervals += intervals_per_warp[w];
      out.evaluations += evals_per_warp[w];
      out.evaluations_saved += saved_per_warp[w];
    }
    out.failed = failed;
    span.arg("intervals", out.intervals);
    span.arg("failed", static_cast<std::uint64_t>(total_failed));
  }

  // Telemetry outside the traced hot section.
  for (const auto& members : clusters.members) {
    telemetry::histogram_record("rp.cluster_size",
                                static_cast<double>(members.size()));
  }
  telemetry::counter_add("rp.kernel_intervals", out.intervals);
  telemetry::counter_add("rp.kernel_evaluations", out.evaluations);
  telemetry::counter_add("rp.evals_saved", out.evaluations_saved);
  return out;
}

FallbackOutput run_adaptive_fallback(const simt::DeviceSpec& device,
                                     const RpProblem& problem,
                                     std::span<const FailedInterval> failed,
                                     std::vector<double>& integral,
                                     std::vector<double>& error,
                                     PatternField& contributions,
                                     SolverScratch& scratch) {
  FallbackOutput out;
  if (failed.empty()) return out;
  namespace telemetry = util::telemetry;
  telemetry::TraceSpan span("rp.fallback", "core");
  span.arg("items", static_cast<std::uint64_t>(failed.size()));
  telemetry::counter_add("rp.fallback_items", failed.size());
  telemetry::histogram_record("rp.fallback_items_per_solve",
                              static_cast<double>(failed.size()));
  BD_CHECK(integral.size() == problem.num_points());
  BD_CHECK(error.size() == problem.num_points());
  BD_CHECK(contributions.points() == problem.num_points());

  // Group failed intervals into point-contiguous runs. Kernel 1 emits a
  // point's failures contiguously (one lane per point, lanes serial per
  // warp), so a run is all of a point's items and each group constructs
  // its integrand exactly once. An arbitrary caller-built list merely
  // splits a point across groups — still correct, just fewer cache hits.
  auto offsets = scratch.acquire(scratch.group_offsets, failed.size() + 1);
  std::size_t num_groups = 0;
  for (std::size_t i = 0; i < failed.size(); ++i) {
    if (i == 0 || failed[i].point != failed[i - 1].point) {
      offsets[num_groups++] = i;
    }
  }
  offsets[num_groups] = failed.size();
  out.integrand_cache_hits = failed.size() - num_groups;

  simt::LaunchConfig launch;
  launch.threads_per_block = 128;
  launch.num_blocks = static_cast<std::uint32_t>(
      (num_groups + launch.threads_per_block - 1) /
      launch.threads_per_block);

  auto fb_integral = scratch.acquire(scratch.fb_integral, failed.size());
  auto fb_error = scratch.acquire(scratch.fb_error, failed.size());
  auto fb_evals = scratch.acquire(scratch.fb_evals, failed.size());
  auto fb_saved = scratch.acquire(scratch.fb_saved, failed.size());
  auto fb_non_converged =
      scratch.acquire(scratch.fb_non_converged, failed.size());
  auto fb_intervals = scratch.acquire(scratch.fb_intervals, failed.size());
  auto fb_counts = scratch.acquire_fill(
      scratch.fb_counts, failed.size() * problem.num_subregions,
      std::uint32_t{0});
  const std::uint32_t warps_per_block =
      (launch.threads_per_block + device.warp_size - 1) / device.warp_size;
  scratch.acquire_nested(scratch.fb_stacks,
                         std::size_t{launch.num_blocks} * warps_per_block);
  // Same global-watermark top-up as the kernel-1 failure lists: worklist
  // depth is a property of the workload, not of which warp runs it.
  {
    bool topped_up = false;
    for (auto& stack : scratch.fb_stacks) {
      if (stack.capacity() < scratch.stack_watermark) {
        stack.reserve(scratch.stack_watermark);
        topped_up = true;
      }
    }
    if (topped_up) scratch.note_capacity(true);
  }
  const std::size_t stack_cap_before = inner_capacity(scratch.fb_stacks);

  const quad::AdaptiveOptions options{};

  // Distinct items may share a point, and the executor runs lanes from
  // different warps concurrently — so the kernel only writes per-item
  // slots (one lane per group of items); the read-modify-write into the
  // per-point arrays happens in the deterministic serial reduction below.
  // (A CUDA port would use atomics instead.)
  auto kernel = [&](const simt::ThreadCtx& ctx, simt::LaneProbe& probe) {
    if (ctx.global_id >= num_groups) {
      probe.loop_trip(kFallbackItems, 0);
      return;
    }
    const std::size_t begin = offsets[ctx.global_id];
    const std::size_t end = offsets[ctx.global_id + 1];
    const std::uint32_t point = failed[begin].point;
    double x = 0.0, y = 0.0;
    problem.point_coords(point, x, y);
    const beam::WakeIntegrand integrand(*problem.history, *problem.model, x,
                                        y, problem.step, problem.sub_width);
    probe.loop_trip(kFallbackItems, end - begin);
    auto& stack =
        scratch.fb_stacks[warp_index(ctx, warps_per_block, device.warp_size)];

    for (std::size_t i = begin; i < end; ++i) {
      const FailedInterval& item = failed[i];
      const double tol = local_tolerance(problem, item.a, item.b);
      std::uint32_t* counts =
          fb_counts.data() + i * problem.num_subregions;
      const quad::AdaptiveOutcome result = quad::adaptive_simpson_seeded(
          integrand, item.a, item.b, tol, item.samples, probe, options,
          stack,
          [&](const quad::AdaptiveWorkItem& leaf, const quad::QuadEstimate&) {
            ++counts[quad::subregion_of(leaf.a, leaf.b, problem.sub_width,
                                        problem.num_subregions)];
          });

      fb_integral[i] = result.integral;
      fb_error[i] = result.error;
      fb_evals[i] = result.evaluations;
      // The seeded root reused the 5 samples kernel 1 already paid for.
      fb_saved[i] = result.evaluations_saved + 5;
      fb_non_converged[i] = result.converged ? 0 : 1;
      fb_intervals[i] = static_cast<std::uint32_t>(result.intervals);
    }
  };

  out.metrics = simt::launch(device, launch, kernel);

  if (inner_capacity(scratch.fb_stacks) > stack_cap_before) {
    scratch.note_capacity(true);
  }
  for (const auto& stack : scratch.fb_stacks) {
    scratch.stack_watermark =
        std::max(scratch.stack_watermark, stack.capacity());
  }

  // Serial reduction in item order: deterministic for any thread count.
  for (std::size_t i = 0; i < failed.size(); ++i) {
    const FailedInterval& item = failed[i];
    integral[item.point] += fb_integral[i];
    error[item.point] += fb_error[i];
    auto contrib = contributions.at(item.point);
    const std::uint32_t* counts =
        fb_counts.data() + i * problem.num_subregions;
    for (std::size_t j = 0; j < problem.num_subregions; ++j) {
      contrib[j] += static_cast<double>(counts[j]);
    }
    out.evaluations += fb_evals[i];
    out.evaluations_saved += fb_saved[i];
    out.non_converged += fb_non_converged[i];
  }
  out.intervals_per_item = fb_intervals;
  span.arg("evaluations", out.evaluations);
  span.arg("non_converged", out.non_converged);
  telemetry::counter_add("rp.fallback_evaluations", out.evaluations);
  telemetry::counter_add("rp.fallback_non_converged", out.non_converged);
  telemetry::counter_add("rp.evals_saved", out.evaluations_saved);
  telemetry::counter_add("rp.integrand_cache_hits",
                         out.integrand_cache_hits);
  return out;
}

}  // namespace bd::core
