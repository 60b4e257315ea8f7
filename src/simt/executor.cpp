#include "simt/executor.hpp"

#include <algorithm>
#include <vector>

#include "simt/warp.hpp"
#include "util/check.hpp"
#include "util/parallel.hpp"
#include "util/telemetry.hpp"

namespace bd::simt {

KernelMetrics launch(const DeviceSpec& spec, const LaunchConfig& config,
                     const KernelFn& kernel) {
  BD_CHECK_MSG(config.num_blocks > 0, "launch needs at least one block");
  BD_CHECK_MSG(config.threads_per_block > 0 &&
                   config.threads_per_block <= spec.max_threads_per_block,
               "threads per block out of range");
  BD_CHECK(kernel != nullptr);

  // Purely observational: spans/counters never feed back into the model,
  // so captured and uncaptured runs produce bit-identical KernelMetrics
  // (asserted by tests/test_determinism.cpp).
  namespace telemetry = util::telemetry;
  telemetry::TraceSpan launch_span("simt.launch", "simt");
  launch_span.arg("blocks", static_cast<std::uint64_t>(config.num_blocks));
  launch_span.arg("threads_per_block",
                  static_cast<std::uint64_t>(config.threads_per_block));
  telemetry::counter_add("simt.launches");

  const std::uint32_t warps_per_block =
      (config.threads_per_block + spec.warp_size - 1) / spec.warp_size;
  const std::uint32_t resident = std::max<std::uint32_t>(
      1, spec.resident_warps_per_sm / warps_per_block);
  const std::uint32_t num_sms = spec.num_sms;

  // --- Pass 1 (parallel): execute lanes, analyze warps -------------------
  // One task per block. Lanes within a block run serially in lane order on
  // one thread; lanes from different blocks may run concurrently (the
  // contract kernels must obey, see executor.hpp). Each lane reports its
  // events straight to the task's WarpRecorder, which analyzes a warp as
  // its lanes run and hands back its stream. Blocks are dealt to SMs
  // round-robin: block b is the (b / num_sms)-th block of SM b % num_sms,
  // so each task writes its warps' streams straight to their place in that
  // SM's warp list and its divergence/coalescing counters to a private
  // KernelMetrics. Pass 1 shares no mutable state between tasks.
  std::vector<KernelMetrics> analysis(config.num_blocks);
  std::vector<std::vector<WarpReplay>> sm_warps(num_sms);
  for (std::uint32_t sm = 0; sm < num_sms && sm < config.num_blocks; ++sm) {
    const std::uint32_t sm_blocks =
        (config.num_blocks - sm + num_sms - 1) / num_sms;
    sm_warps[sm].resize(std::size_t{sm_blocks} * warps_per_block);
  }
  telemetry::TraceSession& session = telemetry::current_trace();
  const double lane_pass_start = session.enabled() ? session.now_us() : 0.0;
  util::parallel_for(0, config.num_blocks, [&](std::size_t b) {
    const auto block = static_cast<std::uint32_t>(b);
    WarpReplay* replays =
        &sm_warps[block % num_sms][std::size_t{block / num_sms} *
                                   warps_per_block];
    WarpRecorder recorder(spec);
    for (std::uint32_t warp = 0; warp < warps_per_block; ++warp) {
      const std::uint32_t lane_begin = warp * spec.warp_size;
      const std::uint32_t lane_end = std::min(
          lane_begin + spec.warp_size, config.threads_per_block);
      for (std::uint32_t t = lane_begin; t < lane_end; ++t) {
        recorder.begin_lane();
        ThreadCtx ctx;
        ctx.block_id = block;
        ctx.thread_id = t;
        ctx.global_id = block * config.threads_per_block + t;
        kernel(ctx, recorder);
      }
      replays[warp] = recorder.finish(analysis[b]);
    }
  });
  if (session.enabled()) {
    session.record_complete("simt.lane_pass", "simt", lane_pass_start,
                            session.now_us() - lane_pass_start, "");
  }
  const double replay_start = session.enabled() ? session.now_us() : 0.0;

  // --- Pass 2 (sharded): replay memory traffic through the caches -------
  // On each SM, groups of `resident` consecutive blocks are co-resident and
  // their warps' streams interleave in the private L1. replay_caches runs
  // the per-SM L1s in parallel, then the shared L2 sharded by set: every
  // cache transition, and therefore KernelMetrics, is bit-for-bit
  // independent of BD_NUM_THREADS and of pass-1 scheduling. Analysis
  // partials are integer sums, so their order does not matter.
  const std::uint32_t num_shards = std::min(num_sms, config.num_blocks);
  KernelMetrics metrics = replay_caches(
      spec, sm_warps, std::size_t{resident} * warps_per_block);
  for (const KernelMetrics& block : analysis) metrics += block;
  sm_warps = {};  // release the streams inside the replay span

  if (session.enabled()) {
    session.record_complete("simt.cache_replay", "simt", replay_start,
                            session.now_us() - replay_start, "");
  }
  telemetry::histogram_record("simt.replay_shards",
                              static_cast<double>(num_shards));

  // Counter identities: every L1 transaction hits or misses, an L1 miss
  // fetches its line as L2 sectors, and each L2 miss moves one sector
  // from DRAM.
  BD_DCHECK(metrics.active_lane_slots <= metrics.lane_slots);
  BD_DCHECK(metrics.l1.accesses() == metrics.l1_transactions);
  BD_DCHECK(metrics.l2.accesses() ==
            metrics.l1.misses * (spec.l1_line_bytes / spec.l2_line_bytes));
  BD_DCHECK(metrics.dram_bytes == metrics.l2.misses * spec.l2_line_bytes);

  apply_time_model(metrics, spec);

  // KernelMetrics ride along as span args / registry metrics so the trace
  // carries the same profiler aggregates the paper's tables report.
  launch_span.arg("modeled_ms", metrics.modeled_seconds * 1e3);
  launch_span.arg("warp_exec_eff", metrics.warp_execution_efficiency());
  launch_span.arg("l1_hit_rate", metrics.l1_hit_rate());
  launch_span.arg("flops", metrics.flops);
  launch_span.arg("dram_bytes", metrics.dram_bytes);
  telemetry::counter_add("simt.flops", metrics.flops);
  telemetry::histogram_record("simt.modeled_kernel_ms",
                              metrics.modeled_seconds * 1e3);
  return metrics;
}

}  // namespace bd::simt
