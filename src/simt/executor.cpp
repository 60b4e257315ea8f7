#include "simt/executor.hpp"

#include <vector>

#include "simt/trace.hpp"
#include "simt/warp.hpp"
#include "util/check.hpp"
#include "util/parallel.hpp"
#include "util/telemetry.hpp"

namespace bd::simt {

namespace {

/// Everything pass 1 produces for one block: the analysis counters of its
/// warps and the coalesced transaction streams pass 2 replays. Divergence
/// and coalescing are per-warp properties, so they are computed inside the
/// parallel pass; only the cache state is global and stays serial.
struct BlockOutput {
  KernelMetrics analysis;
  std::vector<WarpReplay> replays;  // one per warp, warp-major order
};

}  // namespace

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

  // --- Pass 1 (parallel): execute lanes, analyze warps -------------------
  // One task per block. Lanes within a block run serially in lane order on
  // one thread; lanes from different blocks may run concurrently (the
  // contract kernels must obey, see executor.hpp). Each task owns its lane
  // traces and accumulates divergence/coalescing counters into a private
  // KernelMetrics, so pass 1 shares no mutable state between tasks.
  std::vector<BlockOutput> blocks(config.num_blocks);
  telemetry::TraceSession& session = telemetry::current_trace();
  const double lane_pass_start = session.enabled() ? session.now_us() : 0.0;
  util::parallel_for(0, config.num_blocks, [&](std::size_t b) {
    BlockOutput& out = blocks[b];
    const auto block = static_cast<std::uint32_t>(b);
    std::vector<LaneTrace> traces(spec.warp_size);
    out.replays.reserve(warps_per_block);
    for (std::uint32_t warp = 0; warp < warps_per_block; ++warp) {
      const std::uint32_t lane_begin = warp * spec.warp_size;
      const std::uint32_t lane_end = std::min(
          lane_begin + spec.warp_size, config.threads_per_block);
      std::vector<const LaneTrace*> warp_traces;
      warp_traces.reserve(lane_end - lane_begin);
      for (std::uint32_t t = lane_begin; t < lane_end; ++t) {
        LaneTrace& trace = traces[t - lane_begin];
        trace.reset();
        ThreadCtx ctx;
        ctx.block_id = block;
        ctx.thread_id = t;
        ctx.global_id = block * config.threads_per_block + t;
        kernel(ctx, trace);
        warp_traces.push_back(&trace);
      }
      out.replays.push_back(
          analyze_warp_groups(warp_traces, spec, out.analysis));
    }
  });
  if (session.enabled()) {
    session.record_complete("simt.lane_pass", "simt", lane_pass_start,
                            session.now_us() - lane_pass_start, "");
  }
  const double replay_start = session.enabled() ? session.now_us() : 0.0;

  // --- Pass 2 (sharded): replay memory traffic through the caches -------
  // Blocks are distributed round-robin over SMs (block b runs on SM
  // b % num_sms); on each SM, groups of `resident` consecutive blocks are
  // co-resident and their warps' streams interleave in the private L1.
  //
  // Per-SM L1 state is independent, so stage 2a replays every SM's L1 in
  // parallel on the thread pool, each shard accumulating its own metrics
  // partial and recording the line address of every L1 miss in replay
  // order. Stage 2b then merges serially in SM index order: partials are
  // integer sums (order-insensitive), and feeding each SM's miss stream
  // through the shared L2 SM-major reproduces the serial executor's L2
  // access order exactly — the serial replay was SM-major already. Every
  // cache transition, and therefore KernelMetrics, stays bit-for-bit
  // independent of BD_NUM_THREADS and of pass-1/2a scheduling.
  struct SmShard {
    KernelMetrics partial;
    std::vector<std::uint64_t> l2_misses;
  };
  const std::uint32_t num_shards =
      std::min<std::uint32_t>(spec.num_sms, config.num_blocks);
  std::vector<SmShard> shards(spec.num_sms);
  util::parallel_for(0, spec.num_sms, [&](std::size_t sm_idx) {
    const auto sm = static_cast<std::uint32_t>(sm_idx);
    SmShard& shard = shards[sm_idx];
    SetAssocCache l1(spec.l1_bytes, spec.l1_line_bytes, spec.l1_ways);
    std::vector<std::uint32_t> my_blocks;
    for (std::uint32_t block = sm; block < config.num_blocks;
         block += spec.num_sms) {
      my_blocks.push_back(block);
    }
    for (std::size_t chunk = 0; chunk < my_blocks.size();
         chunk += resident) {
      const std::size_t chunk_end =
          std::min(my_blocks.size(), chunk + resident);
      std::vector<WarpReplay> replays;
      replays.reserve((chunk_end - chunk) * warps_per_block);
      for (std::size_t bi = chunk; bi < chunk_end; ++bi) {
        BlockOutput& out = blocks[my_blocks[bi]];
        shard.partial += out.analysis;
        for (WarpReplay& replay : out.replays) {
          replays.push_back(std::move(replay));
        }
        out.replays.clear();
        out.replays.shrink_to_fit();  // free trace memory as we go
      }
      replay_interleaved_l1(replays, spec, l1, shard.partial,
                            shard.l2_misses);
    }
  });

  KernelMetrics metrics;
  metrics.warp_size = spec.warp_size;
  SetAssocCache l2(spec.l2_bytes, spec.l2_line_bytes, spec.l2_ways);
  for (std::uint32_t sm = 0; sm < spec.num_sms; ++sm) {
    metrics += shards[sm].partial;
    replay_l2_lines(shards[sm].l2_misses, spec, l2, metrics);
  }

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
