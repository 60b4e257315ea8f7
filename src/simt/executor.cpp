#include "simt/executor.hpp"

#include <algorithm>
#include <atomic>
#include <mutex>
#include <span>
#include <vector>

#include "simt/warp.hpp"
#include "util/check.hpp"
#include "util/parallel.hpp"
#include "util/telemetry.hpp"
#include "util/timer.hpp"

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
  // Checks the L2 geometry before any lane runs.
  CacheReplay replay(spec, num_sms);

  // --- Pass 1 (parallel): execute lanes, analyze warps, replay L1s -------
  // One task per warp: task w runs warp w % warps_per_block of block
  // w / warps_per_block, its lanes serially in lane order on one thread;
  // any two warps may run concurrently, warps of one block included (the
  // contract kernels must obey, see executor.hpp). Each lane reports its
  // events straight to the task's WarpRecorder, which analyzes the warp as
  // its lanes run and hands back its stream. Blocks are dealt to SMs
  // round-robin: block b is the (b / num_sms)-th block of SM b % num_sms,
  // so each task writes its warp's stream straight to its place in that
  // SM's warp list and its divergence/coalescing counters to a private
  // KernelMetrics.
  //
  // On each SM, chunks of `resident` consecutive blocks are co-resident
  // and their warps' streams interleave in the SM's L1 (stage 2a). Chunk c
  // of SM s, at index c * num_sms + s, counts its warps not yet recorded;
  // the task that records its last warp replays it, unless the SM's
  // previous chunk has not been replayed yet. Then the chunk is only
  // marked, and the task that replays the previous chunk replays it next,
  // so an SM's chunks pass its L1 in block order and no task waits. A
  // replayed chunk's streams are freed at once.
  const std::size_t num_warps =
      std::size_t{config.num_blocks} * warps_per_block;
  const std::size_t chunk_warps = std::size_t{resident} * warps_per_block;
  std::vector<KernelMetrics> analysis(num_warps);
  std::vector<std::vector<WarpReplay>> sm_warps(num_sms);
  struct ChunkQueue {
    std::mutex mutex;
    std::size_t next = 0;        // the first chunk not yet replayed
    std::vector<bool> recorded;  // chunk c holds all its streams
  };
  std::vector<ChunkQueue> queues(num_sms);
  for (std::uint32_t sm = 0; sm < num_sms && sm < config.num_blocks; ++sm) {
    const std::uint32_t sm_blocks =
        (config.num_blocks - sm + num_sms - 1) / num_sms;
    sm_warps[sm].resize(std::size_t{sm_blocks} * warps_per_block);
    queues[sm].recorded.resize((sm_warps[sm].size() + chunk_warps - 1) /
                               chunk_warps);
  }
  // SM 0 holds the most chunks.
  std::vector<std::atomic<std::uint32_t>> unrecorded(
      queues[0].recorded.size() * num_sms);
  for (std::uint32_t block = 0; block < config.num_blocks; ++block) {
    unrecorded[block / num_sms / resident * num_sms + block % num_sms] +=
        warps_per_block;
  }
  std::atomic<std::uint64_t> l1_replay_ns{0};
  const auto replay_recorded = [&](std::uint32_t sm, std::size_t chunk) {
    ChunkQueue& queue = queues[sm];
    std::unique_lock lock(queue.mutex);
    queue.recorded[chunk] = true;
    if (chunk != queue.next) return;
    const std::span<WarpReplay> warps = sm_warps[sm];
    do {
      lock.unlock();
      const util::WallTimer timer;
      const std::span<WarpReplay> streams = warps.subspan(
          chunk * chunk_warps,
          std::min(chunk_warps, warps.size() - chunk * chunk_warps));
      replay.replay_chunk(sm, streams);
      for (WarpReplay& stream : streams) stream = {};
      l1_replay_ns += static_cast<std::uint64_t>(timer.seconds() * 1e9);
      lock.lock();
      chunk = ++queue.next;
    } while (chunk < queue.recorded.size() && queue.recorded[chunk]);
  };
  telemetry::TraceSession& session = telemetry::current_trace();
  const double lane_pass_start = session.enabled() ? session.now_us() : 0.0;
  util::parallel_for_chunked(0, num_warps, 1, [&](std::size_t lo,
                                                  std::size_t hi) {
    WarpRecorder recorder(spec);
    for (std::size_t w = lo; w < hi; ++w) {
      const auto block = static_cast<std::uint32_t>(w / warps_per_block);
      const auto warp = static_cast<std::uint32_t>(w % warps_per_block);
      const std::uint32_t lane_begin = warp * spec.warp_size;
      const std::uint32_t lane_end =
          std::min(lane_begin + spec.warp_size, config.threads_per_block);
      for (std::uint32_t t = lane_begin; t < lane_end; ++t) {
        recorder.begin_lane();
        ThreadCtx ctx;
        ctx.block_id = block;
        ctx.thread_id = t;
        ctx.global_id = block * config.threads_per_block + t;
        kernel(ctx, recorder);
      }
      const std::uint32_t sm = block % num_sms;
      const std::size_t sm_block = block / num_sms;
      sm_warps[sm][sm_block * warps_per_block + warp] =
          recorder.finish(analysis[w]);
      const std::size_t chunk = sm_block / resident;
      if (unrecorded[chunk * num_sms + sm].fetch_sub(1) == 1) {
        replay_recorded(sm, chunk);
      }
    }
  });
  if (session.enabled()) {
    session.record_complete("simt.lane_pass", "simt", lane_pass_start,
                            session.now_us() - lane_pass_start, "");
  }
  telemetry::counter_add("simt.l1_replay_ns", l1_replay_ns.load());
  const double replay_start = session.enabled() ? session.now_us() : 0.0;

  // --- Pass 2 (sharded): the shared L2 -----------------------------------
  // Every L1 has replayed; the L2 replays sharded by set, each set taking
  // the SMs' misses SM-major. Every cache transition, and therefore
  // KernelMetrics, is bit-for-bit independent of BD_NUM_THREADS and of
  // pass-1 scheduling. Analysis partials are integer sums, so their order
  // does not matter.
  const std::uint32_t num_shards = std::min(num_sms, config.num_blocks);
  KernelMetrics metrics = replay.replay_l2();
  for (const KernelMetrics& warp : analysis) metrics += warp;

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
