#pragma once
/// \file executor.hpp
/// SIMT executor: runs a per-thread kernel function over a (blocks × threads)
/// launch grid on the host while modeling GPU execution. Each lane reports
/// its events to the warp analyzer (simt::WarpRecorder) as it runs; warps
/// are analyzed for divergence and their memory traffic is replayed
/// through per-SM L1 caches and the shared L2. Blocks are assigned
/// to SMs round-robin, matching the hardware's greedy block scheduler
/// closely enough for aggregate cache statistics.
///
/// Execution is a two-pass pipeline:
///
///  1. *Lane execution and L1 replay* (parallel): kernel lambdas run warp
///     by warp on the process thread pool (util/parallel.hpp,
///     BD_NUM_THREADS), one task per warp, its lanes streaming into one
///     WarpRecorder that derives the warp's divergence/coalescing counters
///     and transaction stream in the same pass. This is where all the
///     quadrature time goes. On each SM, chunks of co-resident blocks
///     interleave their streams in the SM's private L1: the task that
///     records a chunk's last warp replays the chunk through that L1
///     (simt::CacheReplay::replay_chunk), bucketing its L1-miss lines by L2
///     set partition in replay order, and frees its streams. An SM's
///     chunks replay in block order: a chunk recorded before the SM's
///     previous one is replayed waits, without blocking a thread, for the
///     task that replays the previous chunk to take it next. So a launch
///     holds only the streams of chunks still being recorded.
///  2. *L2 replay* (sharded, simt::CacheReplay::replay_l2): the L2
///     partitions replay in parallel, each taking its buckets SM-major. L2
///     sets are independent, so every set sees the access order of one
///     serial SM-major L2 replay, and cache state and every KernelMetrics
///     counter are independent of scheduling and of BD_NUM_THREADS.
///
/// Lane-concurrency contract (what kernel bodies must obey, mirroring a
/// real GPU, which orders neither its blocks nor the warps of a block): the
/// lanes of one warp run serially in lane order on a single thread; any
/// two warps may execute concurrently, even warps of one block. A kernel
/// may therefore freely mutate state indexed by warp (block_id ×
/// warps-per-block + thread_id / warp_size) or by lane, but writes to state
/// shared across warps (e.g. accumulating into a per-block total, or into
/// a per-point array when two warps can touch the same point) must be
/// restructured as per-warp or per-item partials reduced serially after
/// launch() returns — see core/rp_kernels.cpp.

#include <cstdint>
#include <functional>

#include "simt/device.hpp"
#include "simt/metrics.hpp"
#include "simt/probe.hpp"
#include "simt/timemodel.hpp"

namespace bd::simt {

/// Kernel launch geometry.
struct LaunchConfig {
  std::uint32_t num_blocks = 1;
  std::uint32_t threads_per_block = 32;
};

/// Identity of the executing thread, mirroring blockIdx/threadIdx.
struct ThreadCtx {
  std::uint32_t block_id = 0;
  std::uint32_t thread_id = 0;   ///< within the block
  std::uint32_t global_id = 0;   ///< block_id * threads_per_block + thread_id
};

/// The kernel body: executed once per thread with its private probe.
using KernelFn = std::function<void(const ThreadCtx&, LaneProbe&)>;

/// Execute the kernel under the SIMT model and return profiler-style
/// metrics with the modeled kernel time already applied.
///
/// Deterministic: identical inputs produce identical metrics — bit for bit,
/// for any BD_NUM_THREADS — because divergence/coalescing counters are
/// integer sums over warps, each SM's L1 takes its chunks in block order
/// whichever warp finishes last, and each L2 set partition replays its
/// share of the misses in the fixed SM-major block order.
///
/// Observability: every launch emits a `simt.launch` trace span (geometry
/// plus the headline KernelMetrics as span args) with `simt.lane_pass` /
/// `simt.cache_replay` child spans for the two passes (the L1 replay runs
/// inside the lane pass; its summed thread time is the
/// `simt.l1_replay_ns` counter), and updates the `simt.*` metrics — see
/// docs/METRICS.md. Capture is observational only
/// and never perturbs the returned metrics
/// (tests/test_determinism.cpp).
KernelMetrics launch(const DeviceSpec& spec, const LaunchConfig& config,
                     const KernelFn& kernel);

}  // namespace bd::simt
