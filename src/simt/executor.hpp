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
///  1. *Lane execution* (parallel): kernel lambdas run block by block on
///     the process thread pool (util/parallel.hpp, BD_NUM_THREADS), each
///     warp's lanes streaming into one WarpRecorder that derives its
///     divergence/coalescing counters and transaction stream in the same
///     pass. This is where all the quadrature time goes.
///  2. *Cache replay* (sharded, simt::replay_caches): per-SM L1 state is
///     independent, so each SM's warps replay through its private L1 in
///     parallel on the pool, bucketing L1-miss lines by L2 set partition
///     in replay order; the L2 partitions then replay in parallel, each
///     taking its buckets SM-major. L2 sets are independent, so every set
///     sees the access order of one serial SM-major L2 replay, and cache
///     state and every KernelMetrics counter are independent of
///     scheduling and of BD_NUM_THREADS.
///
/// Lane-concurrency contract (what kernel bodies must obey, mirroring a
/// real GPU): lanes from *different blocks* may execute concurrently; lanes
/// within one block run serially in lane order on a single thread. A kernel
/// may therefore freely mutate state indexed by block_id / thread_id /
/// global_id, but writes to state shared across blocks (e.g. accumulating
/// into a per-point array when two blocks can touch the same point) must be
/// restructured as per-block or per-item partials reduced serially after
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
/// integer sums over warps, per-SM L1 replay is self-contained per shard,
/// and each L2 set partition replays its share of the misses in the fixed
/// SM-major block order.
///
/// Observability: every launch emits a `simt.launch` trace span (geometry
/// plus the headline KernelMetrics as span args) with `simt.lane_pass` /
/// `simt.cache_replay` child spans for the two passes, and updates the
/// `simt.*` metrics — see docs/METRICS.md. Capture is observational only
/// and never perturbs the returned metrics
/// (tests/test_determinism.cpp).
KernelMetrics launch(const DeviceSpec& spec, const LaunchConfig& config,
                     const KernelFn& kernel);

}  // namespace bd::simt
