#pragma once
/// \file warp.hpp
/// Warp analyzer: reconstructs lockstep SIMT execution from independent
/// per-lane traces. Events are aligned by (site, occurrence-within-site):
/// lanes that recorded the n-th event at a static site are the lanes that
/// were active when the warp issued that instruction. The analyzer derives
/// divergence statistics and each warp's coalesced memory stream;
/// replay_caches runs those streams through the per-SM L1s and the shared
/// L2.

#include <cstdint>
#include <span>
#include <vector>

#include "simt/cache.hpp"
#include "simt/device.hpp"
#include "simt/metrics.hpp"
#include "simt/trace.hpp"

namespace bd::simt {

/// The coalesced memory stream of one warp, ready for cache replay: one
/// CSR stream of the distinct line addresses of every warp-level load, in
/// program order, each load's lines ascending.
struct WarpReplay {
  std::vector<std::uint64_t> lines;
  /// Load i reads lines[offsets[i], offsets[i + 1]); empty when the warp
  /// issued no loads.
  std::vector<std::uint32_t> offsets;

  std::size_t loads() const {
    return offsets.empty() ? 0 : offsets.size() - 1;
  }
};

/// Reconstruct warp-level execution from per-lane traces: accumulates
/// divergence/coalescing statistics into `out` and returns the warp's
/// transaction stream for cache replay. A warp-level instruction's
/// program position is where its first lane recorded it, so instructions
/// are numbered in (lane, position) order. Works in per-thread scratch
/// that is reused across calls.
WarpReplay analyze_warp_groups(std::span<const LaneTrace* const> traces,
                               const DeviceSpec& spec, KernelMetrics& out);

/// L1 stage of the cache replay: interleaves several warps' transaction
/// streams through the SM's private L1 round-robin, one instruction at a
/// time — the concurrency model of an SM's warp schedulers. Scattered
/// per-warp streams thrash the shared L1; streams touching common lines
/// share it. Accumulates L1 hit/miss counters into `out` and appends the
/// line address of every L1 miss to `l2_misses` in replay order.
void replay_interleaved_l1(std::span<const WarpReplay> replays,
                           SetAssocCache& l1, KernelMetrics& out,
                           std::vector<std::uint64_t>& l2_misses);

/// Number of set partitions replay_caches splits the shared L2 into: up
/// to 32, and at most as many as keep every L1 line's L2 sectors inside
/// one partition (so a 32-set L2 with four sectors per line gets 8).
std::uint32_t l2_partitions(const DeviceSpec& spec);

/// Pass 2 of simt::launch: replays per-SM warp streams through the caches
/// and returns the cache counters (L1/L2 hits and misses, DRAM bytes).
/// `sm_warps[s]` holds SM s's warps in block order; consecutive groups of
/// `warps_per_chunk` warps are co-resident and interleave in the SM's L1.
///
/// Both stages run on the thread pool. 2a replays every SM's private L1 in
/// parallel and buckets its L1 misses by L2 set partition. 2b replays each
/// partition's buckets in SM order through that partition's share of the
/// L2. L2 sets are independent and LRU compares only within a set, so the
/// result equals one serial L2 fed every SM's misses SM-major — bit for
/// bit, at any BD_NUM_THREADS.
KernelMetrics replay_caches(const DeviceSpec& spec,
                            std::span<const std::vector<WarpReplay>> sm_warps,
                            std::size_t warps_per_chunk);

}  // namespace bd::simt
