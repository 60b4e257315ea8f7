#pragma once
/// \file warp.hpp
/// Warp analyzer: reconstructs lockstep SIMT execution from independent
/// per-lane traces. Events are aligned by (site, occurrence-within-site):
/// lanes that recorded the n-th event at a static site are the lanes that
/// were active when the warp issued that instruction. The analyzer derives
/// divergence statistics and replays coalesced memory traffic through the
/// SM's L1 and the shared L2.

#include <cstdint>
#include <vector>

#include "simt/cache.hpp"
#include "simt/device.hpp"
#include "simt/metrics.hpp"
#include "simt/trace.hpp"

namespace bd::simt {

/// The coalesced memory stream of one warp: line addresses per warp-level
/// load instruction, in program order — ready for cache replay.
struct WarpReplay {
  std::vector<std::vector<std::uint64_t>> instructions;
};

/// Reconstruct warp-level execution from per-lane traces: accumulates
/// divergence/coalescing statistics into `out` and returns the warp's
/// transaction stream for cache replay.
WarpReplay analyze_warp_groups(const std::vector<const LaneTrace*>& traces,
                               const DeviceSpec& spec, KernelMetrics& out);

/// L1 stage of the cache replay: interleaves several warps' transaction
/// streams through the SM's private L1 round-robin, one instruction at a
/// time — the concurrency model of an SM's warp schedulers. Scattered
/// per-warp streams thrash the shared L1; streams touching common lines
/// share it. Accumulates L1 hit/miss counters into `out` and appends the
/// line address of every L1 miss to `l2_misses` in replay order instead
/// of touching the shared L2. Per-SM L1 state is independent, so the
/// executor runs this stage for all SMs in parallel (sharded replay) and
/// feeds the recorded miss streams to replay_l2_lines serially.
void replay_interleaved_l1(std::vector<WarpReplay>& replays,
                           const DeviceSpec& spec, SetAssocCache& l1,
                           KernelMetrics& out,
                           std::vector<std::uint64_t>& l2_misses);

/// L2 stage: replays recorded L1-miss lines through the shared L2 as
/// sector transactions (l2_line_bytes each), accumulating L2 hit/miss
/// counters and DRAM traffic into `out`. Feeding each SM's miss stream in
/// SM-major order reproduces the serial executor's L2 access order
/// exactly, which is what keeps sharded replay bitwise identical.
void replay_l2_lines(const std::vector<std::uint64_t>& lines,
                     const DeviceSpec& spec, SetAssocCache& l2,
                     KernelMetrics& out);

}  // namespace bd::simt
