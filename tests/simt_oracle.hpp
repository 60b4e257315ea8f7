#pragma once
/// Reference implementations the SIMT model's fast paths are checked
/// against: the hash-map warp analyzer with its per-instruction coalescer,
/// the serial single-L2 replay, and the serial per-SM cache replay built
/// from them.

#include <algorithm>
#include <bit>
#include <span>
#include <unordered_map>
#include <vector>

#include "simt/cache.hpp"
#include "simt/coalescer.hpp"
#include "simt/device.hpp"
#include "simt/metrics.hpp"
#include "simt/trace.hpp"
#include "simt/warp.hpp"
#include "util/check.hpp"

namespace bd::testing {
namespace oracle {

/// One lane's contribution to a warp load.
struct LaneAccess {
  std::uint64_t addr;
  std::uint32_t bytes;
};

/// Result of coalescing one warp-level load.
struct CoalesceResult {
  std::vector<std::uint64_t> line_addrs;  ///< unique line base addresses
  std::uint64_t bytes_requested = 0;      ///< sum of lane request widths
  std::uint64_t bytes_transferred = 0;    ///< lines * line_bytes
};

/// Coalesce the accesses of the active lanes of one warp instruction into
/// unique `line_bytes`-sized transactions, ascending.
inline CoalesceResult coalesce(const std::vector<LaneAccess>& accesses,
                               std::uint32_t line_bytes) {
  BD_CHECK_MSG(line_bytes > 0 && std::has_single_bit(line_bytes),
               "line size must be a power of two");
  CoalesceResult result;
  for (const LaneAccess& a : accesses) {
    result.bytes_requested += a.bytes;
    simt::for_each_line(a.addr, a.bytes, line_bytes, [&](std::uint64_t line) {
      result.line_addrs.push_back(line);
    });
  }
  std::sort(result.line_addrs.begin(), result.line_addrs.end());
  result.line_addrs.erase(
      std::unique(result.line_addrs.begin(), result.line_addrs.end()),
      result.line_addrs.end());
  result.bytes_transferred =
      static_cast<std::uint64_t>(result.line_addrs.size()) * line_bytes;
  return result;
}

/// A warp's loads as one line list per warp-level load, program order.
using LoadStream = std::vector<std::vector<std::uint64_t>>;

/// The CSR stream of simt::WarpReplay as a LoadStream.
inline LoadStream loads_of(const simt::WarpReplay& replay) {
  LoadStream loads;
  for (std::size_t i = 0; i < replay.loads(); ++i) {
    loads.emplace_back(replay.lines.begin() + replay.offsets[i],
                       replay.lines.begin() + replay.offsets[i + 1]);
  }
  return loads;
}

/// The hash-map warp analyzer: groups every event kind by (site,
/// occurrence) in its own table, orders load groups by sorting their
/// first-appearance keys, and coalesces each group's accesses.
inline LoadStream analyze_warp_groups(
    const std::vector<const simt::LaneTrace*>& traces,
    const simt::DeviceSpec& spec, simt::KernelMetrics& out) {
  struct SiteOcc {
    std::uint32_t site;
    std::uint32_t occ;
    bool operator==(const SiteOcc&) const = default;
  };
  struct SiteOccHash {
    std::size_t operator()(const SiteOcc& k) const {
      return (static_cast<std::size_t>(k.site) << 32) ^ k.occ;
    }
  };
  struct LoadGroup {
    std::uint64_t order = 0;  // first-appearance program position
    std::vector<LaneAccess> accesses;
  };
  struct BranchGroup {
    std::uint32_t taken = 0;
    std::uint32_t not_taken = 0;
  };
  struct LoopGroup {
    std::uint64_t max_trips = 0;
    std::uint64_t sum_trips = 0;
  };

  BD_CHECK_MSG(!traces.empty() && traces.size() <= spec.warp_size,
               "warp must hold 1..warp_size lanes");
  const std::uint32_t warp_size = spec.warp_size;
  out.warp_size = warp_size;

  std::unordered_map<SiteOcc, LoadGroup, SiteOccHash> load_groups;
  std::unordered_map<std::uint32_t, std::uint32_t> occ_counter;
  std::uint64_t order = 0;
  for (const simt::LaneTrace* lane : traces) {
    occ_counter.clear();
    std::uint64_t lane_pos = 0;
    for (const simt::LoadEvent& ev : lane->loads()) {
      const std::uint32_t occ = occ_counter[ev.site]++;
      LoadGroup& group = load_groups[SiteOcc{ev.site, occ}];
      if (group.accesses.empty()) group.order = (order << 32) | lane_pos;
      group.accesses.push_back(LaneAccess{ev.addr, ev.bytes});
      ++lane_pos;
    }
    ++order;
  }
  std::vector<const LoadGroup*> ordered;
  for (const auto& [key, group] : load_groups) ordered.push_back(&group);
  std::sort(ordered.begin(), ordered.end(),
            [](const LoadGroup* a, const LoadGroup* b) {
              return a->order < b->order;
            });

  LoadStream loads;
  for (const LoadGroup* group : ordered) {
    CoalesceResult res = coalesce(group->accesses, spec.l1_line_bytes);
    out.load_instructions += 1;
    out.warp_instructions += 1;
    out.active_lane_slots += group->accesses.size();
    out.lane_slots += warp_size;
    out.bytes_requested += res.bytes_requested;
    out.bytes_transferred += res.bytes_transferred;
    out.l1_transactions += res.line_addrs.size();
    loads.push_back(std::move(res.line_addrs));
  }

  std::unordered_map<SiteOcc, LoopGroup, SiteOccHash> loop_groups;
  for (const simt::LaneTrace* lane : traces) {
    occ_counter.clear();
    for (const simt::LoopEvent& ev : lane->loops()) {
      const std::uint32_t occ = occ_counter[ev.site]++;
      LoopGroup& group = loop_groups[SiteOcc{ev.site, occ}];
      group.max_trips = std::max(group.max_trips, ev.trips);
      group.sum_trips += ev.trips;
    }
  }
  for (const auto& [key, group] : loop_groups) {
    out.warp_instructions += group.max_trips;
    out.lane_slots += group.max_trips * warp_size;
    out.active_lane_slots += group.sum_trips;
  }

  std::unordered_map<SiteOcc, BranchGroup, SiteOccHash> branch_groups;
  for (const simt::LaneTrace* lane : traces) {
    occ_counter.clear();
    for (const simt::BranchEvent& ev : lane->branches()) {
      const std::uint32_t occ = occ_counter[ev.site]++;
      BranchGroup& group = branch_groups[SiteOcc{ev.site, occ}];
      if (ev.taken) {
        ++group.taken;
      } else {
        ++group.not_taken;
      }
    }
  }
  for (const auto& [key, group] : branch_groups) {
    out.branch_events += 1;
    out.warp_instructions += 1;
    out.lane_slots += warp_size;
    out.active_lane_slots += group.taken + group.not_taken;
    if (group.taken > 0 && group.not_taken > 0) ++out.divergent_branches;
  }

  for (const simt::LaneTrace* lane : traces) out.flops += lane->flops();
  return loads;
}

/// One shared L2, serially: each recorded L1-miss line fetched as
/// l2_line_bytes sector transactions, in the order given.
inline void replay_l2_lines(const std::vector<std::uint64_t>& lines,
                            const simt::DeviceSpec& spec,
                            simt::SetAssocCache& l2,
                            simt::KernelMetrics& out) {
  for (std::uint64_t line : lines) {
    for (std::uint32_t off = 0; off < spec.l1_line_bytes;
         off += spec.l2_line_bytes) {
      if (l2.access(line + off)) {
        ++out.l2.hits;
      } else {
        ++out.l2.misses;
        out.dram_bytes += spec.l2_line_bytes;
      }
    }
  }
}

}  // namespace oracle

/// Serial cache replay of one SM: the warps' streams through its L1, then
/// the L1 misses through the shared L2 — the pre-sharding executor.
inline void replay_interleaved(std::span<const simt::WarpReplay> replays,
                               const simt::DeviceSpec& spec,
                               simt::SetAssocCache& l1,
                               simt::SetAssocCache& l2,
                               simt::KernelMetrics& out) {
  std::vector<std::uint64_t> l2_misses;
  simt::replay_interleaved_l1(replays, l1, out, l2_misses);
  oracle::replay_l2_lines(l2_misses, spec, l2, out);
}

/// Analyze one warp and replay it alone.
inline void analyze_warp(const std::vector<const simt::LaneTrace*>& traces,
                         const simt::DeviceSpec& spec,
                         simt::SetAssocCache& l1, simt::SetAssocCache& l2,
                         simt::KernelMetrics& out) {
  const simt::WarpReplay replay =
      simt::analyze_warp_groups(traces, spec, out);
  replay_interleaved({&replay, 1}, spec, l1, l2, out);
}

}  // namespace bd::testing
