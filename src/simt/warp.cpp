#include "simt/warp.hpp"

#include <algorithm>
#include <unordered_map>

#include "simt/coalescer.hpp"
#include "util/check.hpp"

namespace bd::simt {

namespace {

/// Key identifying one warp-level instruction: the n-th occurrence of a
/// static site across a lane's program order.
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

/// A warp-level load instruction being assembled from lane events.
struct LoadGroup {
  std::uint64_t order = 0;  // first-appearance program position
  std::vector<LaneAccess> accesses;
};

/// A warp-level branch instruction.
struct BranchGroup {
  std::uint32_t taken = 0;
  std::uint32_t not_taken = 0;
};

/// A warp-level counted loop.
struct LoopGroup {
  std::uint64_t max_trips = 0;
  std::uint64_t sum_trips = 0;
  std::uint32_t lanes = 0;
};

}  // namespace

WarpReplay analyze_warp_groups(const std::vector<const LaneTrace*>& traces,
                               const DeviceSpec& spec, KernelMetrics& out) {
  BD_CHECK_MSG(!traces.empty() && traces.size() <= spec.warp_size,
               "warp must hold 1..warp_size lanes");
  const std::uint32_t warp_size = spec.warp_size;
  out.warp_size = warp_size;

  // ---- group loads by (site, occurrence) ---------------------------------
  std::unordered_map<SiteOcc, LoadGroup, SiteOccHash> load_groups;
  std::unordered_map<std::uint32_t, std::uint32_t> occ_counter;
  std::uint64_t order = 0;
  for (const LaneTrace* lane : traces) {
    occ_counter.clear();
    std::uint64_t lane_pos = 0;
    for (const LoadEvent& ev : lane->loads()) {
      const std::uint32_t occ = occ_counter[ev.site]++;
      LoadGroup& group = load_groups[SiteOcc{ev.site, occ}];
      if (group.accesses.empty()) group.order = (order << 32) | lane_pos;
      group.accesses.push_back(LaneAccess{ev.addr, ev.bytes});
      ++lane_pos;
    }
    ++order;
  }

  // Program order: order of first appearance in the first lane that
  // executed the instruction.
  std::vector<const LoadGroup*> ordered;
  ordered.reserve(load_groups.size());
  for (const auto& [key, group] : load_groups) ordered.push_back(&group);
  std::sort(ordered.begin(), ordered.end(),
            [](const LoadGroup* a, const LoadGroup* b) {
              return a->order < b->order;
            });

  WarpReplay replay;
  replay.instructions.reserve(ordered.size());
  for (const LoadGroup* group : ordered) {
    CoalesceResult res = coalesce(group->accesses, spec.l1_line_bytes);
    out.load_instructions += 1;
    out.warp_instructions += 1;
    out.active_lane_slots += group->accesses.size();
    out.lane_slots += warp_size;
    out.bytes_requested += res.bytes_requested;
    out.bytes_transferred += res.bytes_transferred;
    out.l1_transactions += res.line_addrs.size();
    replay.instructions.push_back(std::move(res.line_addrs));
  }

  // ---- loops: divergence from trip-count spread --------------------------
  std::unordered_map<SiteOcc, LoopGroup, SiteOccHash> loop_groups;
  for (const LaneTrace* lane : traces) {
    occ_counter.clear();
    for (const LoopEvent& ev : lane->loops()) {
      const std::uint32_t occ = occ_counter[ev.site]++;
      LoopGroup& group = loop_groups[SiteOcc{ev.site, occ}];
      group.max_trips = std::max(group.max_trips, ev.trips);
      group.sum_trips += ev.trips;
      ++group.lanes;
    }
  }
  for (const auto& [key, group] : loop_groups) {
    // The warp executes max_trips iterations; a lane is active only for
    // its own trip count. One issue slot per iteration models the body.
    out.warp_instructions += group.max_trips;
    out.lane_slots += group.max_trips * warp_size;
    out.active_lane_slots += group.sum_trips;
  }

  // ---- branches -----------------------------------------------------------
  std::unordered_map<SiteOcc, BranchGroup, SiteOccHash> branch_groups;
  for (const LaneTrace* lane : traces) {
    occ_counter.clear();
    for (const BranchEvent& ev : lane->branches()) {
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
    const std::uint32_t active = group.taken + group.not_taken;
    out.lane_slots += warp_size;
    out.active_lane_slots += active;
    if (group.taken > 0 && group.not_taken > 0) ++out.divergent_branches;
  }

  // ---- flops ---------------------------------------------------------------
  for (const LaneTrace* lane : traces) out.flops += lane->flops();

  return replay;
}

void replay_interleaved_l1(std::vector<WarpReplay>& replays,
                           const DeviceSpec& spec, SetAssocCache& l1,
                           KernelMetrics& out,
                           std::vector<std::uint64_t>& l2_misses) {
  (void)spec;
  std::vector<std::size_t> cursor(replays.size(), 0);
  bool progressed = true;
  while (progressed) {
    progressed = false;
    for (std::size_t w = 0; w < replays.size(); ++w) {
      const auto& stream = replays[w].instructions;
      if (cursor[w] >= stream.size()) continue;
      progressed = true;
      for (std::uint64_t line : stream[cursor[w]]) {
        if (l1.access(line)) {
          ++out.l1.hits;
        } else {
          ++out.l1.misses;
          l2_misses.push_back(line);
        }
      }
      ++cursor[w];
    }
  }
}

void replay_l2_lines(const std::vector<std::uint64_t>& lines,
                     const DeviceSpec& spec, SetAssocCache& l2,
                     KernelMetrics& out) {
  for (std::uint64_t line : lines) {
    // An L1 miss fetches the line as L2-sector transactions.
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

}  // namespace bd::simt
