#pragma once
/// Reference implementations the SIMT model's fast paths are checked
/// against: the hash-map warp analyzer with its per-instruction coalescer,
/// the serial single-L2 replay, and the serial per-SM cache replay built
/// from them. LaneTrace records one lane's probe events for the oracle and
/// for tests that compare event streams.

#include <algorithm>
#include <bit>
#include <span>
#include <unordered_map>
#include <vector>

#include "simt/cache.hpp"
#include "simt/coalescer.hpp"
#include "simt/device.hpp"
#include "simt/metrics.hpp"
#include "simt/probe.hpp"
#include "simt/warp.hpp"
#include "util/check.hpp"

namespace bd::testing {

/// One recorded global load.
struct LoadEvent {
  std::uint32_t site;    ///< static call-site id
  std::uint32_t bytes;   ///< access width
  std::uint64_t addr;    ///< virtual address
};

/// One recorded loop execution.
struct LoopEvent {
  std::uint32_t site;
  std::uint64_t trips;
};

/// One recorded data-dependent branch.
struct BranchEvent {
  std::uint32_t site;
  bool taken;
};

/// Records every instrumentation event of a single lane, each kind in
/// program order.
class LaneTrace final : public simt::LaneProbe {
 public:
  void count_flops(std::uint64_t n) override { flops_ += n; }

  void load(std::uint32_t site, const void* addr,
            std::uint32_t bytes) override {
    loads_.push_back(LoadEvent{site, bytes,
                               reinterpret_cast<std::uint64_t>(addr)});
  }

  void loop_trip(std::uint32_t site, std::uint64_t trips) override {
    loops_.push_back(LoopEvent{site, trips});
  }

  void branch(std::uint32_t site, bool taken) override {
    branches_.push_back(BranchEvent{site, taken});
  }

  std::uint64_t flops() const { return flops_; }
  const std::vector<LoadEvent>& loads() const { return loads_; }
  const std::vector<LoopEvent>& loops() const { return loops_; }
  const std::vector<BranchEvent>& branches() const { return branches_; }

 private:
  std::uint64_t flops_ = 0;
  std::vector<LoadEvent> loads_;
  std::vector<LoopEvent> loops_;
  std::vector<BranchEvent> branches_;
};

/// Report a recorded lane's events to `probe` again, kind by kind.
inline void play(const LaneTrace& lane, simt::LaneProbe& probe) {
  probe.count_flops(lane.flops());
  for (const LoadEvent& ev : lane.loads()) {
    probe.load(ev.site, reinterpret_cast<const void*>(ev.addr), ev.bytes);
  }
  for (const LoopEvent& ev : lane.loops()) probe.loop_trip(ev.site, ev.trips);
  for (const BranchEvent& ev : lane.branches()) {
    probe.branch(ev.site, ev.taken);
  }
}

/// Run recorded lanes through a fresh simt::WarpRecorder and finish the
/// warp.
inline simt::WarpReplay record_warp(std::span<const LaneTrace> lanes,
                                    const simt::DeviceSpec& spec,
                                    simt::KernelMetrics& out) {
  simt::WarpRecorder recorder(spec);
  for (const LaneTrace& lane : lanes) {
    recorder.begin_lane();
    play(lane, recorder);
  }
  return recorder.finish(out);
}

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

/// A LoadStream as the CSR stream of simt::WarpReplay.
inline simt::WarpReplay replay_of(const LoadStream& loads) {
  simt::WarpReplay replay;
  replay.offsets.push_back(0);
  for (const auto& lines : loads) {
    replay.lines.insert(replay.lines.end(), lines.begin(), lines.end());
    replay.offsets.push_back(static_cast<std::uint32_t>(replay.lines.size()));
  }
  return replay;
}

/// The hash-map warp analyzer: groups every event kind by (site,
/// occurrence) in its own table, orders load groups by sorting their
/// first-appearance keys, and coalesces each group's accesses.
inline LoadStream analyze_warp_groups(std::span<const LaneTrace> traces,
                                      const simt::DeviceSpec& spec,
                                      simt::KernelMetrics& out) {
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
  for (const LaneTrace& lane : traces) {
    occ_counter.clear();
    std::uint64_t lane_pos = 0;
    for (const LoadEvent& ev : lane.loads()) {
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
  for (const LaneTrace& lane : traces) {
    occ_counter.clear();
    for (const LoopEvent& ev : lane.loops()) {
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
  for (const LaneTrace& lane : traces) {
    occ_counter.clear();
    for (const BranchEvent& ev : lane.branches()) {
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

  for (const LaneTrace& lane : traces) out.flops += lane.flops();
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

/// Cache counters of the serial reference: per-SM L1 + one shared L2
/// replayed SM-major through replay_interleaved, `warps_per_chunk`
/// co-resident warps at a time — the pre-sharding executor.
inline simt::KernelMetrics serial_replay(
    const simt::DeviceSpec& spec,
    const std::vector<std::vector<simt::WarpReplay>>& streams,
    std::size_t warps_per_chunk) {
  simt::KernelMetrics out;
  simt::SetAssocCache l2(spec.l2_bytes, spec.l2_line_bytes, spec.l2_ways);
  for (std::uint32_t sm = 0; sm < spec.num_sms; ++sm) {
    simt::SetAssocCache l1(spec.l1_bytes, spec.l1_line_bytes, spec.l1_ways);
    const std::span<const simt::WarpReplay> warps = streams[sm];
    for (std::size_t begin = 0; begin < warps.size();
         begin += warps_per_chunk) {
      replay_interleaved(
          warps.subspan(begin, std::min(warps_per_chunk, warps.size() - begin)),
          spec, l1, l2, out);
    }
  }
  return out;
}

/// Analyze one warp and replay it alone.
inline void analyze_warp(std::span<const LaneTrace> lanes,
                         const simt::DeviceSpec& spec,
                         simt::SetAssocCache& l1, simt::SetAssocCache& l2,
                         simt::KernelMetrics& out) {
  const simt::WarpReplay replay = record_warp(lanes, spec, out);
  replay_interleaved({&replay, 1}, spec, l1, l2, out);
}

}  // namespace bd::testing
