#pragma once
/// Reference implementations the SIMT model's fast paths are checked
/// against: the hash-map warp analyzer with its per-instruction coalescer,
/// the tick-LRU cache, the serial single-L2 replay, and the serial per-SM
/// cache replay built from them. LaneTrace records one lane's probe events
/// for the oracle and for tests that compare event streams; CountingProbe
/// only totals them.

#include <algorithm>
#include <bit>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

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

/// Counting probe that only accumulates totals (no trace): the algorithmic
/// flop, load, loop-trip and branch volume of one code path.
class CountingProbe final : public simt::LaneProbe {
 public:
  void count_flops(std::uint64_t n) override { flops_ += n; }
  void load(std::uint32_t, const void*, std::uint32_t bytes) override {
    load_bytes_ += bytes;
    ++loads_;
  }
  void loop_trip(std::uint32_t, std::uint64_t trips) override {
    loop_iterations_ += trips;
  }
  void branch(std::uint32_t, bool) override { ++branches_; }
  void load_run(std::uint32_t, const void* const*, std::uint32_t bytes,
                std::size_t count) override {
    load_bytes_ += static_cast<std::uint64_t>(bytes) * count;
    loads_ += count;
  }

  std::uint64_t flops() const { return flops_; }
  std::uint64_t loads() const { return loads_; }
  std::uint64_t load_bytes() const { return load_bytes_; }
  std::uint64_t loop_iterations() const { return loop_iterations_; }
  std::uint64_t branches() const { return branches_; }

  void reset() { *this = CountingProbe{}; }

 private:
  std::uint64_t flops_ = 0;
  std::uint64_t loads_ = 0;
  std::uint64_t load_bytes_ = 0;
  std::uint64_t loop_iterations_ = 0;
  std::uint64_t branches_ = 0;
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

/// Set-associative cache with true-LRU replacement by access tick: each
/// way keeps the tick of its last access, and a miss fills an empty way
/// or else evicts the way with the oldest tick. The reference for
/// simt::SetAssocCache, with the same set count.
class TickLruCache {
 public:
  TickLruCache(std::uint32_t capacity_bytes, std::uint32_t line_bytes,
               std::uint32_t ways)
      : ways_(ways) {
    BD_CHECK_MSG(line_bytes > 0 && std::has_single_bit(line_bytes),
                 "line size must be a power of two");
    BD_CHECK_MSG(ways > 0 && capacity_bytes / line_bytes >= ways,
                 "bad cache geometry");
    line_shift_ = static_cast<std::uint32_t>(std::countr_zero(line_bytes));
    num_sets_ = std::bit_floor(capacity_bytes / line_bytes / ways);
    ways_storage_.assign(static_cast<std::size_t>(num_sets_) * ways_, Way{});
  }

  /// Probe and fill: true on hit; on miss the line is installed.
  bool access(std::uint64_t addr) {
    const std::uint64_t line = addr >> line_shift_;
    Way* set = &ways_storage_[set_begin(line)];
    ++tick_;
    Way* victim = set;
    for (std::uint32_t w = 0; w < ways_; ++w) {
      Way& way = set[w];
      if (way.valid && way.tag == line) {
        way.lru = tick_;
        return true;
      }
      if (!way.valid) {
        victim = &way;  // prefer an invalid way
      } else if (victim->valid && way.lru < victim->lru) {
        victim = &way;
      }
    }
    victim->tag = line;
    victim->valid = true;
    victim->lru = tick_;
    return false;
  }

  /// The address of the line the next miss in `addr`'s set would evict,
  /// or nothing while the set has an empty way.
  std::optional<std::uint64_t> lru_line(std::uint64_t addr) const {
    const Way* set = &ways_storage_[set_begin(addr >> line_shift_)];
    const Way* oldest = set;
    for (std::uint32_t w = 0; w < ways_; ++w) {
      if (!set[w].valid) return std::nullopt;
      if (set[w].lru < oldest->lru) oldest = &set[w];
    }
    return oldest->tag << line_shift_;
  }

  std::uint32_t num_sets() const { return num_sets_; }

 private:
  struct Way {
    std::uint64_t tag = ~0ull;
    std::uint64_t lru = 0;  // larger = more recently used
    bool valid = false;
  };

  std::size_t set_begin(std::uint64_t line) const {
    return static_cast<std::size_t>(line & (num_sets_ - 1)) * ways_;
  }

  std::uint32_t line_shift_ = 0;
  std::uint32_t num_sets_ = 0;
  std::uint32_t ways_;
  std::uint64_t tick_ = 0;
  std::vector<Way> ways_storage_;  // num_sets_ * ways_
};

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

/// A varint-coded simt::WarpReplay as a LoadStream, through
/// simt::StreamReader.
inline LoadStream loads_of(const simt::WarpReplay& replay,
                           std::uint32_t line_bytes) {
  LoadStream loads;
  simt::StreamReader reader(replay, line_bytes);
  while (reader.loads_left() != 0) {
    std::vector<std::uint64_t>& lines = loads.emplace_back();
    reader.next([&](std::uint64_t line) { lines.push_back(line); });
  }
  return loads;
}

/// A LoadStream as a varint-coded simt::WarpReplay, through
/// simt::StreamWriter. Each load's lines must be distinct and ascending.
inline simt::WarpReplay replay_of(const LoadStream& loads,
                                  std::uint32_t line_bytes) {
  simt::StreamWriter writer(line_bytes);
  for (const auto& lines : loads) writer.add(lines.data(), lines.size());
  return writer.take();
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

/// One SM's L1, serially: the warps' streams interleaved round-robin one
/// load at a time (round i issues load i of every warp that has one). L1
/// misses are appended to `l2_misses` in replay order.
inline void replay_interleaved_l1(std::span<const LoadStream> streams,
                                  TickLruCache& l1, simt::KernelMetrics& out,
                                  std::vector<std::uint64_t>& l2_misses) {
  for (std::size_t i = 0;; ++i) {
    bool issued = false;
    for (const LoadStream& loads : streams) {
      if (i >= loads.size()) continue;
      issued = true;
      for (std::uint64_t line : loads[i]) {
        if (l1.access(line)) {
          ++out.l1.hits;
        } else {
          ++out.l1.misses;
          l2_misses.push_back(line);
        }
      }
    }
    if (!issued) return;
  }
}

/// One shared L2, serially: each recorded L1-miss line fetched as
/// l2_line_bytes sector transactions, in the order given.
inline void replay_l2_lines(const std::vector<std::uint64_t>& lines,
                            const simt::DeviceSpec& spec, TickLruCache& l2,
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
inline void replay_interleaved(std::span<const oracle::LoadStream> streams,
                               const simt::DeviceSpec& spec,
                               oracle::TickLruCache& l1,
                               oracle::TickLruCache& l2,
                               simt::KernelMetrics& out) {
  std::vector<std::uint64_t> l2_misses;
  oracle::replay_interleaved_l1(streams, l1, out, l2_misses);
  oracle::replay_l2_lines(l2_misses, spec, l2, out);
}

/// Cache counters of the serial reference: per-SM L1 + one shared L2
/// replayed SM-major through replay_interleaved, `warps_per_chunk`
/// co-resident warps at a time — the pre-sharding executor. It reads the
/// warps' lines as plain lists, so no stream code sits on its side.
inline simt::KernelMetrics serial_replay(
    const simt::DeviceSpec& spec,
    const std::vector<std::vector<oracle::LoadStream>>& streams,
    std::size_t warps_per_chunk) {
  simt::KernelMetrics out;
  oracle::TickLruCache l2(spec.l2_bytes, spec.l2_line_bytes, spec.l2_ways);
  for (std::uint32_t sm = 0; sm < spec.num_sms; ++sm) {
    oracle::TickLruCache l1(spec.l1_bytes, spec.l1_line_bytes, spec.l1_ways);
    const std::span<const oracle::LoadStream> warps = streams[sm];
    for (std::size_t begin = 0; begin < warps.size();
         begin += warps_per_chunk) {
      replay_interleaved(
          warps.subspan(begin, std::min(warps_per_chunk, warps.size() - begin)),
          spec, l1, l2, out);
    }
  }
  return out;
}

/// Each SM's warps as the varint-coded streams simt::replay_caches takes.
inline std::vector<std::vector<simt::WarpReplay>> replays_of(
    const std::vector<std::vector<oracle::LoadStream>>& streams,
    std::uint32_t line_bytes) {
  std::vector<std::vector<simt::WarpReplay>> replays(streams.size());
  for (std::size_t sm = 0; sm < streams.size(); ++sm) {
    for (const oracle::LoadStream& loads : streams[sm]) {
      replays[sm].push_back(oracle::replay_of(loads, line_bytes));
    }
  }
  return replays;
}

/// Analyze one warp and replay it alone.
inline void analyze_warp(std::span<const LaneTrace> lanes,
                         const simt::DeviceSpec& spec,
                         oracle::TickLruCache& l1, oracle::TickLruCache& l2,
                         simt::KernelMetrics& out) {
  const oracle::LoadStream loads =
      oracle::loads_of(record_warp(lanes, spec, out), spec.l1_line_bytes);
  replay_interleaved({&loads, 1}, spec, l1, l2, out);
}

}  // namespace bd::testing
