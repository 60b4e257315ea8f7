#pragma once
/// \file warp.hpp
/// Warp analyzer: reconstructs lockstep SIMT execution from the event
/// streams of a warp's lanes as they run. Events are aligned by (site,
/// occurrence-within-site): lanes that report the n-th event at a static
/// site are the lanes that were active when the warp issued that
/// instruction. The analyzer (WarpRecorder, the probe the lanes write to)
/// derives divergence statistics and each warp's coalesced memory stream;
/// replay_caches runs those streams through the per-SM L1s and the shared
/// L2.

#include <cstdint>
#include <span>
#include <vector>

#include "simt/cache.hpp"
#include "simt/device.hpp"
#include "simt/metrics.hpp"
#include "simt/probe.hpp"

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

/// The warp analyzer, as the probe a warp's lanes write to. The lanes run
/// one after another in lane order: begin_lane() before each lane, then
/// finish() after the warp's last lane. Each event kind counts its
/// occurrences per site and lane on its own, so the order in which a lane
/// mixes kinds changes no grouping. A load instruction is numbered when
/// its first lane reaches it, so instructions are numbered in (lane,
/// position) order. Tables and line storage are reused across warps, so a
/// warm recorder allocates only the streams it returns.
class WarpRecorder final : public LaneProbe {
 public:
  explicit WarpRecorder(const DeviceSpec& spec);

  /// Start the warp's next lane; a warp holds at most warp_size lanes.
  void begin_lane();

  void count_flops(std::uint64_t n) override { sums_.flops += n; }
  void load(std::uint32_t site, const void* addr,
            std::uint32_t bytes) override;
  void loop_trip(std::uint32_t site, std::uint64_t trips) override;
  void branch(std::uint32_t site, bool taken) override;
  /// Bulk insert: one virtual dispatch for the whole run.
  void load_run(std::uint32_t site, const void* const* addrs,
                std::uint32_t bytes, std::size_t count) override;

  /// End the warp: accumulates its divergence/coalescing statistics into
  /// `out`, returns its transaction stream for cache replay and resets the
  /// recorder for the next warp. The warp must hold at least one lane.
  WarpReplay finish(KernelMetrics& out);

 private:
  /// Occurrence counting for one event kind: the n-th event a lane reports
  /// at a site belongs to warp-level instruction (site, n). Holds one
  /// `Slot` per instruction, per site in occurrence order. A kernel has few
  /// sites, so lookup is a scan behind a last-hit check.
  template <typename Slot>
  class SiteTable {
   public:
    /// Forget every instruction (start of a warp); keeps capacity.
    void clear() {
      for (std::size_t i = 0; i < used_; ++i) sites_[i].slots.clear();
      used_ = 0;
      last_ = 0;
    }

    /// Restart occurrence counting (start of a lane).
    void next_lane() {
      for (std::size_t i = 0; i < used_; ++i) sites_[i].next = 0;
    }

    /// The slot of the lane's next event at `site`. An instruction no
    /// earlier lane reached starts as `fresh`.
    Slot& next(std::uint32_t site, Slot fresh) {
      Site& s = find(site);
      const std::uint32_t occ = s.next++;
      if (occ == s.slots.size()) s.slots.push_back(fresh);
      return s.slots[occ];
    }

    template <typename Fn>
    void for_each(Fn&& fn) const {
      for (std::size_t i = 0; i < used_; ++i) {
        for (const Slot& slot : sites_[i].slots) fn(slot);
      }
    }

   private:
    struct Site {
      std::uint32_t id = 0;
      std::uint32_t next = 0;
      std::vector<Slot> slots;
    };

    Site& find(std::uint32_t id) {
      if (last_ < used_ && sites_[last_].id == id) return sites_[last_];
      for (std::size_t i = 0; i < used_; ++i) {
        if (sites_[i].id == id) {
          last_ = i;
          return sites_[i];
        }
      }
      if (used_ == sites_.size()) sites_.emplace_back();
      Site& s = sites_[used_];
      s.id = id;
      s.next = 0;
      last_ = used_++;
      return s;
    }

    std::vector<Site> sites_;  // [0, used_) are live; the rest keep capacity
    std::size_t used_ = 0;
    std::size_t last_ = 0;
  };

  /// The distinct lines of one warp-level load, ascending, in a slice of
  /// the line arena. A full slice moves to one twice its size at the arena
  /// end.
  struct LineSet {
    std::uint32_t begin = 0;
    std::uint32_t size = 0;
    std::uint32_t capacity = 0;
  };

  /// Totals that do not depend on the grouping, summed as events arrive.
  struct Sums {
    std::uint64_t flops = 0;
    std::uint64_t load_events = 0;
    std::uint64_t bytes_requested = 0;
    std::uint64_t loop_trips = 0;
    std::uint64_t branch_events = 0;
  };

  void insert_line(LineSet& set, std::uint64_t line);

  std::uint32_t warp_size_;
  std::uint32_t line_bytes_;
  std::uint32_t lanes_ = 0;
  SiteTable<std::uint32_t> loads_;    // instruction -> index into `sets_`
  SiteTable<std::uint64_t> loops_;    // instruction -> longest trip count
  SiteTable<std::uint8_t> branches_;  // instruction -> bit 0 taken seen,
                                      //   bit 1 not-taken seen
  std::vector<LineSet> sets_;         // one per load, program order
  std::vector<std::uint64_t> arena_;  // storage of every LineSet
  Sums sums_;
};

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
