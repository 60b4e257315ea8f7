#include "simt/warp.hpp"

#include <algorithm>
#include <bit>

#include "simt/coalescer.hpp"
#include "util/check.hpp"
#include "util/parallel.hpp"

namespace bd::simt {

namespace {

/// Occurrence counting for one event kind: the n-th event a lane records
/// at a site belongs to warp-level instruction (site, n). Holds one `Slot`
/// per instruction, per site in occurrence order. A kernel has few sites,
/// so lookup is a scan behind a last-hit check.
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

/// The distinct lines of one warp-level load, ascending, in a slice of the
/// line arena. A full slice moves to one twice its size at the arena end.
struct LineSet {
  std::uint32_t begin = 0;
  std::uint32_t size = 0;
  std::uint32_t capacity = 0;
};

constexpr std::uint32_t kInitialLines = 8;

void insert_line(LineSet& set, std::vector<std::uint64_t>& arena,
                 std::uint64_t line) {
  std::uint64_t* first = arena.data() + set.begin;
  std::uint64_t* last = first + set.size;
  std::uint64_t* pos = last;
  if (set.size > 0 && line <= last[-1]) {
    if (line == last[-1]) return;  // lanes mostly walk lines in order
    pos = std::lower_bound(first, last - 1, line);
    if (*pos == line) return;
  }
  if (set.size == set.capacity) {
    const std::size_t at = static_cast<std::size_t>(pos - first);
    const auto begin = static_cast<std::uint32_t>(arena.size());
    arena.resize(arena.size() + 2 * std::size_t{set.capacity});
    first = arena.data() + begin;
    std::copy_n(arena.data() + set.begin, set.size, first);
    set.begin = begin;
    set.capacity *= 2;
    pos = first + at;
    last = first + set.size;
  }
  std::copy_backward(pos, last, last + 1);
  *pos = line;
  ++set.size;
}

/// Per-thread analyzer state, reused across warps so a warm analyzer does
/// not allocate.
struct AnalyzerScratch {
  SiteTable<std::uint32_t> loads;    // instruction -> index into `sets`
  SiteTable<std::uint64_t> loops;    // instruction -> longest trip count
  SiteTable<std::uint8_t> branches;  // instruction -> bit 0 taken seen,
                                     //   bit 1 not-taken seen
  std::vector<LineSet> sets;         // one per load, program order
  std::vector<std::uint64_t> arena;  // storage of every LineSet
};

}  // namespace

WarpReplay analyze_warp_groups(std::span<const LaneTrace* const> traces,
                               const DeviceSpec& spec, KernelMetrics& out) {
  BD_CHECK_MSG(!traces.empty() && traces.size() <= spec.warp_size,
               "warp must hold 1..warp_size lanes");
  BD_CHECK_MSG(std::has_single_bit(spec.l1_line_bytes),
               "line size must be a power of two");
  const std::uint32_t warp_size = spec.warp_size;
  out.warp_size = warp_size;

  thread_local AnalyzerScratch scratch;
  scratch.loads.clear();
  scratch.loops.clear();
  scratch.branches.clear();
  scratch.sets.clear();
  scratch.arena.clear();

  // One lane-major sweep. A load instruction is numbered when its first
  // lane reaches it; (lane, position) order is program order, so the
  // numbering needs no sort. Active lanes, requested bytes and trip/branch
  // sums do not depend on the grouping and are summed as they stream by.
  std::uint64_t load_events = 0;
  std::uint64_t bytes_requested = 0;
  std::uint64_t loop_trips = 0;
  std::uint64_t branch_events = 0;
  for (const LaneTrace* lane : traces) {
    scratch.loads.next_lane();
    scratch.loops.next_lane();
    scratch.branches.next_lane();
    for (const LoadEvent& ev : lane->loads()) {
      const auto fresh = static_cast<std::uint32_t>(scratch.sets.size());
      const std::uint32_t load = scratch.loads.next(ev.site, fresh);
      if (load == fresh) {
        scratch.sets.push_back(LineSet{
            static_cast<std::uint32_t>(scratch.arena.size()), 0,
            kInitialLines});
        scratch.arena.resize(scratch.arena.size() + kInitialLines);
      }
      LineSet& set = scratch.sets[load];
      bytes_requested += ev.bytes;
      for_each_line(ev.addr, ev.bytes, spec.l1_line_bytes,
                    [&](std::uint64_t line) {
                      insert_line(set, scratch.arena, line);
                    });
    }
    load_events += lane->loads().size();
    for (const LoopEvent& ev : lane->loops()) {
      std::uint64_t& max_trips = scratch.loops.next(ev.site, 0);
      max_trips = std::max(max_trips, ev.trips);
      loop_trips += ev.trips;
    }
    for (const BranchEvent& ev : lane->branches()) {
      scratch.branches.next(ev.site, 0) |= ev.taken ? 1 : 2;
    }
    branch_events += lane->branches().size();
    out.flops += lane->flops();
  }

  // ---- loads: one issue slot each, one transaction per distinct line ------
  const std::size_t num_loads = scratch.sets.size();
  std::size_t num_lines = 0;
  for (const LineSet& set : scratch.sets) num_lines += set.size;
  WarpReplay replay;
  replay.lines.reserve(num_lines);
  replay.offsets.reserve(num_loads + 1);
  replay.offsets.push_back(0);
  for (const LineSet& set : scratch.sets) {
    const auto first = scratch.arena.begin() + set.begin;
    replay.lines.insert(replay.lines.end(), first, first + set.size);
    replay.offsets.push_back(static_cast<std::uint32_t>(replay.lines.size()));
  }
  out.load_instructions += num_loads;
  out.warp_instructions += num_loads;
  out.lane_slots += num_loads * warp_size;
  out.active_lane_slots += load_events;
  out.bytes_requested += bytes_requested;
  out.l1_transactions += num_lines;
  out.bytes_transferred += num_lines * spec.l1_line_bytes;

  // ---- loops: divergence from trip-count spread ----------------------------
  // The warp executes the longest trip count; a lane is active only for its
  // own trips. One issue slot per iteration models the body.
  scratch.loops.for_each([&](std::uint64_t max_trips) {
    out.warp_instructions += max_trips;
    out.lane_slots += max_trips * warp_size;
  });
  out.active_lane_slots += loop_trips;

  // ---- branches ------------------------------------------------------------
  scratch.branches.for_each([&](std::uint8_t outcomes) {
    out.branch_events += 1;
    out.warp_instructions += 1;
    out.lane_slots += warp_size;
    if (outcomes == 3) ++out.divergent_branches;
  });
  out.active_lane_slots += branch_events;

  return replay;
}

void replay_interleaved_l1(std::span<const WarpReplay> replays,
                           SetAssocCache& l1, KernelMetrics& out,
                           std::vector<std::uint64_t>& l2_misses) {
  std::size_t rounds = 0;
  for (const WarpReplay& replay : replays) {
    rounds = std::max(rounds, replay.loads());
  }
  // Round i issues load i of every warp that has one.
  for (std::size_t i = 0; i < rounds; ++i) {
    for (const WarpReplay& replay : replays) {
      if (i >= replay.loads()) continue;
      for (std::uint32_t k = replay.offsets[i]; k < replay.offsets[i + 1];
           ++k) {
        const std::uint64_t line = replay.lines[k];
        if (l1.access(line)) {
          ++out.l1.hits;
        } else {
          ++out.l1.misses;
          l2_misses.push_back(line);
        }
      }
    }
  }
}

std::uint32_t l2_partitions(const DeviceSpec& spec) {
  constexpr std::uint32_t kMaxPartitions = 32;
  const std::uint32_t sets = SetAssocCache::sets_for(
      spec.l2_bytes, spec.l2_line_bytes, spec.l2_ways);
  const std::uint32_t sectors =
      std::max<std::uint32_t>(1, spec.l1_line_bytes / spec.l2_line_bytes);
  return std::clamp<std::uint32_t>(sets / sectors, 1, kMaxPartitions);
}

KernelMetrics replay_caches(const DeviceSpec& spec,
                            std::span<const std::vector<WarpReplay>> sm_warps,
                            std::size_t warps_per_chunk) {
  BD_CHECK_MSG(warps_per_chunk > 0, "chunks must hold at least one warp");
  // Partition p owns the L2 sets [p * part_sets, (p + 1) * part_sets): the
  // high bits of the set index pick the partition, and its share of the
  // L2 is a cache of part_sets sets, which indexes a sector by the low
  // bits. Lines are L1-line aligned and part_sets is at least the sectors
  // per line, so all sectors of a line fall in one partition.
  const std::uint32_t partitions = l2_partitions(spec);
  const std::uint32_t sets = SetAssocCache::sets_for(
      spec.l2_bytes, spec.l2_line_bytes, spec.l2_ways);
  const std::uint32_t part_sets = sets / partitions;
  const int sector_shift = std::countr_zero(spec.l2_line_bytes);
  const int part_shift = std::countr_zero(part_sets);
  const auto partition_of = [&](std::uint64_t line) {
    BD_DCHECK(line % spec.l1_line_bytes == 0);
    return static_cast<std::size_t>(
        ((line >> sector_shift) & (sets - 1)) >> part_shift);
  };

  // ---- 2a: per-SM L1s, misses bucketed by L2 partition in replay order ----
  struct SmShard {
    KernelMetrics partial;
    std::vector<std::vector<std::uint64_t>> misses;  // one per partition
  };
  std::vector<SmShard> shards(sm_warps.size());
  util::parallel_for(0, sm_warps.size(), [&](std::size_t sm) {
    SmShard& shard = shards[sm];
    shard.misses.resize(partitions);
    SetAssocCache l1(spec.l1_bytes, spec.l1_line_bytes, spec.l1_ways);
    const std::span<const WarpReplay> warps = sm_warps[sm];
    std::vector<std::uint64_t> chunk_misses;
    for (std::size_t begin = 0; begin < warps.size();
         begin += warps_per_chunk) {
      chunk_misses.clear();
      replay_interleaved_l1(
          warps.subspan(begin, std::min(warps_per_chunk, warps.size() - begin)),
          l1, shard.partial, chunk_misses);
      for (std::uint64_t line : chunk_misses) {
        shard.misses[partition_of(line)].push_back(line);
      }
    }
  });

  // ---- 2b: each L2 partition takes its buckets SM-major -------------------
  // An L1 miss fetches its line as L2-sector transactions.
  std::vector<KernelMetrics> l2_partials(partitions);
  util::parallel_for(0, partitions, [&](std::size_t p) {
    KernelMetrics& partial = l2_partials[p];
    SetAssocCache l2(part_sets * spec.l2_ways * spec.l2_line_bytes,
                     spec.l2_line_bytes, spec.l2_ways);
    for (const SmShard& shard : shards) {
      for (std::uint64_t line : shard.misses[p]) {
        for (std::uint32_t off = 0; off < spec.l1_line_bytes;
             off += spec.l2_line_bytes) {
          if (l2.access(line + off)) {
            ++partial.l2.hits;
          } else {
            ++partial.l2.misses;
            partial.dram_bytes += spec.l2_line_bytes;
          }
        }
      }
    }
  });

  KernelMetrics out;
  out.warp_size = spec.warp_size;
  for (const SmShard& shard : shards) out += shard.partial;
  for (const KernelMetrics& partial : l2_partials) out += partial;
  return out;
}

}  // namespace bd::simt
