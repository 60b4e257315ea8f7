#include "simt/warp.hpp"

#include <algorithm>
#include <bit>

#include "simt/coalescer.hpp"
#include "util/check.hpp"
#include "util/parallel.hpp"

namespace bd::simt {

namespace {

constexpr std::uint32_t kInitialLines = 8;

}  // namespace

WarpRecorder::WarpRecorder(const DeviceSpec& spec)
    : warp_size_(spec.warp_size), line_bytes_(spec.l1_line_bytes) {
  BD_CHECK_MSG(std::has_single_bit(line_bytes_),
               "line size must be a power of two");
}

void WarpRecorder::begin_lane() {
  BD_CHECK_MSG(lanes_ < warp_size_, "warp must hold 1..warp_size lanes");
  ++lanes_;
  loads_.next_lane();
  loops_.next_lane();
  branches_.next_lane();
}

void WarpRecorder::load(std::uint32_t site, const void* addr,
                        std::uint32_t bytes) {
  const auto fresh = static_cast<std::uint32_t>(sets_.size());
  const std::uint32_t index = loads_.next(site, fresh);
  if (index == fresh) {
    sets_.push_back(
        LineSet{static_cast<std::uint32_t>(arena_.size()), 0, kInitialLines});
    arena_.resize(arena_.size() + kInitialLines);
  }
  LineSet& set = sets_[index];
  ++sums_.load_events;
  sums_.bytes_requested += bytes;
  for_each_line(reinterpret_cast<std::uint64_t>(addr), bytes, line_bytes_,
                [&](std::uint64_t line) { insert_line(set, line); });
}

void WarpRecorder::load_run(std::uint32_t site, const void* const* addrs,
                            std::uint32_t bytes, std::size_t count) {
  for (std::size_t i = 0; i < count; ++i) load(site, addrs[i], bytes);
}

void WarpRecorder::insert_line(LineSet& set, std::uint64_t line) {
  std::uint64_t* first = arena_.data() + set.begin;
  std::uint64_t* last = first + set.size;
  std::uint64_t* pos = last;
  if (set.size > 0 && line <= last[-1]) {
    if (line == last[-1]) return;  // lanes mostly walk lines in order
    pos = std::lower_bound(first, last - 1, line);
    if (*pos == line) return;
  }
  if (set.size == set.capacity) {
    const std::size_t at = static_cast<std::size_t>(pos - first);
    const auto begin = static_cast<std::uint32_t>(arena_.size());
    arena_.resize(arena_.size() + 2 * std::size_t{set.capacity});
    first = arena_.data() + begin;
    std::copy_n(arena_.data() + set.begin, set.size, first);
    set.begin = begin;
    set.capacity *= 2;
    pos = first + at;
    last = first + set.size;
  }
  std::copy_backward(pos, last, last + 1);
  *pos = line;
  ++set.size;
}

void WarpRecorder::loop_trip(std::uint32_t site, std::uint64_t trips) {
  std::uint64_t& max_trips = loops_.next(site, 0);
  max_trips = std::max(max_trips, trips);
  sums_.loop_trips += trips;
}

void WarpRecorder::branch(std::uint32_t site, bool taken) {
  branches_.next(site, 0) |= taken ? 1 : 2;
  ++sums_.branch_events;
}

WarpReplay WarpRecorder::finish(KernelMetrics& out) {
  BD_CHECK_MSG(lanes_ > 0, "warp must hold 1..warp_size lanes");
  out.warp_size = warp_size_;

  // ---- loads: one issue slot each, one transaction per distinct line ------
  const std::size_t num_loads = sets_.size();
  std::size_t num_lines = 0;
  for (const LineSet& set : sets_) num_lines += set.size;
  WarpReplay replay;
  replay.lines.reserve(num_lines);
  replay.offsets.reserve(num_loads + 1);
  replay.offsets.push_back(0);
  for (const LineSet& set : sets_) {
    const auto first = arena_.begin() + set.begin;
    replay.lines.insert(replay.lines.end(), first, first + set.size);
    replay.offsets.push_back(static_cast<std::uint32_t>(replay.lines.size()));
  }
  out.load_instructions += num_loads;
  out.warp_instructions += num_loads;
  out.lane_slots += num_loads * warp_size_;
  out.active_lane_slots += sums_.load_events;
  out.bytes_requested += sums_.bytes_requested;
  out.l1_transactions += num_lines;
  out.bytes_transferred += num_lines * line_bytes_;

  // ---- loops: divergence from trip-count spread ----------------------------
  // The warp executes the longest trip count; a lane is active only for its
  // own trips. One issue slot per iteration models the body.
  loops_.for_each([&](std::uint64_t max_trips) {
    out.warp_instructions += max_trips;
    out.lane_slots += max_trips * warp_size_;
  });
  out.active_lane_slots += sums_.loop_trips;

  // ---- branches ------------------------------------------------------------
  branches_.for_each([&](std::uint8_t outcomes) {
    out.branch_events += 1;
    out.warp_instructions += 1;
    out.lane_slots += warp_size_;
    if (outcomes == 3) ++out.divergent_branches;
  });
  out.active_lane_slots += sums_.branch_events;
  out.flops += sums_.flops;

  loads_.clear();
  loops_.clear();
  branches_.clear();
  sets_.clear();
  arena_.clear();
  sums_ = {};
  lanes_ = 0;
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
