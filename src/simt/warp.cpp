#include "simt/warp.hpp"

#include <algorithm>
#include <bit>
#include <cstring>

#include "simt/cache.hpp"
#include "simt/coalescer.hpp"
#include "util/check.hpp"
#include "util/parallel.hpp"

namespace bd::simt {

namespace {

constexpr std::uint16_t kInitialLines = 8;
/// The largest power-of-two capacity a line set's 16-bit field holds.
constexpr std::uint16_t kMaxLines = 1u << 15;

}  // namespace

void varint::Buffer::grow(std::size_t n) {
  const std::size_t capacity = std::max({2 * capacity_, size_ + n,
                                         std::size_t{64}});
  auto data = std::make_unique_for_overwrite<std::uint8_t[]>(capacity);
  if (size_ != 0) std::memcpy(data.get(), data_.get(), size_);
  data_ = std::move(data);
  capacity_ = capacity;
}

StreamWriter::StreamWriter(std::uint32_t line_bytes)
    : shift_(std::countr_zero(line_bytes)) {
  BD_CHECK_MSG(std::has_single_bit(line_bytes),
               "line size must be a power of two");
}

void StreamWriter::add(const std::uint64_t* lines, std::size_t count) {
  // A count, a first line and count - 1 gaps, each at most kMaxBytes.
  std::uint8_t* out = bytes_.room((count + 1) * varint::kMaxBytes);
  out = varint::put(out, count);
  if (count != 0) {
    const int shift = shift_;
    BD_DCHECK((lines[0] & ((std::uint64_t{1} << shift) - 1)) == 0);
    std::uint64_t line = lines[0] >> shift;
    out = varint::put(out, varint::zigzag(line, first_));
    first_ = line;
    for (std::size_t k = 1; k < count; ++k) {
      const std::uint64_t next = lines[k] >> shift;
      BD_DCHECK(next > line && next << shift == lines[k]);
      out = varint::put(out, next - line - 1);
      line = next;
    }
  }
  bytes_.commit(out);
  ++loads_;
}

WarpReplay StreamWriter::take() {
  WarpReplay replay;
  replay.bytes.assign(bytes_.data(), bytes_.data() + bytes_.size());
  replay.loads = loads_;
  bytes_.clear();
  loads_ = 0;
  first_ = 0;
  return replay;
}

StreamReader::StreamReader(const WarpReplay& replay, std::uint32_t line_bytes)
    : pos_(replay.bytes.data()),
      left_(replay.loads),
      shift_(std::countr_zero(line_bytes)) {}

WarpRecorder::WarpRecorder(const DeviceSpec& spec)
    : warp_size_(spec.warp_size),
      line_bytes_(spec.l1_line_bytes),
      stream_(spec.l1_line_bytes) {}

void WarpRecorder::begin_lane() {
  BD_CHECK_MSG(lanes_ < warp_size_, "warp must hold 1..warp_size lanes");
  ++lanes_;
  loads_.next_lane();
  loops_.next_lane();
  branches_.next_lane();
}

inline void WarpRecorder::insert_line(LineSet& set, std::uint64_t line) {
  // Lanes mostly walk lines in order, so most lines equal the set's
  // largest or exceed it, and neither case searches the arena slice.
  if (line == set.last && set.size != 0) return;
  if (line > set.last || set.size == 0) {
    if (set.size == set.capacity) grow(set);
    arena_[set.begin + set.size++] = line;
    set.last = line;
    return;
  }
  insert_below_last(set, line);
}

void WarpRecorder::load_run(std::uint32_t site, const void* const* addrs,
                            std::uint32_t bytes, std::size_t count) {
  LineSet* const sets = loads_.next(site, count);
  sums_.load_events += count;
  sums_.bytes_requested += std::uint64_t{bytes} * count;
  const std::uint32_t line_bytes = line_bytes_;
  for (std::size_t i = 0; i < count; ++i) {
    for_each_line(reinterpret_cast<std::uint64_t>(addrs[i]), bytes,
                  line_bytes,
                  [&](std::uint64_t line) { insert_line(sets[i], line); });
  }
}

void WarpRecorder::insert_below_last(LineSet& set, std::uint64_t line) {
  std::uint64_t* first = arena_.data() + set.begin;
  std::uint64_t* last = first + set.size - 1;  // holds set.last
  std::uint64_t* pos = std::lower_bound(first, last, line);
  if (*pos == line) return;
  if (set.size == set.capacity) {
    const std::ptrdiff_t at = pos - first;
    grow(set);
    first = arena_.data() + set.begin;
    pos = first + at;
    last = first + set.size - 1;
  }
  std::copy_backward(pos, last + 1, last + 2);
  *pos = line;
  ++set.size;
}

void WarpRecorder::grow(LineSet& set) {
  BD_CHECK_MSG(set.capacity < kMaxLines,
               "a warp-level load touches more than " << kMaxLines
                                                      << " lines");
  const auto capacity = static_cast<std::uint16_t>(
      set.capacity == 0 ? kInitialLines : 2 * set.capacity);
  const auto begin = static_cast<std::uint32_t>(arena_.size());
  arena_.resize(arena_.size() + capacity);
  std::copy_n(arena_.data() + set.begin, set.size, arena_.data() + begin);
  set.begin = begin;
  set.capacity = capacity;
}

void WarpRecorder::loop_trip(std::uint32_t site, std::uint64_t trips) {
  std::uint64_t& max_trips = *loops_.next(site, 1);
  max_trips = std::max(max_trips, trips);
  sums_.loop_trips += trips;
}

void WarpRecorder::branch(std::uint32_t site, bool taken) {
  *branches_.next(site, 1) |= taken ? 1 : 2;
  ++sums_.branch_events;
}

WarpReplay WarpRecorder::finish(KernelMetrics& out) {
  BD_CHECK_MSG(lanes_ > 0, "warp must hold 1..warp_size lanes");
  out.warp_size = warp_size_;

  // ---- loads: one issue slot each, one transaction per distinct line ------
  const std::size_t num_loads = loads_.size();
  std::size_t num_lines = 0;
  loads_.for_each([&](const LineSet& set) {
    stream_.add(arena_.data() + set.begin, set.size);
    num_lines += set.size;
  });
  WarpReplay replay = stream_.take();
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
  arena_.clear();
  sums_ = {};
  lanes_ = 0;
  return replay;
}

namespace {

/// The shared L2 at L1-line granularity, as CacheReplay models it. An L1
/// miss fetches its line's `sectors` L2 sectors one after another, and
/// sector k of every line maps only to sets with index k mod `sectors`. So
/// the sets that hold one line's sectors all see the same sequence of
/// lines, and hit or miss together: one access per line, with its outcome
/// counted `sectors` times, reproduces the sector-level L2. When the L2
/// has fewer sets than a line has sectors, each set takes
/// `sectors / sector_sets` of every line's sectors in a row, and its LRU
/// order keeps them adjacent only while its ways divide evenly by that.
struct LineL2 {
  std::uint32_t sectors;     ///< L2 sectors per L1 line; scales every count
  std::uint32_t line_bytes;  ///< l2_line_bytes * sectors
  std::uint32_t sets;
  std::uint32_t ways;
};

LineL2 line_l2(const DeviceSpec& spec) {
  const std::uint32_t sectors =
      std::max<std::uint32_t>(1, spec.l1_line_bytes / spec.l2_line_bytes);
  const std::uint32_t sector_sets = SetAssocCache::sets_for(
      spec.l2_bytes, spec.l2_line_bytes, spec.l2_ways);
  const std::uint32_t per_set =
      std::max<std::uint32_t>(1, sectors / sector_sets);
  BD_CHECK_MSG(spec.l2_ways % per_set == 0,
               "L2 of " << sector_sets << " sets and " << spec.l2_ways
                        << " ways cannot be replayed per line: each set holds "
                        << per_set << " sectors of every line");
  return {sectors, spec.l2_line_bytes * sectors,
          std::max<std::uint32_t>(1, sector_sets / sectors),
          spec.l2_ways / per_set};
}

}  // namespace

std::uint32_t l2_partitions(const DeviceSpec& spec) {
  constexpr std::uint32_t kMaxPartitions = 32;
  return std::min(line_l2(spec).sets, kMaxPartitions);
}

// Partition p owns the line sets [p * part_sets, (p + 1) * part_sets): the
// high bits of the set index pick the partition, and its share of the L2 is
// a cache of part_sets sets, which indexes a line by the low bits.
CacheReplay::CacheReplay(const DeviceSpec& spec, std::uint32_t num_sms)
    : warp_size_(spec.warp_size),
      l1_line_bytes_(spec.l1_line_bytes),
      l1_shift_(std::countr_zero(spec.l1_line_bytes)),
      l2_line_bytes_(spec.l2_line_bytes) {
  const LineL2 l2 = line_l2(spec);
  partitions_ = l2_partitions(spec);
  sectors_ = l2.sectors;
  line_bytes_ = l2.line_bytes;
  ways_ = l2.ways;
  part_sets_ = l2.sets / partitions_;
  line_shift_ = std::countr_zero(l2.line_bytes);
  set_mask_ = l2.sets - 1;
  part_shift_ = std::countr_zero(part_sets_);
  sms_.reserve(num_sms);
  for (std::uint32_t sm = 0; sm < num_sms; ++sm) {
    sms_.push_back(
        Sm{SetAssocCache(spec.l1_bytes, spec.l1_line_bytes, spec.l1_ways), {},
           std::vector<MissBucket>(partitions_)});
  }
}

void CacheReplay::replay_chunk(std::uint32_t sm,
                               std::span<const WarpReplay> warps) {
  Sm& state = sms_[sm];
  // Counts go to a local: the SMs' states sit side by side, and other
  // threads replay the other SMs.
  CacheStats stats;
  std::vector<StreamReader> readers;
  readers.reserve(warps.size());
  for (const WarpReplay& replay : warps) {
    if (replay.loads != 0) readers.emplace_back(replay, l1_line_bytes_);
  }
  const auto record = [&](std::uint64_t line) {
    if (state.l1.access(line)) {
      ++stats.hits;
    } else {
      ++stats.misses;
      state.misses[((line >> line_shift_) & set_mask_) >> part_shift_].push(
          line >> l1_shift_);
    }
  };
  // Each round issues the next load of every warp that has one; a warp
  // whose loads ran out leaves the rounds.
  while (!readers.empty()) {
    bool finished = false;
    for (StreamReader& reader : readers) {
      reader.next(record);
      finished |= reader.loads_left() == 0;
    }
    if (finished) {
      std::erase_if(readers, [](const StreamReader& reader) {
        return reader.loads_left() == 0;
      });
    }
  }
  state.l1_stats += stats;
}

KernelMetrics CacheReplay::replay_l2() {
  // Each partition takes its buckets SM-major, one access per L1 miss; the
  // line hits or misses in all its sectors. Tasks count into locals:
  // adjacent 16-byte results share a cache line.
  std::vector<CacheStats> l2_lines(partitions_);
  util::parallel_for(0, partitions_, [&](std::size_t p) {
    CacheStats lines;
    SetAssocCache cache(part_sets_ * ways_ * line_bytes_, line_bytes_, ways_);
    const int l1_shift = l1_shift_;
    for (Sm& sm : sms_) {
      sm.misses[p].drain([&](std::uint64_t line) {
        if (cache.access(line << l1_shift)) {
          ++lines.hits;
        } else {
          ++lines.misses;
        }
      });
    }
    l2_lines[p] = lines;
  });

  KernelMetrics out;
  out.warp_size = warp_size_;
  for (const Sm& sm : sms_) out.l1 += sm.l1_stats;
  for (const CacheStats& lines : l2_lines) out.l2 += lines;
  out.l2.hits *= sectors_;
  out.l2.misses *= sectors_;
  out.dram_bytes = out.l2.misses * l2_line_bytes_;
  return out;
}

KernelMetrics replay_caches(const DeviceSpec& spec,
                            std::span<const std::vector<WarpReplay>> sm_warps,
                            std::size_t warps_per_chunk) {
  BD_CHECK_MSG(warps_per_chunk > 0, "chunks must hold at least one warp");
  CacheReplay replay(spec, static_cast<std::uint32_t>(sm_warps.size()));
  util::parallel_for(0, sm_warps.size(), [&](std::size_t sm) {
    const std::span<const WarpReplay> warps = sm_warps[sm];
    for (std::size_t begin = 0; begin < warps.size();
         begin += warps_per_chunk) {
      replay.replay_chunk(
          static_cast<std::uint32_t>(sm),
          warps.subspan(begin, std::min(warps_per_chunk, warps.size() - begin)));
    }
  });
  return replay.replay_l2();
}

}  // namespace bd::simt
