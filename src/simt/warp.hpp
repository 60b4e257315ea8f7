#pragma once
/// \file warp.hpp
/// Warp analyzer: reconstructs lockstep SIMT execution from the event
/// streams of a warp's lanes as they run. Events are aligned by (site,
/// occurrence-within-site): lanes that report the n-th event at a static
/// site are the lanes that were active when the warp issued that
/// instruction. The analyzer (WarpRecorder, the probe the lanes write to)
/// derives divergence statistics and each warp's coalesced memory stream;
/// CacheReplay runs those streams through the per-SM L1s and the shared
/// L2.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <type_traits>
#include <vector>

#include "simt/cache.hpp"
#include "simt/device.hpp"
#include "simt/metrics.hpp"
#include "simt/probe.hpp"

namespace bd::simt {

/// The varint code of the cache replay's two large buffers, the warp
/// streams (WarpReplay) and the L1-miss buckets (MissBucket). A value is
/// written 7 bits a byte, lowest first, and every byte but its last has
/// bit 7 set, so a value below 128 takes one byte. A signed step is zigzag
/// coded first (0, -1, 1, -2, ... become 0, 1, 2, 3, ...), so a short step
/// down is as short as one up. Steps wrap modulo 2^64, so every 64-bit
/// value round-trips.
namespace varint {

/// The most bytes one value takes.
inline constexpr std::size_t kMaxBytes = 10;

/// Writes `value` at `out`, which has room for kMaxBytes, and returns the
/// end of what it wrote.
inline std::uint8_t* put(std::uint8_t* out, std::uint64_t value) {
  while (value >= 0x80) {
    *out++ = static_cast<std::uint8_t>(value | 0x80);
    value >>= 7;
  }
  *out++ = static_cast<std::uint8_t>(value);
  return out;
}

/// Reads the value at `in` and moves `in` past it.
inline std::uint64_t get(const std::uint8_t*& in) {
  std::uint64_t value = *in++;
  if (value < 0x80) return value;
  value &= 0x7f;
  for (int shift = 7;; shift += 7) {
    const std::uint64_t byte = *in++;
    value |= (byte & 0x7f) << shift;
    if (byte < 0x80) return value;
  }
}

/// The step from `from` to `to` as a zigzag code.
inline std::uint64_t zigzag(std::uint64_t to, std::uint64_t from) {
  const std::uint64_t step = to - from;
  return (step << 1) ^ (0 - (step >> 63));
}

/// The value `code` steps to from `from`.
inline std::uint64_t unzigzag(std::uint64_t from, std::uint64_t code) {
  return from + ((code >> 1) ^ (0 - (code & 1)));
}

/// A byte buffer that codes write through a raw pointer: room(n) returns
/// where the next n bytes go, and commit() takes the end of what was
/// written there. Growth doubles the capacity and leaves new bytes
/// unwritten, so pages a buffer never writes stay untouched.
class Buffer {
 public:
  std::uint8_t* room(std::size_t n) {
    if (capacity_ - size_ < n) grow(n);
    return data_.get() + size_;
  }
  void commit(const std::uint8_t* end) {
    size_ = static_cast<std::size_t>(end - data_.get());
  }
  const std::uint8_t* data() const { return data_.get(); }
  std::size_t size() const { return size_; }
  /// Empties the buffer; keeps its capacity.
  void clear() { size_ = 0; }
  /// Empties the buffer and frees its memory.
  void release() { *this = {}; }

 private:
  void grow(std::size_t n);

  std::unique_ptr<std::uint8_t[]> data_;
  std::size_t size_ = 0;
  std::size_t capacity_ = 0;
};

}  // namespace varint

/// The coalesced memory stream of one warp, ready for cache replay: every
/// warp-level load in program order, each as its distinct lines, ascending.
/// Lines count in L1 lines (address >> log2(l1_line_bytes)), and each load
/// is coded as
///   - its line count, as a varint;
///   - if that is not zero, the zigzag varint of its first line minus the
///     first line of the last load before it that had one (0 for the
///     warp's first);
///   - for each further line, its gap from the line before it, minus one,
///     as a varint: lines are distinct and ascending, so the gap is at
///     least one.
/// StreamWriter writes it and StreamReader reads it back. On Table II and
/// quickstart runs it took about a sixth of the bytes of raw 8-byte lines
/// with 4-byte load offsets.
struct WarpReplay {
  std::vector<std::uint8_t> bytes;
  std::size_t loads = 0;
};

/// Writes WarpReplay streams, load by load. The buffer grows to the
/// largest stream it has written and is reused by the next.
class StreamWriter {
 public:
  explicit StreamWriter(std::uint32_t line_bytes);

  /// Appends the next load: `count` distinct line addresses, ascending,
  /// each a multiple of the line size.
  void add(const std::uint64_t* lines, std::size_t count);

  /// Hands over the stream written so far, in a buffer of its size, and
  /// starts the next one.
  WarpReplay take();

 private:
  varint::Buffer bytes_;
  std::size_t loads_ = 0;
  std::uint64_t first_ = 0;  // the last load's first line, in lines
  int shift_;
};

/// Reads a WarpReplay back, load by load, from the bytes it views.
class StreamReader {
 public:
  StreamReader(const WarpReplay& replay, std::uint32_t line_bytes);

  std::size_t loads_left() const { return left_; }

  /// Reads the next load, calling `fn(line)` for each of its line
  /// addresses, ascending. Needs loads_left() > 0.
  template <typename Fn>
  void next(Fn&& fn) {
    const std::uint8_t* in = pos_;
    const int shift = shift_;
    std::uint64_t count = varint::get(in);
    if (count != 0) {
      std::uint64_t line = varint::unzigzag(first_, varint::get(in));
      first_ = line;
      fn(line << shift);
      while (--count != 0) {
        line += varint::get(in) + 1;
        fn(line << shift);
      }
    }
    pos_ = in;
    --left_;
  }

 private:
  const std::uint8_t* pos_;
  std::size_t left_;
  std::uint64_t first_ = 0;
  int shift_;
};

/// One SM's L1 misses for one L2 set partition, in replay order: per miss,
/// the zigzag varint of its value (the caller's line number) minus the
/// bucket's previous miss, 0 before the first.
class MissBucket {
 public:
  void push(std::uint64_t line) {
    bytes_.commit(varint::put(bytes_.room(varint::kMaxBytes),
                              varint::zigzag(line, last_)));
    last_ = line;
  }

  /// Calls `fn(line)` for every miss, in push order, then frees the
  /// bucket.
  template <typename Fn>
  void drain(Fn&& fn) {
    const std::uint8_t* in = bytes_.data();
    const std::uint8_t* const end = in + bytes_.size();
    std::uint64_t line = 0;
    while (in != end) {
      line = varint::unzigzag(line, varint::get(in));
      fn(line);
    }
    bytes_.release();
    last_ = 0;
  }

 private:
  varint::Buffer bytes_;
  std::uint64_t last_ = 0;
};

/// The warp analyzer, as the probe a warp's lanes write to. The lanes run
/// one after another in lane order: begin_lane() before each lane, then
/// finish() after the warp's last lane. Each event kind counts its
/// occurrences per site and lane on its own, so the order in which a lane
/// mixes kinds changes no grouping. A load instruction is numbered when
/// its first lane reaches it, so instructions are numbered in (lane,
/// position) order. Tables, line storage and the stream writer's buffer are
/// reused across warps, so a warm recorder allocates only the streams it
/// returns.
///
/// A load slot stands for one group of its site's shape. The first report
/// at a site in a warp sets the shape: a load_groups() call of more than
/// one row at a stride of whole L1 lines makes each slot one group of
/// that many rows at that stride, and every other report makes each slot
/// one row. A group slot holds the lines of the group's first row only:
/// row r of every lane sits r strides past its first row, so the rows'
/// line sets are the first row's shifted by r strides, and finish() emits
/// them so. A lane that reports at a group site in another shape first
/// splits the site's group slots into row slots in place, which is exact:
/// every earlier report there was whole groups of the one shape, so each
/// lane's occurrence count at the site was a whole number of groups.
class WarpRecorder final : public LaneProbe {
 public:
  explicit WarpRecorder(const DeviceSpec& spec);

  /// Start the warp's next lane; a warp holds at most warp_size lanes.
  void begin_lane();

  void count_flops(std::uint64_t n) override { sums_.flops += n; }
  /// A group of one row: the site's slots are row slots from this load on.
  void load(std::uint32_t site, const void* addr,
            std::uint32_t bytes) override {
    load_groups(site, &addr, 1, 1, 0, bytes);
  }
  void loop_trip(std::uint32_t site, std::uint64_t trips) override;
  void branch(std::uint32_t site, bool taken) override;
  /// Resolves `site` once for the whole call. Row r of group g is the
  /// lane's (n + g * rows + r)-th load at `site`, where n counts its loads
  /// there before the call, exactly as with `count * rows` load() calls.
  void load_groups(std::uint32_t site, const void* const* firsts,
                   std::size_t count, std::uint32_t rows,
                   std::int64_t row_stride, std::uint32_t bytes) override;

  /// End the warp: accumulates its divergence/coalescing statistics into
  /// `out`, returns its transaction stream for cache replay and resets the
  /// recorder for the next warp. The warp must hold at least one lane.
  WarpReplay finish(KernelMetrics& out);

 private:
  /// The shape of a loop or branch site's slots: there is none.
  struct NoShape {};

  /// Occurrence counting for one event kind: the n-th event a lane reports
  /// at a site belongs to warp-level instruction (site, n). Holds one
  /// `Slot` per instruction, per site in occurrence order, and the site of
  /// every instruction in the order lanes first reached them, and one
  /// `Shape` per site. A kernel has few sites, so lookup is a scan behind a
  /// last-hit check.
  template <typename Slot, typename Shape = NoShape>
  class SiteTable {
   public:
    /// Forget every instruction (start of a warp); keeps capacity.
    void clear() {
      for (std::size_t i = 0; i < used_; ++i) sites_[i].slots.clear();
      used_ = 0;
      last_ = 0;
      order_.clear();
    }

    /// Restart occurrence counting (start of a lane).
    void next_lane() {
      for (std::size_t i = 0; i < used_; ++i) sites_[i].next = 0;
    }

    /// The index of `id`'s site; a site new to the warp starts with no
    /// instruction and a `Shape{}`.
    std::uint32_t find(std::uint32_t id) {
      if (last_ < used_ && sites_[last_].id == id) return last_;
      for (std::uint32_t i = 0; i < used_; ++i) {
        if (sites_[i].id == id) return last_ = i;
      }
      if (used_ == sites_.size()) sites_.emplace_back();
      Site& s = sites_[used_];
      s.id = id;
      s.next = 0;
      s.shape = Shape{};
      return last_ = used_++;
    }

    Shape& shape(std::uint32_t index) { return sites_[index].shape; }

    /// The slots of the lane's next `count` events at site `index`, in
    /// occurrence order. Instructions no earlier lane reached start as
    /// `Slot{}`.
    Slot* next(std::uint32_t index, std::size_t count) {
      Site& s = sites_[index];
      const std::size_t occ = s.next;
      for (std::size_t k = s.slots.size(); k < occ + count; ++k) {
        s.slots.emplace_back();
        order_.push_back(index);
      }
      s.next += static_cast<std::uint32_t>(count);
      return s.slots.data() + occ;
    }

    /// Split each instruction at site `index` into `parts` consecutive
    /// ones, in place: in the site's occurrence order, in the order lanes
    /// first reached them and in the lane's occurrence count.
    /// `fill(slot, out)` writes the `parts` slots that replace `slot`.
    template <typename Fill>
    void split(std::uint32_t index, std::uint32_t parts, Fill&& fill) {
      Site& s = sites_[index];
      const std::size_t n = s.slots.size();
      s.slots.resize(n * parts);
      for (std::size_t k = n; k-- > 0;) {
        const Slot slot = s.slots[k];
        fill(slot, s.slots.data() + k * parts);
      }
      // Each of the site's n entries in order_ becomes `parts` entries.
      const std::size_t old = order_.size();
      order_.resize(old + n * (parts - 1));
      std::size_t out = order_.size();
      for (std::size_t i = old; i-- > 0;) {
        const std::uint32_t entry = order_[i];
        for (std::uint32_t c = entry == index ? parts : 1; c > 0; --c) {
          order_[--out] = entry;
        }
      }
      s.next *= parts;
    }

    /// Visit every slot, with its site's shape unless the table has none,
    /// in the order lanes first reached it. A site's instructions were
    /// created in occurrence order, so one cursor per site walks them; the
    /// cursors are the occurrence counters, so call this only after the
    /// warp's last lane.
    template <typename Fn>
    void for_each(Fn&& fn) {
      next_lane();
      for (std::uint32_t index : order_) {
        Site& s = sites_[index];
        if constexpr (std::is_same_v<Shape, NoShape>) {
          fn(s.slots[s.next++]);
        } else {
          fn(s.slots[s.next++], s.shape);
        }
      }
    }

   private:
    struct Site {
      std::uint32_t id = 0;
      std::uint32_t next = 0;
      [[no_unique_address]] Shape shape;
      std::vector<Slot> slots;
    };

    std::vector<Site> sites_;  // [0, used_) are live; the rest keep capacity
    std::uint32_t used_ = 0;
    std::uint32_t last_ = 0;
    std::vector<std::uint32_t> order_;  // site index of each instruction
  };

  /// The distinct lines of one warp-level load, ascending, in a slice of
  /// the line arena, and a copy of the largest: a line equal to it is
  /// already in the set and a larger one appends, so only a smaller line
  /// searches the slice. An empty set has no slice yet; a full slice moves
  /// to one twice its size at the arena end.
  struct LineSet {
    std::uint64_t last = 0;  // largest line; 0 and matching none while empty
    std::uint32_t begin = 0;
    std::uint16_t size = 0;
    std::uint16_t capacity = 0;
  };
  static_assert(sizeof(LineSet) == 16);

  /// What a load site's slots stand for: groups of `rows` loads, row r
  /// `r * stride` bytes (a whole number of L1 lines) past row 0, or single
  /// rows (`rows` 1, `stride` 0). `rows` is 0 until the site's first load
  /// in the warp.
  struct LoadShape {
    std::uint32_t rows = 0;
    std::uint64_t stride = 0;
    bool operator==(const LoadShape&) const = default;
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
  void insert_below_last(LineSet& set, std::uint64_t line);
  void grow(LineSet& set);
  /// Makes the slots of load site `index` row slots from now on: sets the
  /// shape of a new site, and splits the slots of a group site.
  void rows_from_now(std::uint32_t index);
  /// A copy of `set` with `offset` added to every line, in a new arena
  /// slice of the same capacity.
  LineSet shifted(const LineSet& set, std::uint64_t offset);
  /// Appends the lines of `set` plus `offset` to the stream as one load.
  void emit(const LineSet& set, std::uint64_t offset);

  std::uint32_t warp_size_;
  std::uint32_t line_bytes_;
  std::uint32_t lanes_ = 0;
  SiteTable<LineSet, LoadShape> loads_;  // instruction -> its distinct lines
  SiteTable<std::uint64_t> loops_;       // instruction -> longest trip count
  SiteTable<std::uint8_t> branches_;     // instruction -> bit 0 taken seen,
                                         //   bit 1 not-taken seen
  std::vector<std::uint64_t> arena_;     // the slices of every LineSet
  std::vector<std::uint64_t> shifted_;   // a derived row's lines, for emit()
  StreamWriter stream_;
  Sums sums_;
};

/// Number of set partitions the cache replay splits the shared L2 into: up
/// to 32, and at most its line sets. The replay models the L2 at L1-line
/// granularity — lines of l1_line_bytes, sets / sectors sets (at least
/// one), where sectors = l1_line_bytes / l2_line_bytes — so a 32-set L2
/// with four sectors per line has 8 line sets and gets 8 partitions.
/// Throws CheckError for an L2 that cannot be modeled per line (see
/// CacheReplay).
std::uint32_t l2_partitions(const DeviceSpec& spec);

/// The cache replay of one launch (pass 2 of simt::launch), in two stages.
/// Stage 2a replays each SM's chunks of co-resident warps through the SM's
/// private L1 and buckets its L1 misses by L2 set partition in replay
/// order, each bucket a MissBucket of L1 line numbers. Stage 2b replays each partition's buckets in SM order through
/// that partition's share of the L2, one access per L1 miss. An L1 miss
/// fetches its line's sectors in order, and the sets that hold them see
/// the same line sequence, so each access counts `sectors` L2 hits or
/// misses (and a miss moves `sectors` L2 lines from DRAM). When the L2 has
/// fewer sets than a line has sectors, each set takes `sectors / sets`
/// sectors of every line in a row; its ways must divide by that number, or
/// the constructor throws CheckError. L2 sets are independent and LRU
/// compares only within a set, so the result equals one serial
/// sector-level L2 fed every SM's misses SM-major — bit for bit, whichever
/// threads run the stages.
class CacheReplay {
 public:
  CacheReplay(const DeviceSpec& spec, std::uint32_t num_sms);

  /// Stage 2a: replays SM `sm`'s next chunk through its L1. The chunk's
  /// warps interleave round-robin, one load instruction at a time — the
  /// concurrency model of an SM's warp schedulers: scattered per-warp
  /// streams thrash the shared L1, streams touching common lines share it.
  /// An SM's chunks must come in block order and one at a time; chunks of
  /// different SMs may replay concurrently.
  void replay_chunk(std::uint32_t sm, std::span<const WarpReplay> warps);

  /// Stage 2b, on the thread pool, once after every chunk: returns the
  /// cache counters of the whole replay (every SM's L1 hits and misses, the
  /// L2's, DRAM bytes). Each partition frees its buckets once replayed.
  KernelMetrics replay_l2();

 private:
  struct Sm {
    SetAssocCache l1;
    CacheStats l1_stats;
    std::vector<MissBucket> misses;  // one per partition
  };

  std::uint32_t warp_size_;
  std::uint32_t l1_line_bytes_;
  int l1_shift_;                 ///< log2(l1_line_bytes_)
  std::uint32_t l2_line_bytes_;  ///< one L2 sector
  std::uint32_t sectors_;        ///< L2 sectors per L1 line
  std::uint32_t line_bytes_;     ///< the modeled L2 line: an L1 line
  std::uint32_t ways_;
  std::uint32_t partitions_;
  std::uint32_t part_sets_;      ///< line sets per partition
  int line_shift_;
  std::uint64_t set_mask_;
  int part_shift_;
  std::vector<Sm> sms_;
};

/// Both stages back to back on the thread pool: `sm_warps[s]` holds SM s's
/// warps in block order, and consecutive groups of `warps_per_chunk` warps
/// are co-resident. The SMs replay their L1s in parallel.
KernelMetrics replay_caches(const DeviceSpec& spec,
                            std::span<const std::vector<WarpReplay>> sm_warps,
                            std::size_t warps_per_chunk);

}  // namespace bd::simt
