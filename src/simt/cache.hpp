#pragma once
/// \file cache.hpp
/// Set-associative LRU cache model used for both the per-SM L1 and the
/// shared L2. Addresses are cache-line granular (the coalescer splits raw
/// accesses into line touches before calling in here).

#include <cstdint>
#include <vector>

namespace bd::simt {

/// Hit/miss counters of one cache level, summed from access() results.
struct CacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;

  std::uint64_t accesses() const { return hits + misses; }
  double hit_rate() const {
    return accesses() ? static_cast<double>(hits) / accesses() : 0.0;
  }
  CacheStats& operator+=(const CacheStats& other) {
    hits += other.hits;
    misses += other.misses;
    return *this;
  }
};

/// Classic set-associative cache with true-LRU replacement.
/// Capacity, line size and associativity are fixed at construction.
class SetAssocCache {
 public:
  /// \param capacity_bytes total size; must be a multiple of line*ways.
  /// \param line_bytes line (transaction) size; a power of two of at
  ///        least 2 bytes.
  /// \param ways associativity; clamped so there is at least one set.
  SetAssocCache(std::uint32_t capacity_bytes, std::uint32_t line_bytes,
                std::uint32_t ways);

  /// Number of sets of a cache of this geometry: capacity / (line * ways)
  /// rounded down to a power of two, the count the constructor builds.
  static std::uint32_t sets_for(std::uint32_t capacity_bytes,
                                std::uint32_t line_bytes, std::uint32_t ways);

  /// Probe and fill: returns true on hit; on miss the line is installed
  /// with LRU eviction. Callers count hits and misses from the result.
  bool access(std::uint64_t addr);

 private:
  std::uint32_t line_shift_;
  std::uint32_t num_sets_;
  std::uint32_t ways_;
  /// num_sets_ * ways_ line numbers, each set's most recently used first,
  /// so the LRU line is last and an access reads the set only up to its
  /// line. An empty way holds ~0, which no `addr >> line_shift_`
  /// produces, and empty ways stay at the back of their set.
  std::vector<std::uint64_t> tags_;
};

}  // namespace bd::simt
