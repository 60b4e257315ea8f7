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
  /// \param line_bytes line (transaction) size; must be a power of two.
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

  std::uint32_t num_sets() const { return num_sets_; }
  std::uint32_t ways() const { return ways_; }

 private:
  struct Way {
    std::uint64_t tag = ~0ull;
    std::uint64_t lru = 0;  // larger = more recently used
    bool valid = false;
  };

  std::uint32_t line_shift_;
  std::uint32_t num_sets_;
  std::uint32_t ways_;
  std::uint64_t tick_ = 0;
  std::vector<Way> ways_storage_;  // num_sets_ * ways_
};

}  // namespace bd::simt
