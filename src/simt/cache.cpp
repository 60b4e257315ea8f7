#include "simt/cache.hpp"

#include <bit>

#include "util/check.hpp"

namespace bd::simt {

SetAssocCache::SetAssocCache(std::uint32_t capacity_bytes,
                             std::uint32_t line_bytes, std::uint32_t ways)
    : ways_(ways) {
  BD_CHECK_MSG(line_bytes > 0 && std::has_single_bit(line_bytes),
               "line size must be a power of two");
  BD_CHECK_MSG(ways > 0, "associativity must be positive");
  line_shift_ = static_cast<std::uint32_t>(std::countr_zero(line_bytes));
  num_sets_ = sets_for(capacity_bytes, line_bytes, ways);
  ways_storage_.assign(static_cast<std::size_t>(num_sets_) * ways_, Way{});
}

std::uint32_t SetAssocCache::sets_for(std::uint32_t capacity_bytes,
                                      std::uint32_t line_bytes,
                                      std::uint32_t ways) {
  BD_CHECK_MSG(line_bytes > 0 && ways > 0, "empty cache geometry");
  const std::uint32_t lines = capacity_bytes / line_bytes;
  BD_CHECK_MSG(lines >= ways, "capacity too small for associativity");
  // Round sets down to a power of two for cheap indexing.
  return std::bit_floor(lines / ways);
}

bool SetAssocCache::access(std::uint64_t addr) {
  const std::uint64_t line = addr >> line_shift_;
  const std::uint64_t set = line & (num_sets_ - 1);
  Way* set_begin = &ways_storage_[static_cast<std::size_t>(set) * ways_];
  ++tick_;

  Way* victim = set_begin;
  for (std::uint32_t w = 0; w < ways_; ++w) {
    Way& way = set_begin[w];
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

}  // namespace bd::simt
