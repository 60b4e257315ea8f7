#include "simt/cache.hpp"

#include <bit>

#include "util/check.hpp"

namespace bd::simt {

namespace {
constexpr std::uint64_t kEmpty = ~std::uint64_t{0};
}  // namespace

SetAssocCache::SetAssocCache(std::uint32_t capacity_bytes,
                             std::uint32_t line_bytes, std::uint32_t ways)
    : ways_(ways) {
  BD_CHECK_MSG(line_bytes > 1 && std::has_single_bit(line_bytes),
               "line size must be a power of two of at least 2 bytes");
  BD_CHECK_MSG(ways > 0, "associativity must be positive");
  line_shift_ = static_cast<std::uint32_t>(std::countr_zero(line_bytes));
  num_sets_ = sets_for(capacity_bytes, line_bytes, ways);
  tags_.assign(static_cast<std::size_t>(num_sets_) * ways_, kEmpty);
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
  std::uint64_t* set =
      &tags_[static_cast<std::size_t>(line & (num_sets_ - 1)) * ways_];
  // One pass puts the line first and moves each tag it passes back by
  // one: a hit stops at the line's old slot, a miss moves the whole set
  // and drops the last tag (the LRU line or an empty way).
  std::uint64_t carry = line;
  for (std::uint32_t w = 0; w < ways_; ++w) {
    const std::uint64_t tag = set[w];
    set[w] = carry;
    if (tag == line) return true;
    carry = tag;
  }
  return false;
}

}  // namespace bd::simt
