#include "quad/partition_set.hpp"

#include <algorithm>

#include "util/check.hpp"
#include "util/serialize.hpp"

namespace bd::quad {

template <typename T>
void PartitionSet::ensure(std::vector<T>& v, std::size_t n) {
  if (n > v.capacity()) {
    ++grow_events_;
    // 2x headroom: a drifting workload must double its demand before the
    // next growth, so grow events die out instead of trailing the drift.
    v.reserve(2 * n);
  } else {
    ++reuse_events_;
  }
  v.resize(n);
}

void PartitionSet::ensure_breaks(std::size_t n) { ensure(breaks_, n); }

void PartitionSet::reset(std::size_t entries) {
  ensure(entry_row_, entries);
  row_start_.clear();
  row_cap_.clear();
  row_len_.clear();
  used_ = 0;
}

void PartitionSet::layout_rows(std::span<const std::size_t> capacities) {
  BD_CHECK(capacities.size() == entry_row_.size());
  const std::size_t rows = capacities.size();
  ensure(row_start_, rows);
  ensure(row_cap_, rows);
  ensure(row_len_, rows);
  std::size_t offset = used_;
  for (std::size_t r = 0; r < rows; ++r) {
    row_start_[r] = offset;
    row_cap_[r] = capacities[r];
    row_len_[r] = 0;
    offset += capacities[r];
    entry_row_[r] = static_cast<std::uint32_t>(r);
  }
  used_ = offset;
  ensure_breaks(used_);
}

void PartitionSet::reserve_breaks(std::size_t cap) {
  if (cap <= used_) return;
  ensure_breaks(cap);
  // ensure() sized breaks_ to `cap`; the layout still only uses `used_`
  // slots and add_row keeps appending from there.
}

void PartitionSet::set_row_length(std::size_t row, std::size_t len) {
  BD_DCHECK(len <= row_cap_[row]);
  row_len_[row] = len;
}

std::size_t PartitionSet::add_row(std::span<const double> breaks) {
  const std::size_t row = row_start_.size();
  const std::size_t start = used_;
  used_ += breaks.size();
  ensure_breaks(used_);
  std::copy(breaks.begin(), breaks.end(), breaks_.begin() + start);
  row_start_.push_back(start);
  row_cap_.push_back(breaks.size());
  row_len_.push_back(breaks.size());
  return row;
}

void PartitionSet::bind_all(std::size_t row) {
  std::fill(entry_row_.begin(), entry_row_.end(),
            static_cast<std::uint32_t>(row));
}

void PartitionSet::copy_from(const PartitionSet& other) {
  ensure(entry_row_, other.entry_row_.size());
  std::copy(other.entry_row_.begin(), other.entry_row_.end(),
            entry_row_.begin());
  ensure(row_start_, other.row_start_.size());
  ensure(row_cap_, other.row_cap_.size());
  ensure(row_len_, other.row_len_.size());
  std::copy(other.row_start_.begin(), other.row_start_.end(),
            row_start_.begin());
  std::copy(other.row_cap_.begin(), other.row_cap_.end(), row_cap_.begin());
  std::copy(other.row_len_.begin(), other.row_len_.end(), row_len_.begin());
  used_ = other.used_;
  ensure_breaks(other.used_);
  std::copy(other.breaks_.begin(),
            other.breaks_.begin() + static_cast<std::ptrdiff_t>(other.used_),
            breaks_.begin());
}

void PartitionSet::clear() {
  entry_row_.clear();
  row_start_.clear();
  row_cap_.clear();
  row_len_.clear();
  used_ = 0;
}

std::uint64_t PartitionSet::take_grow_events() {
  const std::uint64_t n = grow_events_;
  grow_events_ = 0;
  return n;
}

std::uint64_t PartitionSet::take_reuse_events() {
  const std::uint64_t n = reuse_events_;
  reuse_events_ = 0;
  return n;
}

void write_partition_set_nested(util::BinaryWriter& out,
                                const PartitionSet& set) {
  out.write_u64(set.entries());
  for (std::size_t e = 0; e < set.entries(); ++e) {
    out.write_f64_span(set.at(e));
  }
}

void read_partition_set_nested(util::BinaryReader& in, PartitionSet& set) {
  const std::uint64_t entries = in.read_u64();
  // Every entry carries at least its u64 length prefix.
  BD_CHECK_MSG(entries <= in.remaining() / sizeof(std::uint64_t),
               "truncated payload: " << entries << " partition entries");
  set.reset(entries);
  std::vector<double> row;
  for (std::uint64_t e = 0; e < entries; ++e) {
    row = in.read_f64_vector();
    const std::size_t r = set.add_row(row);
    set.bind(e, r);
  }
}

}  // namespace bd::quad
