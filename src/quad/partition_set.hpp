#pragma once
/// \file partition_set.hpp
/// CSR-style storage for a family of partitions — the step-persistent
/// replacement for `vector<vector<double>>` in the rp-solver hot path.
///
/// A PartitionSet separates *entries* (what callers index by: grid points
/// or clusters) from *rows* (distinct breakpoint lists stored back to back
/// in one flat buffer). Several entries may alias one row — the MERGE-LISTS
/// result a whole warp shares, or the single coarse bootstrap partition
/// every point starts from — without duplicating storage.
///
/// Allocation discipline: every call that can allocate (`reset`,
/// `layout_rows`, `add_row`, `copy_from`) is serial; `row_slot` /
/// `set_row_length` / all readers are allocation-free and safe to use from
/// a parallel fill over disjoint rows. Buffers are never shrunk, so a set
/// reused across time steps stops allocating once it reaches its
/// high-water mark — tracked by the grow/reuse event counters that feed
/// the `rp.scratch_grows` / `rp.scratch_reuses` telemetry.

#include <cstdint>
#include <span>
#include <vector>

namespace bd::util {
class BinaryWriter;
class BinaryReader;
}  // namespace bd::util

namespace bd::quad {

class PartitionSet {
 public:
  /// Serial: start a new layout with `entries` entries and no rows.
  /// Capacity is kept from previous use.
  void reset(std::size_t entries);

  /// Serial: plan `capacities.size()` rows with the given per-row slot
  /// capacities and bind entry e -> row e (callers re-bind afterwards if
  /// the identity mapping is wrong). All allocation happens here; the rows
  /// can then be filled in parallel through `row_slot`/`set_row_length`.
  /// Requires entries() == capacities.size().
  void layout_rows(std::span<const std::size_t> capacities);

  /// Parallel-safe: the writable slot of row `row` (capacity-sized).
  std::span<double> row_slot(std::size_t row) {
    return {breaks_.data() + row_start_[row], row_cap_[row]};
  }

  /// Parallel-safe: record how much of row `row`'s slot is actually used.
  void set_row_length(std::size_t row, std::size_t len);

  /// Serial: append one row holding a copy of `breaks`; returns its id.
  /// Usable after `layout_rows` (mixed layouts) or on a fresh `reset`.
  std::size_t add_row(std::span<const double> breaks);

  /// Bind entry -> row.
  void bind(std::size_t entry, std::size_t row) {
    entry_row_[entry] = static_cast<std::uint32_t>(row);
  }
  /// Bind every entry to `row`.
  void bind_all(std::size_t row);

  std::span<const double> row(std::size_t r) const {
    return {breaks_.data() + row_start_[r], row_len_[r]};
  }
  /// The partition of entry `e` (through its row binding).
  std::span<const double> at(std::size_t e) const {
    return row(entry_row_[e]);
  }

  std::size_t entries() const { return entry_row_.size(); }
  std::size_t rows() const { return row_start_.size(); }
  /// Total break slots used by the current layout (Σ row capacities).
  std::size_t used() const { return used_; }

  /// Serial: pre-size the flat break storage for `cap` total slots before
  /// an add_row loop, so an incrementally built layout pays at most one
  /// growth instead of a doubling cascade. Callers pass an upper bound
  /// (e.g. the Σ of the input rows a MERGE-LISTS fold consumes).
  void reserve_breaks(std::size_t cap);

  /// Serial: become a copy of `other` (rows, lengths, bindings), reusing
  /// capacity.
  void copy_from(const PartitionSet& other);

  /// Serial: drop entries and rows, keep capacity.
  void clear();

  /// Drain the allocation instrumentation: number of internal buffer
  /// growths / growth-free reuses since the last take.
  std::uint64_t take_grow_events();
  std::uint64_t take_reuse_events();

 private:
  void ensure_breaks(std::size_t n);
  template <typename T>
  void ensure(std::vector<T>& v, std::size_t n);

  std::vector<std::size_t> row_start_;  ///< slot start per row
  std::vector<std::size_t> row_cap_;    ///< slot capacity per row
  std::vector<std::size_t> row_len_;    ///< used length per row
  std::vector<double> breaks_;          ///< flat slot storage
  std::size_t used_ = 0;                ///< breaks_ high-water of this layout
  std::vector<std::uint32_t> entry_row_;
  std::uint64_t grow_events_ = 0;
  std::uint64_t reuse_events_ = 0;
};

/// Serialize the per-entry partitions as a u64 entry count followed by
/// one length-prefixed f64 span per entry (row aliasing is not preserved,
/// values are). Keeps PartitionSet-backed solver state byte-compatible
/// with the previous vector<vector<double>> checkpoints.
void write_partition_set_nested(util::BinaryWriter& out,
                                const PartitionSet& set);
void read_partition_set_nested(util::BinaryReader& in, PartitionSet& set);

}  // namespace bd::quad
