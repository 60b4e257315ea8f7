#pragma once
/// \file access_pattern.hpp
/// The data-access-pattern representation (paper §III-A): for each grid
/// point, the list [n_0, n_1, ..., n_{Ns-1}] of partition counts per radial
/// subregion S_j. Counts are fractional: the kernels report 0.5 for an
/// interval whose Simpson error was ≤ τ_local/16 (a Richardson coarsening
/// hint — two such intervals could be merged), which keeps the online
/// learner self-correcting instead of ratcheting partitions finer.

#include <span>
#include <vector>

namespace bd::core {

/// Per-subregion partition counts for one grid point.
using AccessPattern = std::vector<double>;

/// Flat row-major storage of one pattern per grid point.
class PatternField {
 public:
  PatternField() = default;
  PatternField(std::size_t points, std::size_t subregions)
      : points_(points),
        subregions_(subregions),
        data_(points * subregions, 0.0) {}

  std::size_t points() const { return points_; }
  std::size_t subregions() const { return subregions_; }
  bool empty() const { return data_.empty(); }

  std::span<double> at(std::size_t point) {
    return std::span<double>(data_.data() + point * subregions_, subregions_);
  }
  std::span<const double> at(std::size_t point) const {
    return std::span<const double>(data_.data() + point * subregions_,
                                   subregions_);
  }

  std::span<const double> flat() const { return data_; }
  std::span<double> flat() { return data_; }

 private:
  std::size_t points_ = 0;
  std::size_t subregions_ = 0;
  std::vector<double> data_;
};

}  // namespace bd::core
