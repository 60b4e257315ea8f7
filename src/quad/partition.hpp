#pragma once
/// \file partition.hpp
/// Partition algebra for the outer dimension of the rp-integral.
///
/// A partition is a sorted list of breakpoints r_0 < r_1 < ... < r_n over
/// an integration region. The paper represents each grid point's data
/// access pattern by the number of partition intervals n_j that fall inside
/// each radial subregion S_j = [j·w, (j+1)·w] (w = cΔt), and reconstructs
/// partitions from (predicted) patterns with the transforms of §III-C2
/// (core/forecast).

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

namespace bd::quad {

/// The paper's MERGE-LISTS: writes the sorted-unique merge of `a` and `b`
/// into `out` (cleared first, capacity reused). Values closer than `eps`
/// are considered duplicates. `out` must not alias the inputs.
void merge_partitions_into(std::span<const double> a,
                           std::span<const double> b,
                           std::vector<double>& out, double eps = 1e-12);

/// The subregion an interval [a, b] belongs to: the one holding its
/// midpoint, where subregion j covers [j·sub_width, (j+1)·sub_width).
/// Midpoints outside [0, num_subregions·sub_width) are attributed to the
/// first or last subregion.
inline std::size_t subregion_of(double a, double b, double sub_width,
                                std::size_t num_subregions) {
  const double mid = 0.5 * (a + b);
  const auto j = static_cast<std::int64_t>(std::floor(mid / sub_width));
  return static_cast<std::size_t>(std::clamp<std::int64_t>(
      j, 0, static_cast<std::int64_t>(num_subregions) - 1));
}

/// True if breakpoints are strictly increasing.
bool is_valid_partition(std::span<const double> breakpoints);

}  // namespace bd::quad
