#include "quad/partition.hpp"

namespace bd::quad {

void merge_partitions_into(std::span<const double> a,
                           std::span<const double> b,
                           std::vector<double>& out, double eps) {
  out.clear();
  std::size_t ia = 0, ib = 0;
  while (ia < a.size() || ib < b.size()) {
    // Stable like std::merge: on a tie, take from `a` first.
    double x;
    if (ib >= b.size() || (ia < a.size() && !(b[ib] < a[ia]))) {
      x = a[ia++];
    } else {
      x = b[ib++];
    }
    if (out.empty() || x - out.back() > eps) out.push_back(x);
  }
}

bool is_valid_partition(std::span<const double> breakpoints) {
  if (breakpoints.size() < 2) return false;
  for (std::size_t i = 0; i + 1 < breakpoints.size(); ++i) {
    if (!(breakpoints[i] < breakpoints[i + 1])) return false;
  }
  return true;
}

}  // namespace bd::quad
