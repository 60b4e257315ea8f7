#include "core/forecast.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

#include "quad/partition.hpp"
#include "util/check.hpp"

namespace bd::core {

std::uint32_t round_pow2(double count) {
  if (!(count > 1.0)) return 1;
  const double level = std::round(std::log2(count));
  return static_cast<std::uint32_t>(std::exp2(level));
}

namespace {

/// `previous` clipped to [0, r_max] — the sequence
/// [0.0] ++ {x in previous : 0 < x < r_max} ++ [r_max] — as a view, without
/// materializing it. Empty when `previous` does not overlap (0, r_max).
struct ClippedPrev {
  std::span<const double> prev;
  std::size_t first = 0;     ///< index of the first interior element
  std::size_t interior = 0;  ///< number of interior elements
  double r_max = 0.0;
  bool empty = false;        ///< clip had no overlap

  std::size_t size() const { return interior + 2; }
  double at(std::size_t k) const {
    if (k == 0) return 0.0;
    if (k <= interior) return prev[first + k - 1];
    return r_max;
  }
};

ClippedPrev clip_view(std::span<const double> prev, double r_max) {
  ClippedPrev v;
  v.prev = prev;
  v.r_max = r_max;
  v.empty = prev.empty() || prev.front() >= r_max || prev.back() <= 0.0;
  if (v.empty) return v;
  std::size_t i = 0;
  while (i < prev.size() && !(prev[i] > 0.0)) ++i;
  v.first = i;
  while (i < prev.size() && prev[i] < r_max) ++i;
  v.interior = i - v.first;
  return v;
}

/// Walk the clipped previous partition, deriving each subregion's
/// previous-interval count d_j from its run length: interval midpoints
/// increase, so the quad::subregion_of index is non-decreasing and all of
/// a subregion's intervals form one contiguous run.
/// emit(lo, hi, pieces) is called once per previous interval, in order.
template <typename Emit>
void refine_walk(std::span<const double> pattern, const ClippedPrev& c,
                 double sub_width, double headroom, Emit&& emit) {
  const std::size_t nint = c.size() - 1;
  const auto subregion = [&](std::size_t i) {
    return quad::subregion_of(c.at(i), c.at(i + 1), sub_width,
                              pattern.size());
  };
  std::size_t i = 0;
  while (i < nint) {
    const std::size_t j = subregion(i);
    std::size_t run_end = i + 1;
    while (run_end < nint && subregion(run_end) == j) ++run_end;
    const std::uint32_t target =
        std::max<std::uint32_t>(1, round_pow2(headroom * pattern[j]));
    const auto have = static_cast<std::uint32_t>(run_end - i);
    const std::uint32_t pieces =
        std::max<std::uint32_t>(1, (target + have - 1) / have);
    for (; i < run_end; ++i) emit(c.at(i), c.at(i + 1), pieces);
  }
}

}  // namespace

std::size_t pattern_to_partition_bound(std::span<const double> pattern,
                                       double headroom) {
  std::size_t bound = 2;
  for (double n : pattern) {
    bound += std::max<std::uint32_t>(1, round_pow2(headroom * n));
  }
  return bound;
}

std::size_t pattern_to_partition_into(std::span<const double> pattern,
                                      double sub_width, double r_max,
                                      std::span<double> out,
                                      double headroom) {
  BD_CHECK(sub_width > 0.0 && r_max > 0.0 && headroom > 0.0);
  std::size_t len = 0;
  out[len++] = 0.0;
  for (std::size_t j = 0; j < pattern.size(); ++j) {
    const double lo = static_cast<double>(j) * sub_width;
    if (lo >= r_max) break;
    // (j+1)·w is exactly r_max = w·κ in the last subregion; lo + w can
    // fall an ulp short of it and leave a sliver interval up to r_max.
    const double hi =
        std::min(static_cast<double>(j + 1) * sub_width, r_max);
    const std::uint32_t n =
        std::max<std::uint32_t>(1, round_pow2(headroom * pattern[j]));
    for (std::uint32_t i = 1; i <= n; ++i) {
      const double x = lo + (hi - lo) * static_cast<double>(i) / n;
      if (x > out[len - 1]) out[len++] = x;
    }
    if (hi >= r_max) break;
  }
  if (out[len - 1] < r_max) out[len++] = r_max;
  return len;
}

std::size_t pattern_to_partition_adaptive_bound(
    std::span<const double> pattern, std::span<const double> previous,
    double sub_width, double r_max, double headroom) {
  if (previous.size() < 2) return pattern_to_partition_bound(pattern, headroom);
  BD_CHECK(sub_width > 0.0 && r_max > 0.0 && headroom > 0.0);
  const ClippedPrev c = clip_view(previous, r_max);
  std::size_t bound = 2;
  if (!c.empty) {
    refine_walk(pattern, c, sub_width, headroom,
                [&](double, double, std::uint32_t pieces) { bound += pieces; });
  }
  return bound;
}

std::size_t pattern_to_partition_adaptive_into(
    std::span<const double> pattern, std::span<const double> previous,
    double sub_width, double r_max, std::span<double> out, double headroom) {
  if (previous.size() < 2) {
    return pattern_to_partition_into(pattern, sub_width, r_max, out,
                                     headroom);
  }
  BD_CHECK(sub_width > 0.0 && r_max > 0.0 && headroom > 0.0);
  std::size_t len = 0;
  out[len++] = 0.0;
  const ClippedPrev c = clip_view(previous, r_max);
  if (!c.empty) {
    refine_walk(pattern, c, sub_width, headroom,
                [&](double lo, double hi, std::uint32_t pieces) {
                  // The last piece ends at hi itself: lo + (hi − lo)·s/
                  // pieces can miss it by an ulp, leaving a sliver
                  // interval before r_max.
                  for (std::uint32_t s = 1; s <= pieces; ++s) {
                    const double x =
                        s == pieces
                            ? hi
                            : lo + (hi - lo) * static_cast<double>(s) / pieces;
                    if (x > out[len - 1]) out[len++] = x;
                  }
                });
  }
  if (out[len - 1] < r_max) out[len++] = r_max;
  return len;
}

}  // namespace bd::core
