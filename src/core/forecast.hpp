#pragma once
/// \file forecast.hpp
/// COMPUTE-PARTITION (paper §III-C2): transform a (predicted) access
/// pattern into an rp-integral partition. Counts are rounded up to powers
/// of two so partitions of similar patterns share breakpoints — unions of
/// dyadic partitions nest, which keeps the per-cluster merged partition
/// (MERGE-LISTS over all members) close to the finest member instead of
/// blowing up.

#include <cstddef>
#include <cstdint>
#include <span>

namespace bd::core {

/// Partition transform selector (§III-C2).
enum class PartitionTransform {
  kUniform,   ///< method 1: n_j equal (dyadic) pieces per subregion
  kAdaptive,  ///< method 2: refine the previous step's partition
};

/// Round to the *nearest* power of two in log space (0 -> 1). Nearest —
/// not ceiling — so kNN-averaged counts between two dyadic levels do not
/// systematically escalate to the higher level (which would ratchet the
/// partitions finer every step).
std::uint32_t round_pow2(double count);

/// Provisioning headroom applied to predicted counts before rounding —
/// biases toward the next dyadic level so marginal predictions do not fall
/// through to the (divergent) adaptive fallback every step.
inline constexpr double kPartitionHeadroom = 1.3;

// Each transform is a *_bound / *_into pair: the bound is a breakpoint-
// count upper bound for one point, so a PartitionSet can lay out all rows
// in a single serial pass; the *_into function then fills each row slot
// (in parallel, one point per row) and returns the length it wrote, which
// never exceeds the bound.

/// Breakpoint-count bound of the uniform transform.
std::size_t pattern_to_partition_bound(std::span<const double> pattern,
                                       double headroom = kPartitionHeadroom);

/// Uniform transform (method 1): subregion j gets
/// round_pow2(headroom · pattern[j]) equal intervals. Writes breakpoints
/// over [0, r_max] into a caller-provided slot (>= the bound) and returns
/// how many it wrote.
std::size_t pattern_to_partition_into(std::span<const double> pattern,
                                      double sub_width, double r_max,
                                      std::span<double> out,
                                      double headroom = kPartitionHeadroom);

/// Breakpoint-count bound of the adaptive transform.
std::size_t pattern_to_partition_adaptive_bound(
    std::span<const double> pattern, std::span<const double> previous,
    double sub_width, double r_max, double headroom = kPartitionHeadroom);

/// Adaptive transform (method 2): subdivide the previous partition so each
/// subregion reaches at least the predicted count (paper: split each
/// previous interval in S_j into n_j/d_j pieces). `previous` is clipped to
/// [0, r_max] first: breakpoints outside it are dropped and 0 and r_max
/// become the end points, and d_j counts the clipped intervals whose
/// midpoint lies in S_j. With no previous partition (fewer than two
/// breakpoints) this is the uniform transform; a previous partition that
/// misses [0, r_max] entirely yields the single interval [0, r_max].
/// Writes into a
/// caller-provided slot (>= the bound) and returns how many breakpoints it
/// wrote.
std::size_t pattern_to_partition_adaptive_into(
    std::span<const double> pattern, std::span<const double> previous,
    double sub_width, double r_max, std::span<double> out,
    double headroom = kPartitionHeadroom);

}  // namespace bd::core
