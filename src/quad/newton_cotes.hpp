#pragma once
/// \file newton_cotes.hpp
/// Closed Newton–Cotes formulas. The inner (angular) integral of the
/// rp-integral is computed with these (paper §II-A); the number of sample
/// points is the constant α that fixes the per-partition memory reference
/// count α·n_i.

#include <cstdint>
#include <span>
#include <vector>

namespace bd::quad {

/// Normalized closed Newton–Cotes weights for `points` sample points on
/// [0, 1]: ∫₀¹ f ≈ Σ w_i f(i/(points-1)). Supported: 2 ≤ points ≤ 9
/// (trapezoid .. 8th order). Throws bd::CheckError otherwise.
std::span<const double> newton_cotes_weights(int points);

}  // namespace bd::quad
