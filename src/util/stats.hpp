#pragma once
/// \file stats.hpp
/// Small statistics helpers: moments, RMS error, least-squares line fit
/// (used e.g. to verify the MSE ∝ 1/N slope of Fig. 3).

#include <cstddef>
#include <span>

namespace bd::util {

/// Arithmetic mean; returns 0 for an empty span.
double mean(std::span<const double> xs);

/// sqrt(mean(x_i^2)).
double rms(std::span<const double> xs);

/// Mean squared difference between two equally-sized spans.
double mean_squared_error(std::span<const double> a, std::span<const double> b);

/// Result of a least-squares straight-line fit y = slope*x + intercept.
struct LineFit {
  double slope = 0.0;
  double intercept = 0.0;
  double r_squared = 0.0;
};

/// Ordinary least-squares fit. Requires xs.size() == ys.size() >= 2.
LineFit fit_line(std::span<const double> xs, std::span<const double> ys);

/// Pearson correlation coefficient.
double correlation(std::span<const double> a, std::span<const double> b);

}  // namespace bd::util
