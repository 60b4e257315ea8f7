#pragma once
/// \file metrics.hpp
/// Regression quality metrics used to evaluate the access-pattern
/// predictors (MSE, MAE, R²) — reported by the forecast-quality benches.

#include <span>

namespace bd::ml {

/// Mean absolute error.
double mae(std::span<const double> predicted, std::span<const double> truth);

/// Coefficient of determination R² (1 = perfect; can be negative).
double r2_score(std::span<const double> predicted,
                std::span<const double> truth);

}  // namespace bd::ml
