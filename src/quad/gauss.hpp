#pragma once
/// \file gauss.hpp
/// Gauss–Legendre quadrature (nodes via Newton iteration on Legendre
/// polynomials). Used as an ablation alternative to Newton–Cotes for the
/// inner integral, and in the analytic reference computations where high
/// order pays off.

#include <functional>
#include <vector>

namespace bd::quad {

/// Nodes and weights on [-1, 1].
struct GaussRule {
  std::vector<double> nodes;
  std::vector<double> weights;
};

/// The n-point Gauss–Legendre rule (n >= 1). Accurate to machine
/// precision for n up to several hundred. Each rule is computed once, on
/// its first request; later calls, from any thread, return the same rule.
const GaussRule& gauss_legendre(int n);

/// Integrate f over [a, b] with the n-point Gauss–Legendre rule.
double gauss_integrate(const std::function<double(double)>& f, double a,
                       double b, int n);

/// Adaptive-panel Gauss–Legendre to absolute tolerance: the interval is
/// bisected until two consecutive orders agree. Intended for computing
/// analytic reference values (slow, very accurate).
double gauss_integrate_to_tolerance(const std::function<double(double)>& f,
                                    double a, double b, double abs_tol,
                                    int max_depth = 48);

}  // namespace bd::quad
