#include "quad/gauss.hpp"

#include <cmath>
#include <map>
#include <mutex>
#include <utility>

#include "util/check.hpp"

namespace bd::quad {

namespace {
/// Legendre P_n(x) and derivative via the three-term recurrence.
std::pair<double, double> legendre(int n, double x) {
  double p0 = 1.0;
  double p1 = x;
  for (int k = 2; k <= n; ++k) {
    const double pk = ((2.0 * k - 1.0) * x * p1 - (k - 1.0) * p0) / k;
    p0 = p1;
    p1 = pk;
  }
  const double dp = n * (x * p1 - p0) / (x * x - 1.0);
  return {p1, dp};
}

GaussRule compute_gauss_legendre(int n) {
  GaussRule rule;
  rule.nodes.resize(static_cast<std::size_t>(n));
  rule.weights.resize(static_cast<std::size_t>(n));
  if (n == 1) {
    rule.nodes[0] = 0.0;
    rule.weights[0] = 2.0;
    return rule;
  }
  for (int i = 0; i < (n + 1) / 2; ++i) {
    // Chebyshev-based initial guess, then Newton.
    double x = std::cos(M_PI * (i + 0.75) / (n + 0.5));
    for (int iter = 0; iter < 100; ++iter) {
      const auto [p, dp] = legendre(n, x);
      const double dx = -p / dp;
      x += dx;
      if (std::abs(dx) < 1e-15) break;
    }
    const auto [p, dp] = legendre(n, x);
    (void)p;
    const double w = 2.0 / ((1.0 - x * x) * dp * dp);
    rule.nodes[static_cast<std::size_t>(i)] = -x;
    rule.nodes[static_cast<std::size_t>(n - 1 - i)] = x;
    rule.weights[static_cast<std::size_t>(i)] = w;
    rule.weights[static_cast<std::size_t>(n - 1 - i)] = w;
  }
  if (n % 2 == 1) rule.nodes[static_cast<std::size_t>(n / 2)] = 0.0;
  return rule;
}
}  // namespace

const GaussRule& gauss_legendre(int n) {
  BD_CHECK_MSG(n >= 1, "Gauss rule needs n >= 1");
  static std::mutex mutex;
  static std::map<int, GaussRule> rules;  // map nodes never move
  const std::lock_guard<std::mutex> lock(mutex);
  auto [it, fresh] = rules.try_emplace(n);
  if (fresh) it->second = compute_gauss_legendre(n);
  return it->second;
}

double gauss_integrate(const std::function<double(double)>& f, double a,
                       double b, int n) {
  const GaussRule& rule = gauss_legendre(n);
  const double mid = 0.5 * (a + b);
  const double half = 0.5 * (b - a);
  double acc = 0.0;
  for (int i = 0; i < n; ++i) {
    acc += rule.weights[static_cast<std::size_t>(i)] *
           f(mid + half * rule.nodes[static_cast<std::size_t>(i)]);
  }
  return acc * half;
}

namespace {
double gauss_adaptive_impl(const std::function<double(double)>& f, double a,
                           double b, double abs_tol, int depth,
                           int max_depth) {
  const double coarse = gauss_integrate(f, a, b, 15);
  const double fine = gauss_integrate(f, a, b, 31);
  if (std::abs(fine - coarse) <= abs_tol || depth >= max_depth) return fine;
  const double mid = 0.5 * (a + b);
  return gauss_adaptive_impl(f, a, mid, abs_tol * 0.5, depth + 1, max_depth) +
         gauss_adaptive_impl(f, mid, b, abs_tol * 0.5, depth + 1, max_depth);
}
}  // namespace

double gauss_integrate_to_tolerance(const std::function<double(double)>& f,
                                    double a, double b, double abs_tol,
                                    int max_depth) {
  BD_CHECK(abs_tol > 0.0);
  if (a == b) return 0.0;
  return gauss_adaptive_impl(f, a, b, abs_tol, 0, max_depth);
}

}  // namespace bd::quad
