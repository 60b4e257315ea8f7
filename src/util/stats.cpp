#include "util/stats.hpp"

#include <cmath>

#include "util/check.hpp"

namespace bd::util {

double mean(std::span<const double> xs) {
  if (xs.empty()) return 0.0;
  double sum = 0.0;
  for (double x : xs) sum += x;
  return sum / static_cast<double>(xs.size());
}

double rms(std::span<const double> xs) {
  if (xs.empty()) return 0.0;
  double acc = 0.0;
  for (double x : xs) acc += x * x;
  return std::sqrt(acc / static_cast<double>(xs.size()));
}

double mean_squared_error(std::span<const double> a,
                          std::span<const double> b) {
  BD_CHECK(a.size() == b.size());
  if (a.empty()) return 0.0;
  double acc = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double d = a[i] - b[i];
    acc += d * d;
  }
  return acc / static_cast<double>(a.size());
}

LineFit fit_line(std::span<const double> xs, std::span<const double> ys) {
  BD_CHECK(xs.size() == ys.size());
  BD_CHECK_MSG(xs.size() >= 2, "line fit needs at least two points");
  const double mx = mean(xs);
  const double my = mean(ys);
  double sxx = 0.0, sxy = 0.0, syy = 0.0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const double dx = xs[i] - mx;
    const double dy = ys[i] - my;
    sxx += dx * dx;
    sxy += dx * dy;
    syy += dy * dy;
  }
  BD_CHECK_MSG(sxx > 0.0, "degenerate x values in line fit");
  LineFit fit;
  fit.slope = sxy / sxx;
  fit.intercept = my - fit.slope * mx;
  fit.r_squared = (syy > 0.0) ? (sxy * sxy) / (sxx * syy) : 1.0;
  return fit;
}

double correlation(std::span<const double> a, std::span<const double> b) {
  BD_CHECK(a.size() == b.size());
  if (a.size() < 2) return 0.0;
  const double ma = mean(a);
  const double mb = mean(b);
  double saa = 0.0, sbb = 0.0, sab = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double da = a[i] - ma;
    const double db = b[i] - mb;
    saa += da * da;
    sbb += db * db;
    sab += da * db;
  }
  if (saa <= 0.0 || sbb <= 0.0) return 0.0;
  return sab / std::sqrt(saa * sbb);
}

}  // namespace bd::util
