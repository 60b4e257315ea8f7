#include "ml/linalg.hpp"

#include <cmath>

#include "util/check.hpp"

namespace bd::ml {

Matrix Matrix::gram(const Matrix& a) {
  Matrix g(a.cols(), a.cols());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    const auto row = a.row(i);
    for (std::size_t p = 0; p < a.cols(); ++p) {
      for (std::size_t q = p; q < a.cols(); ++q) {
        g(p, q) += row[p] * row[q];
      }
    }
  }
  for (std::size_t p = 0; p < a.cols(); ++p) {
    for (std::size_t q = 0; q < p; ++q) g(p, q) = g(q, p);
  }
  return g;
}

Matrix Matrix::at_b(const Matrix& a, const Matrix& b) {
  BD_CHECK(a.rows() == b.rows());
  Matrix out(a.cols(), b.cols());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    const auto ra = a.row(i);
    const auto rb = b.row(i);
    for (std::size_t p = 0; p < a.cols(); ++p) {
      const double ap = ra[p];
      if (ap == 0.0) continue;
      for (std::size_t q = 0; q < b.cols(); ++q) {
        out(p, q) += ap * rb[q];
      }
    }
  }
  return out;
}

bool cholesky_factor(Matrix& a) {
  BD_CHECK(a.rows() == a.cols());
  const std::size_t n = a.rows();
  for (std::size_t j = 0; j < n; ++j) {
    double diag = a(j, j);
    for (std::size_t k = 0; k < j; ++k) diag -= a(j, k) * a(j, k);
    if (diag <= 0.0 || !std::isfinite(diag)) return false;
    const double ljj = std::sqrt(diag);
    a(j, j) = ljj;
    for (std::size_t i = j + 1; i < n; ++i) {
      double v = a(i, j);
      for (std::size_t k = 0; k < j; ++k) v -= a(i, k) * a(j, k);
      a(i, j) = v / ljj;
    }
  }
  return true;
}

std::vector<double> cholesky_solve(const Matrix& l,
                                   std::span<const double> b) {
  const std::size_t n = l.rows();
  BD_CHECK(b.size() == n);
  std::vector<double> y(n);
  // Forward substitution L y = b.
  for (std::size_t i = 0; i < n; ++i) {
    double v = b[i];
    for (std::size_t k = 0; k < i; ++k) v -= l(i, k) * y[k];
    y[i] = v / l(i, i);
  }
  // Backward substitution Lᵀ x = y.
  std::vector<double> x(n);
  for (std::size_t ii = n; ii-- > 0;) {
    double v = y[ii];
    for (std::size_t k = ii + 1; k < n; ++k) v -= l(k, ii) * x[k];
    x[ii] = v / l(ii, ii);
  }
  return x;
}

Matrix spd_solve(Matrix a, const Matrix& b, double ridge) {
  BD_CHECK(a.rows() == a.cols() && a.rows() == b.rows());
  for (std::size_t i = 0; i < a.rows(); ++i) a(i, i) += ridge;
  BD_CHECK_MSG(cholesky_factor(a), "matrix is not positive definite");
  Matrix x(b.rows(), b.cols());
  std::vector<double> rhs(b.rows());
  for (std::size_t c = 0; c < b.cols(); ++c) {
    for (std::size_t r = 0; r < b.rows(); ++r) rhs[r] = b(r, c);
    const std::vector<double> col = cholesky_solve(a, rhs);
    for (std::size_t r = 0; r < b.rows(); ++r) x(r, c) = col[r];
  }
  return x;
}

double squared_distance(std::span<const double> a,
                        std::span<const double> b) {
  BD_CHECK(a.size() == b.size());
  double acc = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double d = a[i] - b[i];
    acc += d * d;
  }
  return acc;
}

}  // namespace bd::ml
