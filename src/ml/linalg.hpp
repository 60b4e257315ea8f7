#pragma once
/// \file linalg.hpp
/// Minimal dense linear algebra for the regression models: row-major
/// matrix, matrix products, Cholesky factorization/solve. Feature
/// dimensions in this library are tiny (grid point coordinates), so no
/// blocking or vectorization heroics are needed.

#include <cstddef>
#include <span>
#include <vector>

namespace bd::ml {

/// Row-major dense matrix of doubles.
class Matrix {
 public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols, double fill = 0.0)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }

  double& operator()(std::size_t r, std::size_t c) {
    return data_[r * cols_ + c];
  }
  double operator()(std::size_t r, std::size_t c) const {
    return data_[r * cols_ + c];
  }

  std::span<double> row(std::size_t r) {
    return std::span<double>(data_.data() + r * cols_, cols_);
  }
  std::span<const double> row(std::size_t r) const {
    return std::span<const double>(data_.data() + r * cols_, cols_);
  }

  std::span<const double> data() const { return data_; }
  std::span<double> data() { return data_; }

  /// A^T * A (cols x cols).
  static Matrix gram(const Matrix& a);

  /// A^T * B where a.rows() == b.rows().
  static Matrix at_b(const Matrix& a, const Matrix& b);

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

/// In-place Cholesky factorization A = L·Lᵀ of a symmetric positive-definite
/// matrix. Returns false if the matrix is not (numerically) SPD.
bool cholesky_factor(Matrix& a);

/// Solve L·Lᵀ x = b for one right-hand side, where `l` holds the Cholesky
/// factor in its lower triangle.
std::vector<double> cholesky_solve(const Matrix& l,
                                   std::span<const double> b);

/// Solve (A + ridge·I) X = B for symmetric positive-definite A with
/// multiple right-hand sides (columns of B). Throws on failure.
Matrix spd_solve(Matrix a, const Matrix& b, double ridge = 0.0);

/// Squared Euclidean distance between two equally-sized vectors.
double squared_distance(std::span<const double> a, std::span<const double> b);

}  // namespace bd::ml
