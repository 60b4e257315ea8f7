/// Tests for the dense linear algebra kernel of the regression models.

#include <gtest/gtest.h>

#include <cmath>

#include "ml/linalg.hpp"
#include "util/check.hpp"

namespace bd::ml {
namespace {

TEST(Matrix, BasicAccessAndFill) {
  Matrix m(2, 3, 1.5);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_DOUBLE_EQ(m(1, 2), 1.5);
  m(0, 1) = -2.0;
  EXPECT_DOUBLE_EQ(m(0, 1), -2.0);
  EXPECT_DOUBLE_EQ(m.row(0)[1], -2.0);
}

TEST(Matrix, GramIsAtA) {
  Matrix a(3, 2);
  a(0, 0) = 1; a(0, 1) = 2;
  a(1, 0) = 3; a(1, 1) = 4;
  a(2, 0) = 5; a(2, 1) = 6;
  const Matrix g = Matrix::gram(a);
  EXPECT_DOUBLE_EQ(g(0, 0), 35);
  EXPECT_DOUBLE_EQ(g(0, 1), 44);
  EXPECT_DOUBLE_EQ(g(1, 0), 44);
  EXPECT_DOUBLE_EQ(g(1, 1), 56);
}

TEST(Matrix, AtB) {
  Matrix a(2, 2);
  a(0, 0) = 1; a(0, 1) = 0; a(1, 0) = 0; a(1, 1) = 2;
  Matrix b(2, 1);
  b(0, 0) = 3; b(1, 0) = 4;
  const Matrix c = Matrix::at_b(a, b);
  EXPECT_DOUBLE_EQ(c(0, 0), 3);
  EXPECT_DOUBLE_EQ(c(1, 0), 8);
}

TEST(Cholesky, FactorAndSolveSpd) {
  // A = [[4,2],[2,3]] — SPD.
  Matrix a(2, 2);
  a(0, 0) = 4; a(0, 1) = 2; a(1, 0) = 2; a(1, 1) = 3;
  Matrix l = a;
  ASSERT_TRUE(cholesky_factor(l));
  const std::vector<double> x = cholesky_solve(l, std::vector<double>{8, 7});
  // Solve [[4,2],[2,3]]x = [8,7] -> x = [1.25, 1.5].
  EXPECT_NEAR(x[0], 1.25, 1e-12);
  EXPECT_NEAR(x[1], 1.5, 1e-12);
}

TEST(Cholesky, RejectsIndefinite) {
  Matrix a(2, 2);
  a(0, 0) = 1; a(0, 1) = 2; a(1, 0) = 2; a(1, 1) = 1;  // eigenvalues 3, -1
  EXPECT_FALSE(cholesky_factor(a));
}

TEST(SpdSolve, MultipleRhs) {
  Matrix a(2, 2);
  a(0, 0) = 2; a(0, 1) = 0; a(1, 0) = 0; a(1, 1) = 4;
  Matrix b(2, 2);
  b(0, 0) = 2; b(0, 1) = 4; b(1, 0) = 4; b(1, 1) = 8;
  const Matrix x = spd_solve(a, b);
  EXPECT_NEAR(x(0, 0), 1.0, 1e-12);
  EXPECT_NEAR(x(0, 1), 2.0, 1e-12);
  EXPECT_NEAR(x(1, 0), 1.0, 1e-12);
  EXPECT_NEAR(x(1, 1), 2.0, 1e-12);
}

TEST(SpdSolve, RidgeRegularizesSingularMatrix) {
  Matrix a(2, 2);  // rank-1
  a(0, 0) = 1; a(0, 1) = 1; a(1, 0) = 1; a(1, 1) = 1;
  Matrix b(2, 1);
  b(0, 0) = 1; b(1, 0) = 1;
  EXPECT_THROW(spd_solve(a, b, 0.0), bd::CheckError);
  const Matrix x = spd_solve(a, b, 1e-6);
  EXPECT_NEAR(x(0, 0), 0.5, 1e-4);
}

TEST(SquaredDistance, Basic) {
  const std::vector<double> a{1.0, 2.0};
  const std::vector<double> b{4.0, 6.0};
  EXPECT_DOUBLE_EQ(squared_distance(a, b), 25.0);
  EXPECT_THROW(squared_distance(a, std::vector<double>{1.0}), bd::CheckError);
}

TEST(Cholesky, LargerRandomSpdRoundTrip) {
  // Build SPD as MᵀM + I and verify solve(A, A·x) == x.
  const std::size_t n = 8;
  Matrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      m(i, j) = std::sin(static_cast<double>(i * 7 + j * 3 + 1));
    }
  }
  Matrix a = Matrix::gram(m);
  for (std::size_t i = 0; i < n; ++i) a(i, i) += 1.0;
  Matrix x_true(n, 1);
  for (std::size_t i = 0; i < n; ++i) x_true(i, 0) = static_cast<double>(i) - 3.0;
  Matrix b(n, 1);  // A·x_true
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) b(i, 0) += a(i, j) * x_true(j, 0);
  }
  const Matrix x = spd_solve(a, b);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(x(i, 0), x_true(i, 0), 1e-9);
  }
}

}  // namespace
}  // namespace bd::ml
