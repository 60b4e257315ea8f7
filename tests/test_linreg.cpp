/// Tests for ridge regression (the paper's alternative predictor).

#include <gtest/gtest.h>

#include <cmath>

#include "ml/linreg.hpp"
#include "util/check.hpp"
#include "test_helpers.hpp"
#include "util/rng.hpp"

namespace bd::ml {
namespace {

using bd::testing::predict;

TEST(Ridge, RecoversLinearFunction) {
  util::Rng rng(7);
  Dataset d(2, 1);
  for (int i = 0; i < 200; ++i) {
    const double x0 = rng.uniform(-2, 2);
    const double x1 = rng.uniform(-2, 2);
    d.add(std::vector<double>{x0, x1},
          std::vector<double>{3.0 * x0 - 2.0 * x1 + 1.0});
  }
  RidgeRegressor model;
  model.fit(d);
  for (int q = 0; q < 20; ++q) {
    const double x0 = rng.uniform(-2, 2);
    const double x1 = rng.uniform(-2, 2);
    EXPECT_NEAR(predict(model, std::vector<double>{x0, x1})[0],
                3.0 * x0 - 2.0 * x1 + 1.0, 1e-6);
  }
}

TEST(Ridge, QuadraticExpansionFitsQuadratic) {
  util::Rng rng(11);
  Dataset d(1, 1);
  for (int i = 0; i < 100; ++i) {
    const double x = rng.uniform(-1, 1);
    d.add(std::vector<double>{x}, std::vector<double>{x * x - 0.5 * x});
  }
  RidgeRegressor model;
  model.fit(d);
  for (double x : {-0.7, -0.2, 0.0, 0.4, 0.9}) {
    EXPECT_NEAR(predict(model, std::vector<double>{x})[0], x * x - 0.5 * x,
                1e-5);
  }
}

TEST(Ridge, MultiOutput) {
  util::Rng rng(17);
  Dataset d(1, 3);
  for (int i = 0; i < 50; ++i) {
    const double x = rng.uniform(-1, 1);
    d.add(std::vector<double>{x}, std::vector<double>{x, 2 * x, -x + 1});
  }
  RidgeRegressor model;
  model.fit(d);
  const auto p = predict(model, std::vector<double>{0.5});
  EXPECT_NEAR(p[0], 0.5, 1e-6);
  EXPECT_NEAR(p[1], 1.0, 1e-6);
  EXPECT_NEAR(p[2], 0.5, 1e-6);
}

TEST(Ridge, RegularizationShrinksIllConditionedFit) {
  // Duplicate (collinear) features: ridge keeps the solution finite.
  Dataset d(2, 1);
  for (int i = 0; i < 20; ++i) {
    const double x = i * 0.1;
    d.add(std::vector<double>{x, x}, std::vector<double>{2 * x});
  }
  RidgeRegressor model;
  EXPECT_NO_THROW(model.fit(d));
  EXPECT_NEAR(predict(model, std::vector<double>{1.0, 1.0})[0], 2.0, 1e-2);
}

TEST(Ridge, PredictBeforeFitThrows) {
  RidgeRegressor model;
  EXPECT_THROW(predict(model, std::vector<double>{1.0}), bd::CheckError);
}

TEST(Ridge, FitEmptyThrows) {
  RidgeRegressor model;
  EXPECT_THROW(model.fit(Dataset(1, 1)), bd::CheckError);
}

}  // namespace
}  // namespace bd::ml
