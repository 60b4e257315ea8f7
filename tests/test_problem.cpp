/// Tests for the RpProblem / SolveResult plumbing.

#include <gtest/gtest.h>

#include "core/predictive.hpp"
#include "core/problem.hpp"
#include "simt/device.hpp"
#include "test_helpers.hpp"
#include "util/check.hpp"

namespace bd::core {
namespace {

TEST(PredictiveOptionsValidation, RejectsBadFieldsByName) {
  const auto expect_rejected = [](auto mutate, const std::string& field) {
    PredictiveOptions options;
    mutate(options);
    try {
      PredictiveSolver solver(simt::tesla_k40(), options);
      FAIL() << "expected rejection of bad " << field;
    } catch (const bd::CheckError& e) {
      EXPECT_NE(std::string(e.what()).find(field), std::string::npos)
          << "message should name '" << field << "': " << e.what();
    }
  };
  expect_rejected([](PredictiveOptions& o) { o.training_window = 0; },
                  "training_window");
  expect_rejected([](PredictiveOptions& o) { o.tile_w = 0; }, "tile_w");
  expect_rejected([](PredictiveOptions& o) { o.tile_h = 0; }, "tile_h");
}

TEST(PredictiveOptionsValidation, DefaultsConstruct) {
  EXPECT_NO_THROW(PredictiveSolver(simt::tesla_k40(), PredictiveOptions{}));
}

TEST(RpProblem, GeometryHelpers) {
  const bd::testing::ProblemFixture fixture(16, 1e-6, 10);
  const RpProblem& p = fixture.problem;
  EXPECT_EQ(p.num_points(), 256u);
  EXPECT_DOUBLE_EQ(p.r_max(), 10.0);
  EXPECT_EQ(&p.grid(), &fixture.history->spec());
}

TEST(RpProblem, PointCoordsRowMajor) {
  const bd::testing::ProblemFixture fixture(16, 1e-6);
  const RpProblem& p = fixture.problem;
  const beam::GridSpec& spec = p.grid();
  double x = 0.0, y = 0.0;
  p.point_coords(0, x, y);
  EXPECT_DOUBLE_EQ(x, spec.x0);
  EXPECT_DOUBLE_EQ(y, spec.y0);
  p.point_coords(17, x, y);  // row 1, column 1
  EXPECT_DOUBLE_EQ(x, spec.x_at(1));
  EXPECT_DOUBLE_EQ(y, spec.y_at(1));
  p.point_coords(p.num_points() - 1, x, y);
  EXPECT_DOUBLE_EQ(x, spec.x_max());
  EXPECT_DOUBLE_EQ(y, spec.y_at(spec.ny - 1));
}

TEST(SolveResult, OverallSumsHostAndGpu) {
  SolveResult r;
  r.gpu_seconds = 1.0;
  r.clustering_seconds = 0.25;
  r.train_seconds = 0.5;
  r.forecast_seconds = 0.125;
  EXPECT_DOUBLE_EQ(r.overall_seconds(), 1.875);
}

}  // namespace
}  // namespace bd::core
