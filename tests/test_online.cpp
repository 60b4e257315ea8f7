/// Tests for the online (sliding-window) predictor.

#include <gtest/gtest.h>

#include <cmath>

#include "ml/online.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace bd::ml {
namespace {

/// One step of training data: y = slope·x sampled on a 1-D grid.
void feed_step(OnlinePredictor& predictor, double slope, std::size_t n = 64) {
  std::vector<double> features, targets;
  for (std::size_t i = 0; i < n; ++i) {
    const double x = static_cast<double>(i) / static_cast<double>(n);
    features.push_back(x);
    targets.push_back(slope * x);
  }
  predictor.observe_step(features, targets, n);
}

TEST(Online, NotReadyBeforeFirstObservation) {
  OnlinePredictor predictor(PredictorKind::kKnn, 1, 1);
  EXPECT_FALSE(predictor.ready());
  std::vector<double> out(1);
  EXPECT_THROW(predictor.predict_into(std::vector<double>{0.5}, out),
               bd::CheckError);
}

TEST(Online, LearnsAfterOneStep) {
  OnlinePredictor predictor(PredictorKind::kKnn, 1, 1);
  feed_step(predictor, 2.0);
  ASSERT_TRUE(predictor.ready());
  std::vector<double> out(1);
  predictor.predict_into(std::vector<double>{0.5}, out);
  EXPECT_NEAR(out[0], 1.0, 0.1);
}

TEST(Online, WindowOneForgetsOldSteps) {
  OnlinePredictor predictor(PredictorKind::kKnn, 1, 1, /*window=*/1);
  feed_step(predictor, 2.0);
  feed_step(predictor, -4.0);  // replaces the old data entirely
  std::vector<double> out(1);
  predictor.predict_into(std::vector<double>{0.5}, out);
  EXPECT_NEAR(out[0], -2.0, 0.2);
}

TEST(Online, LargerWindowBlendsSteps) {
  OnlinePredictor predictor(PredictorKind::kKnn, 1, 1, /*window=*/2);
  feed_step(predictor, 0.0);
  feed_step(predictor, 4.0);
  std::vector<double> out(1);
  // Query between samples so the exact-match shortcut does not trigger:
  // neighbors come from both steps, blending slopes 0 and 4.
  predictor.predict_into(std::vector<double>{0.51}, out);
  EXPECT_GT(out[0], 0.3);
  EXPECT_LT(out[0], 1.8);
}

TEST(Online, RidgeBackendWorks) {
  OnlinePredictor predictor(PredictorKind::kRidge, 1, 1);
  feed_step(predictor, 3.0);
  std::vector<double> out(1);
  predictor.predict_into(std::vector<double>{0.25}, out);
  EXPECT_NEAR(out[0], 0.75, 1e-3);
}

TEST(Online, TracksTrainingTime) {
  OnlinePredictor predictor(PredictorKind::kKnn, 1, 1);
  feed_step(predictor, 1.0, 512);
  EXPECT_GE(predictor.last_train_seconds(), 0.0);
}

TEST(Online, MultiOutputTargets) {
  OnlinePredictor predictor(PredictorKind::kKnn, 1, 3);
  std::vector<double> features, targets;
  for (int i = 0; i < 32; ++i) {
    const double x = i / 32.0;
    features.push_back(x);
    targets.push_back(x);
    targets.push_back(2 * x);
    targets.push_back(1.0 - x);
  }
  predictor.observe_step(features, targets, 32);
  std::vector<double> out(3);
  predictor.predict_into(std::vector<double>{0.5}, out);
  EXPECT_NEAR(out[0], 0.5, 0.1);
  EXPECT_NEAR(out[1], 1.0, 0.2);
  EXPECT_NEAR(out[2], 0.5, 0.1);
}

TEST(Online, ValidatesObservationSizes) {
  OnlinePredictor predictor(PredictorKind::kKnn, 2, 1);
  EXPECT_THROW(
      predictor.observe_step(std::vector<double>{1.0}, std::vector<double>{1.0},
                             1),
      bd::CheckError);
}

TEST(Online, ConstructorValidates) {
  EXPECT_THROW(OnlinePredictor(PredictorKind::kKnn, 0, 1), bd::CheckError);
  EXPECT_THROW(OnlinePredictor(PredictorKind::kKnn, 1, 0), bd::CheckError);
  EXPECT_THROW(OnlinePredictor(PredictorKind::kKnn, 1, 1, 0), bd::CheckError);
}

}  // namespace
}  // namespace bd::ml
