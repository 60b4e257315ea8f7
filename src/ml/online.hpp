#pragma once
/// \file online.hpp
/// Online predictor: a supervised model retrained each simulation step
/// from a sliding window of recently observed (grid point → access pattern)
/// examples. This realizes the paper's ONLINE-LEARNING procedure: the
/// predictor g_k is learned from the patterns observed at step k (plus a
/// short window of history) without unbounded memory growth.

#include <span>
#include <vector>

#include "ml/dataset.hpp"
#include "ml/knn.hpp"
#include "ml/linreg.hpp"

namespace bd::util {
class BinaryWriter;
class BinaryReader;
}  // namespace bd::util

namespace bd::ml {

/// Which regressor backs the predictor.
enum class PredictorKind { kKnn, kRidge };

/// Sliding-window online trainer around a kNN or ridge regressor.
class OnlinePredictor {
 public:
  /// \param window number of most recent steps whose observations are kept
  ///        as training data (the paper uses the latest observations plus
  ///        the previous predictor; window=1 reproduces that memory bound).
  /// \param knn_k neighbours per kNN query (unused by ridge).
  OnlinePredictor(PredictorKind kind, std::size_t feature_dim,
                  std::size_t target_dim, std::size_t window = 1,
                  std::size_t knn_k = kDefaultKnnK);

  /// Ingest one step's observations and refit the model.
  /// `features`/`targets` are row-major with the constructor's dims.
  void observe_step(std::span<const double> features,
                    std::span<const double> targets, std::size_t count);

  /// Forecast the access pattern for one grid point. Requires ready().
  /// Returns the kd-tree nodes a kNN query visited (0 for ridge).
  std::size_t predict_into(std::span<const double> features,
                           std::span<double> out) const;

  /// True once at least one step has been observed.
  bool ready() const {
    return kind_ == PredictorKind::kKnn ? knn_.fitted() : ridge_.fitted();
  }

  std::size_t feature_dim() const { return feature_dim_; }
  std::size_t target_dim() const { return target_dim_; }

  /// Seconds spent in the most recent refit (model training cost — the
  /// paper's Table II reports this overhead).
  double last_train_seconds() const { return last_train_seconds_; }

  /// Checkpoint the sliding window. The fitted model itself is not
  /// serialized — load() refits from the restored window, which is
  /// deterministic for both backing regressors.
  void save(util::BinaryWriter& out) const;

  /// Restore a window written by save() with matching kind/dims/window.
  void load(util::BinaryReader& in);

 private:
  void refit();

  PredictorKind kind_;
  std::size_t feature_dim_;
  std::size_t target_dim_;
  std::size_t window_;
  KNNRegressor knn_;      ///< fitted when kind_ == kKnn
  RidgeRegressor ridge_;  ///< fitted when kind_ == kRidge
  std::vector<Dataset> history_;  // ring of recent step datasets
  std::size_t next_slot_ = 0;
  std::size_t steps_seen_ = 0;
  double last_train_seconds_ = 0.0;
};

}  // namespace bd::ml
