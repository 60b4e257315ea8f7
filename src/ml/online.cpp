#include "ml/online.hpp"

#include "util/check.hpp"
#include "util/serialize.hpp"
#include "util/timer.hpp"

namespace bd::ml {

OnlinePredictor::OnlinePredictor(PredictorKind kind, std::size_t feature_dim,
                                 std::size_t target_dim, std::size_t window,
                                 std::size_t knn_k)
    : kind_(kind),
      feature_dim_(feature_dim),
      target_dim_(target_dim),
      window_(window),
      knn_(knn_k) {
  BD_CHECK(feature_dim > 0 && target_dim > 0 && window > 0);
  history_.resize(window_, Dataset(feature_dim_, target_dim_));
}

void OnlinePredictor::observe_step(std::span<const double> features,
                                   std::span<const double> targets,
                                   std::size_t count) {
  BD_CHECK(features.size() == count * feature_dim_);
  BD_CHECK(targets.size() == count * target_dim_);
  Dataset& slot = history_[next_slot_];
  slot.clear();
  slot.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    slot.add(features.subspan(i * feature_dim_, feature_dim_),
             targets.subspan(i * target_dim_, target_dim_));
  }
  next_slot_ = (next_slot_ + 1) % window_;
  ++steps_seen_;
  refit();
}

void OnlinePredictor::refit() {
  util::WallTimer timer;
  Dataset merged(feature_dim_, target_dim_);
  std::size_t total = 0;
  const std::size_t used = std::min(steps_seen_, window_);
  for (std::size_t w = 0; w < used; ++w) total += history_[w].size();
  merged.reserve(total);
  for (std::size_t w = 0; w < used; ++w) {
    const Dataset& d = history_[w];
    for (std::size_t i = 0; i < d.size(); ++i) {
      merged.add(d.features(i), d.targets(i));
    }
  }
  if (merged.empty()) return;
  switch (kind_) {
    case PredictorKind::kKnn:
      knn_.fit(merged);
      break;
    case PredictorKind::kRidge:
      ridge_.fit(merged);
      break;
  }
  last_train_seconds_ = timer.seconds();
}

void OnlinePredictor::save(util::BinaryWriter& out) const {
  out.write_u8(static_cast<std::uint8_t>(kind_));
  out.write_u64(feature_dim_);
  out.write_u64(target_dim_);
  out.write_u64(window_);
  out.write_u64(steps_seen_);
  out.write_u64(next_slot_);
  for (const Dataset& slot : history_) {
    out.write_f64_span(slot.raw_features());
    out.write_f64_span(slot.raw_targets());
  }
}

void OnlinePredictor::load(util::BinaryReader& in) {
  const auto kind = static_cast<PredictorKind>(in.read_u8());
  BD_CHECK_MSG(kind == kind_, "predictor kind mismatch in checkpoint");
  const std::uint64_t fd = in.read_u64();
  const std::uint64_t td = in.read_u64();
  const std::uint64_t win = in.read_u64();
  BD_CHECK_MSG(fd == feature_dim_ && td == target_dim_ && win == window_,
               "predictor shape mismatch: checkpoint ("
                   << fd << "x" << td << ", window " << win
                   << ") vs simulation (" << feature_dim_ << "x" << target_dim_
                   << ", window " << window_ << ")");
  steps_seen_ = in.read_u64();
  next_slot_ = in.read_u64();
  BD_CHECK_MSG(next_slot_ < window_, "corrupt predictor slot index");
  for (Dataset& slot : history_) {
    std::vector<double> features = in.read_f64_vector();
    std::vector<double> targets = in.read_f64_vector();
    slot.assign_raw(std::move(features), std::move(targets));
  }
  knn_ = KNNRegressor(knn_.k());
  ridge_ = RidgeRegressor();
  if (steps_seen_ > 0) refit();
}

std::size_t OnlinePredictor::predict_into(std::span<const double> features,
                                          std::span<double> out) const {
  BD_CHECK_MSG(ready(), "predictor not trained yet");
  if (kind_ == PredictorKind::kKnn) return knn_.predict_into(features, out);
  ridge_.predict_into(features, out);
  return 0;
}

}  // namespace bd::ml
