#include "core/predictive.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "core/rp_kernels.hpp"
#include "core/solver_scratch.hpp"
#include "quad/partition.hpp"
#include "util/check.hpp"
#include "util/faultinject.hpp"
#include "util/parallel.hpp"
#include "util/serialize.hpp"
#include "util/telemetry.hpp"
#include "util/timer.hpp"

namespace bd::core {

namespace telemetry = util::telemetry;

namespace {
constexpr std::size_t kFeatureDim = 3;  // (x, y, t)
constexpr std::uint64_t kClusterSeed = 42;  ///< k-means++ / coreset seed
/// Sample stride for training examples: every 4th grid point cuts host
/// training cost at negligible forecast-quality loss.
constexpr std::size_t kTrainingStride = 4;
/// EMA factor blending new observations into the training targets (damps
/// refine/coarsen oscillation; 1 would use raw observations).
constexpr double kObservationEma = 0.5;
/// D² coreset draws for centroid training. The per-step host clustering
/// cost is the fixed overhead the paper's Table II prices at 2.9 ms/step;
/// the coreset makes it sublinear in grid area.
constexpr std::size_t kCoresetSize = 512;

/// Mean absolute error between the forecast and observed pattern fields.
double pattern_mae(const PatternField& predicted,
                   const PatternField& observed) {
  const auto p = predicted.flat();
  const auto o = observed.flat();
  if (p.size() != o.size() || p.empty()) return 0.0;
  double sum = 0.0;
  for (std::size_t i = 0; i < p.size(); ++i) sum += std::abs(p[i] - o[i]);
  return sum / static_cast<double>(p.size());
}
}  // namespace

PredictiveSolver::PredictiveSolver(simt::DeviceSpec device,
                                   PredictiveOptions options)
    : device_(std::move(device)), options_(options) {
  BD_CHECK_MSG(options_.training_window >= 1,
               "PredictiveOptions.training_window must be >= 1, got "
                   << options_.training_window);
  BD_CHECK_MSG(options_.tile_w >= 1,
               "PredictiveOptions.tile_w must be >= 1, got "
                   << options_.tile_w);
  BD_CHECK_MSG(options_.tile_h >= 1,
               "PredictiveOptions.tile_h must be >= 1, got "
                   << options_.tile_h);
}

void PredictiveSolver::reset() {
  predictor_.reset();
  previous_partitions_.clear();
  smoothed_ = PatternField{};
  cluster_cache_.clear();
  warm_start_hits_ = 0;
}

namespace {

/// MERGE-LISTS fold over a member range: merge the members' partitions into
/// one list left to right (((m0 ∪ m1) ∪ m2) ∪ ...) using the scratch
/// ping/pong buffers, append it as a row of `out` and return the row id.
std::size_t fold_merge_row(const quad::PartitionSet& parts,
                           std::span<const std::uint32_t> members,
                           SolverScratch& scratch, quad::PartitionSet& out) {
  if (members.empty()) return out.add_row({});
  std::span<const double> acc = parts.at(members[0]);
  std::vector<double>* front = &scratch.merge_a;
  std::vector<double>* spare = &scratch.merge_b;
  for (std::size_t i = 1; i < members.size(); ++i) {
    quad::merge_partitions_into(acc, parts.at(members[i]), *front);
    acc = *front;
    std::swap(front, spare);
  }
  return out.add_row(acc);
}

}  // namespace

SolveResult PredictiveSolver::solve(const RpProblem& problem) {
  if (!trained()) return solve_bootstrap(problem);
  return solve_predictive(problem);
}

SolveResult PredictiveSolver::solve_bootstrap(const RpProblem& problem) {
  util::WallTimer wall;
  SolverScratch& scratch = scratch_for(problem);

  // Single coarse row (one interval per subregion) aliased by every point.
  const auto ones = scratch.acquire_fill(scratch.ones,
                                         problem.num_subregions, 1.0);
  quad::PartitionSet& parts = scratch.point_partitions;
  parts.reset(problem.num_points());
  const auto slot = scratch.acquire(
      scratch.merge_a, pattern_to_partition_bound(ones, /*headroom=*/1.0));
  const std::size_t len = pattern_to_partition_into(
      ones, problem.sub_width, problem.r_max(), slot, /*headroom=*/1.0);
  parts.bind_all(parts.add_row(slot.first(len)));

  const ClusterAssignment blocks =
      chunk_clustering(problem.num_points(), 128);

  RpKernelInput input;
  input.problem = &problem;
  input.clusters = &blocks;
  input.partitions = &parts;

  RpKernelOutput kernel1 = run_compute_rp_integral(device_, input, scratch);
  const FallbackOutput kernel2 = run_adaptive_fallback(
      device_, problem, kernel1.failed, kernel1.integral, kernel1.error,
      kernel1.contributions, scratch);

  simt::KernelMetrics metrics = kernel1.metrics;
  metrics += kernel2.metrics;

  double train_seconds = 0.0;
  {
    telemetry::TraceSpan span("predictive.learn", "core");
    learn(problem, kernel1.contributions, train_seconds);
  }
  scratch.flush_metrics();

  SolveResult result = detail::make_result(
      problem, std::move(kernel1.integral), std::move(kernel1.error),
      std::move(kernel1.contributions), std::move(metrics));
  result.fallback_items = kernel1.failed.size();
  result.kernel_intervals = kernel1.intervals;
  result.train_seconds = train_seconds;
  result.wall_seconds = wall.seconds();
  return result;
}

PatternField PredictiveSolver::forecast(const RpProblem& problem) const {
  BD_CHECK_MSG(predictor_ && predictor_->ready(),
               "forecast requires a trained predictor");
  const std::size_t num_points = problem.num_points();
  PatternField predicted(num_points, problem.num_subregions);
  // The paper parallelizes this per-point loop on the host (§IV-A);
  // predict_into is const and reentrant, and each point writes only its
  // own pattern row — bit-identical for any thread count. Chunks sum the
  // kd-tree nodes their queries visit; the forecast adds the total once.
  std::atomic<std::uint64_t> nodes_visited{0};
  util::parallel_for_chunked(0, num_points, 0, [&](std::size_t lo,
                                                   std::size_t hi) {
    std::uint64_t visited = 0;
    for (std::size_t p = lo; p < hi; ++p) {
      if (p == 0 && util::faultinject::enabled() &&
          util::faultinject::fire(util::faultinject::FaultClass::kPoolThrow,
                                  problem.step)) {
        throw std::runtime_error(
            "fault injected: pool job failure in forecast");
      }
      double features[kFeatureDim];
      problem.point_coords(p, features[0], features[1]);
      features[2] = static_cast<double>(problem.step);
      visited += predictor_->predict_into(
          std::span<const double>(features, kFeatureDim), predicted.at(p));
    }
    nodes_visited += visited;
  });
  telemetry::counter_add("predictive.knn_nodes_visited", nodes_visited);
  return predicted;
}

SolveResult PredictiveSolver::solve_predictive(const RpProblem& problem) {
  util::WallTimer wall;
  SolverScratch& scratch = scratch_for(problem);
  const std::size_t num_points = problem.num_points();

  telemetry::TraceSession& session = telemetry::current_trace();

  // (1) + (2): forecast patterns, build per-point partitions.
  util::WallTimer forecast_timer;
  const double forecast_start = session.enabled() ? session.now_us() : 0.0;
  PatternField predicted = forecast(problem);

  if (util::faultinject::enabled()) {
    if (auto inj = util::faultinject::fire(
            util::faultinject::FaultClass::kForecastCorrupt, problem.step)) {
      // Scramble a deterministic 3/4 of the forecast: alternate NaNs and
      // absurd magnitudes, exactly what a poisoned model would emit.
      auto flat = predicted.flat();
      for (std::size_t i = 0; i < flat.size(); ++i) {
        if (i % 4 == 3) continue;
        flat[i] = (i % 2 == 0) ? std::numeric_limits<double>::quiet_NaN()
                               : 1e18;
      }
    }
  }

  // Hint-boundary sanitizer (always on): the forecast is a performance
  // hint, so a non-finite / negative / absurd prediction must never reach
  // partition building — round_pow2 of a huge value is UB on the uint cast.
  // Rewritten values fall back to "one interval", the coarse bootstrap
  // density; the adaptive fallback still guarantees τ.
  std::uint64_t sanitized = 0;
  for (double& v : predicted.flat()) {
    if (!std::isfinite(v) || v < 0.0 || v > 1e6) {
      v = 1.0;
      ++sanitized;
    }
  }
  if (sanitized > 0) {
    telemetry::counter_add("predictive.forecast_sanitized", sanitized);
  }

  // Per-point partitions into the step-persistent PartitionSet: a serial
  // layout pass over per-row bounds, then an allocation-free parallel fill.
  quad::PartitionSet& parts = scratch.point_partitions;
  parts.reset(num_points);
  const bool use_adaptive =
      options_.transform == PartitionTransform::kAdaptive &&
      previous_partitions_.entries() == num_points;
  const auto caps = scratch.acquire(scratch.row_caps, num_points);
  util::parallel_for(0, num_points, [&](std::size_t p) {
    caps[p] = use_adaptive
                  ? pattern_to_partition_adaptive_bound(
                        predicted.at(p), previous_partitions_.at(p),
                        problem.sub_width, problem.r_max())
                  : pattern_to_partition_bound(predicted.at(p));
  });
  parts.layout_rows(caps);
  util::parallel_for(0, num_points, [&](std::size_t p) {
    const std::span<double> slot = parts.row_slot(p);
    const std::size_t len =
        use_adaptive
            ? pattern_to_partition_adaptive_into(
                  predicted.at(p), previous_partitions_.at(p),
                  problem.sub_width, problem.r_max(), slot)
            : pattern_to_partition_into(predicted.at(p), problem.sub_width,
                                        problem.r_max(), slot);
    parts.set_row_length(p, len);
  });
  const double forecast_seconds = forecast_timer.seconds();
  if (session.enabled()) {
    session.record_complete("predictive.forecast", "core", forecast_start,
                            session.now_us() - forecast_start, "");
  }

  // (3) RP-CLUSTERING on the forecast patterns. Cluster count: the paper
  // uses m = max(N_X, N_Y); our default sizes clusters to fill an SM's
  // resident warps (~512 points) so the co-resident warps that share the
  // L1 all come from one pattern-similar cluster. Set options_.clusters
  // to max(N_X, N_Y) to reproduce the paper's choice (ablated in
  // bench_ablation).
  util::WallTimer cluster_timer;
  const double cluster_start = session.enabled() ? session.now_us() : 0.0;
  const std::size_t auto_m = std::clamp<std::size_t>(
      num_points / (device_.resident_warps_per_sm * device_.warp_size), 4,
      1024);
  RpClusteringOptions cluster_options;
  cluster_options.clusters = options_.clusters ? options_.clusters : auto_m;
  cluster_options.tile_w = options_.tile_w;
  cluster_options.tile_h = options_.tile_h;
  cluster_options.seed = kClusterSeed;
  cluster_options.accel.coreset_size = kCoresetSize;
  cluster_options.accel.cache = &cluster_cache_;
  const ClusterAssignment clusters =
      rp_clustering(predicted, problem.grid(), cluster_options);
  if (clusters.warm_started) ++warm_start_hits_;

  // MERGE-LISTS per warp: keeps control flow lockstep exactly where SIMD
  // hardware needs it while evaluating barely more intervals than the
  // members individually require. Each merged list is stored once as a
  // PartitionSet row and bound to every member's entry.
  quad::PartitionSet& merged = scratch.merged;
  const std::size_t warp = device_.warp_size;
  merged.reset(num_points);
  // A merged row never exceeds the Σ of its inputs: one reserve bounds
  // the whole fold (no add_row growth cascade on record-sized steps).
  merged.reserve_breaks(parts.used());
  for (const auto& members : clusters.members) {
    for (std::size_t lo = 0; lo < members.size(); lo += warp) {
      const std::size_t hi = std::min(members.size(), lo + warp);
      const std::span<const std::uint32_t> group(members.data() + lo,
                                                 hi - lo);
      const std::size_t row = fold_merge_row(parts, group, scratch, merged);
      for (std::uint32_t p : group) merged.bind(p, row);
    }
  }
  const double clustering_seconds = cluster_timer.seconds();
  if (session.enabled()) {
    session.record_complete("predictive.cluster_merge", "core", cluster_start,
                            session.now_us() - cluster_start, "");
  }
  // Cluster balance + k-means convergence metrics (RP-CLUSTERING quality).
  telemetry::histogram_record("predictive.kmeans_iterations",
                              static_cast<double>(clusters.kmeans_iterations));
  telemetry::gauge_set("predictive.cluster_inertia", clusters.inertia);
  telemetry::gauge_set("predictive.max_cluster_size",
                       static_cast<double>(clusters.max_cluster_size));
  telemetry::gauge_set("predictive.coreset_size",
                       static_cast<double>(clusters.coreset_size));
  telemetry::gauge_set("predictive.warm_start_hits",
                       static_cast<double>(warm_start_hits_));

  // (4) COMPUTE-RP-INTEGRAL with uniform per-warp/per-block control flow.
  RpKernelInput input;
  input.problem = &problem;
  input.clusters = &clusters;
  input.partitions = &merged;
  RpKernelOutput kernel1 = run_compute_rp_integral(device_, input, scratch);

  // (5) adaptive fallback for intervals that missed τ.
  const FallbackOutput kernel2 = run_adaptive_fallback(
      device_, problem, kernel1.failed, kernel1.integral, kernel1.error,
      kernel1.contributions, scratch);

  simt::KernelMetrics metrics = kernel1.metrics;
  metrics += kernel2.metrics;

  // Forecast quality: how far the predicted access pattern was from the
  // observed one (fallback contributions included).
  const double forecast_mae = pattern_mae(predicted, kernel1.contributions);
  telemetry::gauge_set("predictive.forecast_mae", forecast_mae);

  // Remember per-point partitions for the adaptive transform: the
  // warp-merged lists each member actually walked.
  if (options_.transform == PartitionTransform::kAdaptive) {
    previous_partitions_.copy_from(merged);
    scratch.absorb(previous_partitions_);
  }

  // (6) ONLINE-LEARNING on the observed patterns.
  double train_seconds = 0.0;
  {
    telemetry::TraceSpan span("predictive.learn", "core");
    learn(problem, kernel1.contributions, train_seconds);
  }
  scratch.flush_metrics();

  SolveResult result = detail::make_result(
      problem, std::move(kernel1.integral), std::move(kernel1.error),
      std::move(kernel1.contributions), std::move(metrics));
  result.fallback_items = kernel1.failed.size();
  result.kernel_intervals = kernel1.intervals;
  result.forecast_mae = forecast_mae;
  result.sanitized_forecasts = sanitized;
  result.clustering_seconds = clustering_seconds;
  result.forecast_seconds = forecast_seconds;
  result.train_seconds = train_seconds;
  result.wall_seconds = wall.seconds();
  return result;
}

void PredictiveSolver::save_state(util::BinaryWriter& out) const {
  out.write_bool(predictor_ != nullptr);
  if (predictor_) {
    out.write_u64(predictor_->target_dim());
    predictor_->save(out);
  }
  quad::write_partition_set_nested(out, previous_partitions_);
  out.write_u64(smoothed_.points());
  out.write_u64(smoothed_.subregions());
  out.write_f64_span(smoothed_.flat());
  // Warm-start centroid cache: without it a restored solver would cluster
  // cold on its first step and diverge bitwise from the uninterrupted run.
  out.write_u64(cluster_cache_.dim);
  out.write_f64(cluster_cache_.inertia);
  out.write_f64_span(cluster_cache_.centroids);
  out.write_u64(warm_start_hits_);
}

void PredictiveSolver::load_state(util::BinaryReader& in) {
  if (in.read_bool()) {
    const std::uint64_t target_dim = in.read_u64();
    BD_CHECK_MSG(target_dim > 0, "corrupt predictor target dim");
    predictor_ = std::make_unique<ml::OnlinePredictor>(
        options_.predictor, kFeatureDim, target_dim, options_.training_window,
        options_.knn_k);
    predictor_->load(in);
  } else {
    predictor_.reset();
  }
  quad::read_partition_set_nested(in, previous_partitions_);
  const std::uint64_t points = in.read_u64();
  const std::uint64_t subregions = in.read_u64();
  BD_CHECK_MSG(subregions == 0 ||
                   points <= in.remaining() / sizeof(double) / subregions,
               "truncated payload: pattern field of " << points << " x "
                                                      << subregions);
  smoothed_ = PatternField(points, subregions);
  in.read_f64_into(smoothed_.flat());
  cluster_cache_.dim = in.read_u64();
  cluster_cache_.inertia = in.read_f64();
  cluster_cache_.centroids = in.read_f64_vector();
  BD_CHECK_MSG(cluster_cache_.dim == 0 ||
                   (cluster_cache_.dim > 0 &&
                    cluster_cache_.centroids.size() % cluster_cache_.dim == 0),
               "corrupt clustering cache");
  warm_start_hits_ = in.read_u64();
}

void PredictiveSolver::learn(const RpProblem& problem,
                             const PatternField& observed,
                             double& train_seconds) {
  const std::size_t num_points = problem.num_points();
  const std::size_t examples =
      (num_points + kTrainingStride - 1) / kTrainingStride;

  // EMA-smooth the observations (damps refine/coarsen oscillation).
  if (smoothed_.points() != num_points ||
      smoothed_.subregions() != problem.num_subregions) {
    smoothed_ = observed;
  } else {
    auto s = smoothed_.flat();
    const auto o = observed.flat();
    for (std::size_t i = 0; i < s.size(); ++i) {
      s[i] = kObservationEma * o[i] + (1.0 - kObservationEma) * s[i];
    }
  }

  if (!predictor_ || predictor_->target_dim() != problem.num_subregions) {
    predictor_ = std::make_unique<ml::OnlinePredictor>(
        options_.predictor, kFeatureDim, problem.num_subregions,
        options_.training_window, options_.knn_k);
  }

  std::vector<double> features;
  std::vector<double> targets;
  features.reserve(examples * kFeatureDim);
  targets.reserve(examples * problem.num_subregions);
  for (std::size_t p = 0; p < num_points; p += kTrainingStride) {
    double x = 0.0, y = 0.0;
    problem.point_coords(p, x, y);
    features.push_back(x);
    features.push_back(y);
    features.push_back(static_cast<double>(problem.step));
    const auto obs = smoothed_.at(p);
    targets.insert(targets.end(), obs.begin(), obs.end());
  }
  predictor_->observe_step(features, targets, examples);
  train_seconds = predictor_->last_train_seconds();
}

}  // namespace bd::core
