/// Clustering-engine benchmark, two phases:
///
///  1. **Solver fidelity** (64² grid, drifting bunch): the shipped
///     predictive solver; its total fallback items stay under the
///     checked-in ceiling, so clustering never trades forecast quality
///     for speed.
///
///  2. **Clustering scaling** (64²/128²/256², synthetic drifting pattern
///     fields): per-step cost of RP-CLUSTERING proper, run as the paper's
///     per-point k-means (1×1 tiles, no coordinate features). The reference
///     configuration trains Lloyd on the *full* point set (coreset size 0,
///     no warm start) — the paper's literal O(N·k·d)-per-iteration
///     Algorithm 1 — while the accel configuration trains on a 512-point
///     D² coreset with warm-started centroids. Both run pruned Lloyd and
///     pay the same feature build, balanced assignment and full-set
///     inertia accounting. Gates at 128² and 256²: the reference computes
///     many times more Lloyd point-centroid distances
///     (`kmeans.full_distances`), with identical-or-better full-set
///     inertia. Wall time is reported, not gated.
///
/// Writes **BENCH_clustering.json**. The baseline
/// (`--check-baseline=tools/perf_baseline_clustering.json`) pins
/// deterministic ratios and counts: the distance-ratio floor, the
/// accel/reference inertia-ratio ceiling, and the fidelity fallback-item
/// ceiling (2% slack for neighbouring re-baselines).

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/clustering.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"
#include "util/telemetry.hpp"
#include "util/timer.hpp"

namespace {

/// Measurement of one clustering configuration over the measured steps.
struct ModeResult {
  double ms_per_step = 0.0;
  double inertia = 0.0;         ///< mean full-set inertia over steps
  std::uint64_t distances = 0;  ///< Lloyd point-centroid distances, summed
  std::size_t coreset_size = 0;
  std::size_t warm_steps = 0;
};

/// Phase-2 measurement of one grid size.
struct ScalingResult {
  std::uint32_t grid = 0;
  std::size_t points = 0;
  std::size_t clusters = 0;
  std::size_t steps = 0;
  ModeResult reference;
  ModeResult accel;

  double speedup() const {
    return accel.ms_per_step > 0.0
               ? reference.ms_per_step / accel.ms_per_step
               : 0.0;
  }
  double distance_ratio() const {
    return accel.distances > 0
               ? static_cast<double>(reference.distances) /
                     static_cast<double>(accel.distances)
               : 0.0;
  }
  double inertia_ratio() const {
    return reference.inertia > 0.0 ? accel.inertia / reference.inertia
                                   : 1.0;
  }
};

/// Phase-2 cluster count: one cluster per 2048 points, clamped to a sane
/// range. This is a quarter of the predictive solver's automatic count
/// (N/512 on the K40); the checked-in distance and inertia ratios were
/// measured at this count, so it stays.
std::size_t cluster_count(std::size_t points) {
  return std::clamp<std::size_t>(points / 2048, 4, 1024);
}

/// Synthetic access-pattern field for step `step`: a radial demand bump
/// that drifts outward and breathes between steps (the way the evolving
/// bunch moves quadrature demand across the grid), plus deterministic
/// per-point noise. Patterns vary smoothly in space — the property
/// RP-CLUSTERING exploits — but no two steps are identical, so the
/// warm-start path re-trains every step like production.
bd::core::PatternField drifting_patterns(std::uint32_t grid, std::size_t pdim,
                                         std::size_t step) {
  const std::size_t n = static_cast<std::size_t>(grid) * grid;
  bd::core::PatternField field(n, pdim);
  bd::util::Rng rng(0xC0FFEEull * (step + 1) + grid);
  const double drift = 0.01 * static_cast<double>(step);
  for (std::size_t i = 0; i < n; ++i) {
    const double x = static_cast<double>(i % grid) / grid - 0.5;
    const double y = static_cast<double>(i / grid) / grid - 0.5;
    const double r = std::sqrt(x * x + y * y);
    auto pattern = field.at(i);
    for (std::size_t j = 0; j < pdim; ++j) {
      const double center =
          0.1 + drift + 0.35 * static_cast<double>(j) / pdim;
      const double bump = std::exp(-40.0 * (r - center) * (r - center));
      pattern[j] = 2.0 + 10.0 * bump + 0.1 * rng.uniform();
    }
  }
  return field;
}

/// Lloyd point-centroid distances computed so far in this process.
std::uint64_t lloyd_distances() {
  const auto counters =
      bd::util::telemetry::MetricsRegistry::global().snapshot().counters;
  const auto it = counters.find("kmeans.full_distances");
  return it == counters.end() ? 0 : it->second;
}

/// Run `steps` clustering calls (after one discarded warm-up call) and
/// average wall time and full-set inertia, and sum the Lloyd distances,
/// over the measured steps.
ModeResult run_scaling_mode(std::uint32_t grid, std::size_t pdim,
                            std::size_t steps,
                            const bd::core::RpClusteringOptions& options) {
  using namespace bd;
  ModeResult out;
  const beam::GridSpec spec = beam::make_centered_grid(grid, grid, 1.0, 1.0);
  for (std::size_t s = 0; s < steps + 1; ++s) {
    const core::PatternField field = drifting_patterns(grid, pdim, s);
    const std::uint64_t distances_before = lloyd_distances();
    util::WallTimer timer;
    const core::ClusterAssignment result =
        core::rp_clustering(field, spec, options);
    const double seconds = timer.seconds();
    if (s == 0) continue;  // warm-up: first-touch + cold caches
    out.ms_per_step += seconds * 1e3;
    out.inertia += result.inertia;
    out.distances += lloyd_distances() - distances_before;
    out.coreset_size = std::max(out.coreset_size, result.coreset_size);
    if (result.warm_started) ++out.warm_steps;
  }
  out.ms_per_step /= static_cast<double>(steps);
  out.inertia /= static_cast<double>(steps);
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace bd;

  util::ArgParser args("bench_clustering",
                       "Coreset/pruned/warm-start clustering engine gates");
  args.add_int("fidelity-grid", 64, "phase-1 grid resolution");
  args.add_int("particles", 20000, "phase-1 macro-particles");
  args.add_int("warmup", 2, "phase-1 discarded steps");
  args.add_int("measure", 4, "phase-1 measured steps");
  args.add_int("steps", 5, "phase-2 measured clustering steps per grid");
  args.add_int("subregions", 16, "phase-2 pattern dimensions");
  args.add_int("coreset", 512, "phase-2 accel coreset size");
  args.add_string("json", "BENCH_clustering.json", "JSON output path");
  args.add_string("check-baseline", "",
                  "baseline JSON; exit 1 on distance/inertia/fallback "
                  "regression");
  if (!args.parse(argc, argv)) return 0;

  const auto fidelity_grid =
      static_cast<std::uint32_t>(args.get_int("fidelity-grid"));
  const auto particles = static_cast<std::size_t>(args.get_int("particles"));
  const std::size_t warmup = static_cast<std::size_t>(args.get_int("warmup"));
  const std::size_t measure =
      static_cast<std::size_t>(args.get_int("measure"));
  const std::size_t steps = static_cast<std::size_t>(args.get_int("steps"));
  const std::size_t pdim =
      static_cast<std::size_t>(args.get_int("subregions"));
  const std::size_t coreset =
      static_cast<std::size_t>(args.get_int("coreset"));

  // --- phase 1: solver fidelity -------------------------------------------
  std::printf(
      "clustering engine — phase 1: predictive solver fidelity "
      "(%ux%u grid, %zu particles, %zu+%zu steps)\n",
      fidelity_grid, fidelity_grid, particles, warmup, measure);
  const core::SimConfig config = bench::bench_config(
      fidelity_grid, particles, 1e-6, /*rigid=*/false);
  const bench::SolverMeasurement fidelity =
      bench::measure_solver("predictive", config, warmup, measure);
  const double clustering_ms_per_step =
      fidelity.clustering_seconds / static_cast<double>(fidelity.steps) * 1e3;
  util::ConsoleTable fidelity_table({"fallback items", "clustering ms/step"});
  fidelity_table.cell(static_cast<double>(fidelity.fallback_items), 0)
      .cell(clustering_ms_per_step, 3);
  fidelity_table.end_row();
  fidelity_table.print();

  // --- phase 2: clustering scaling, full-set Lloyd vs coreset accel --------
  std::printf(
      "\nphase 2: per-step RP-CLUSTERING, full-set Lloyd vs coreset accel "
      "(%zu steps, %zu pattern dims)\n",
      steps, pdim);
  const std::vector<std::uint32_t> grids{64, 128, 256};
  std::vector<ScalingResult> scaling;
  util::ConsoleTable scaling_table({"grid", "points", "clusters", "ref ms",
                                    "accel ms", "speedup", "distance ratio",
                                    "inertia ratio", "warm steps"});
  for (const std::uint32_t grid : grids) {
    ScalingResult r;
    r.grid = grid;
    r.points = static_cast<std::size_t>(grid) * grid;
    r.clusters = cluster_count(r.points);
    r.steps = steps;

    core::RpClusteringOptions reference;
    reference.clusters = r.clusters;
    reference.tile_w = 1;
    reference.tile_h = 1;
    reference.spatial_weight = 0.0;
    reference.seed = 42;
    // The paper's Algorithm 1 trains on every point; this is the cost the
    // coreset is built to avoid.
    reference.accel.coreset_size = 0;
    r.reference = run_scaling_mode(grid, pdim, steps, reference);

    core::RpClusteringOptions accel = reference;
    accel.accel.coreset_size = coreset;
    core::ClusteringCache cache;  // persists across steps → warm starts
    accel.accel.cache = &cache;
    r.accel = run_scaling_mode(grid, pdim, steps, accel);

    scaling_table.cell(static_cast<double>(grid), 0)
        .cell(static_cast<double>(r.points), 0)
        .cell(static_cast<double>(r.clusters), 0)
        .cell(r.reference.ms_per_step, 3)
        .cell(r.accel.ms_per_step, 3)
        .cell(r.speedup(), 2)
        .cell(r.distance_ratio(), 1)
        .cell(r.inertia_ratio(), 4)
        .cell(static_cast<double>(r.accel.warm_steps), 0);
    scaling_table.end_row();
    scaling.push_back(r);
  }
  scaling_table.print();

  // --- JSON ----------------------------------------------------------------
  const std::string json_path = args.get_string("json");
  FILE* json = std::fopen(json_path.c_str(), "w");
  if (json == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
    return 1;
  }
  std::fprintf(json, "{\n  \"benchmark\": \"clustering-engine\",\n");
  std::fprintf(json,
               "  \"config\": {\"fidelity_grid\": %u, \"particles\": %zu, "
               "\"warmup\": %zu, \"measure\": %zu, \"steps\": %zu, "
               "\"subregions\": %zu, \"coreset\": %zu},\n",
               fidelity_grid, particles, warmup, measure, steps, pdim,
               coreset);
  std::fprintf(json,
               "  \"solver_fidelity\": {\"measured_steps\": %zu,\n"
               "     \"fallback_items_total\": %llu,\n"
               "     \"clustering_ms_per_step\": %.3f},\n",
               fidelity.steps,
               static_cast<unsigned long long>(fidelity.fallback_items),
               clustering_ms_per_step);
  std::fprintf(json, "  \"scaling\": [\n");
  for (std::size_t i = 0; i < scaling.size(); ++i) {
    const ScalingResult& r = scaling[i];
    std::fprintf(
        json,
        "    {\"grid\": %u, \"points\": %zu, \"clusters\": %zu, "
        "\"measured_steps\": %zu,\n"
        "     \"reference_ms_per_step\": %.3f, \"accel_ms_per_step\": "
        "%.3f, \"speedup_x100\": %lld,\n"
        "     \"reference_distances\": %llu, \"accel_distances\": %llu, "
        "\"distance_ratio_x100\": %lld,\n"
        "     \"reference_inertia\": %.6g, \"accel_inertia\": %.6g, "
        "\"inertia_ratio_x1000\": %lld,\n"
        "     \"coreset_size\": %zu, \"warm_started_steps\": %zu}%s\n",
        r.grid, r.points, r.clusters, r.steps, r.reference.ms_per_step,
        r.accel.ms_per_step,
        static_cast<long long>(std::llround(r.speedup() * 100.0)),
        static_cast<unsigned long long>(r.reference.distances),
        static_cast<unsigned long long>(r.accel.distances),
        static_cast<long long>(std::llround(r.distance_ratio() * 100.0)),
        r.reference.inertia, r.accel.inertia,
        static_cast<long long>(std::llround(r.inertia_ratio() * 1000.0)),
        r.accel.coreset_size, r.accel.warm_steps,
        i + 1 < scaling.size() ? "," : "");
  }
  std::fprintf(json, "  ]\n}\n");
  std::fclose(json);
  std::printf("\nwrote %s\n", json_path.c_str());

  // --- gates ---------------------------------------------------------------
  int failures = 0;
  for (const ScalingResult& r : scaling) {
    if (r.grid < 128) continue;  // 64² is report-only (training ≈ noise)
    if (r.inertia_ratio() > 1.0) {
      std::fprintf(stderr,
                   "FAIL scaling %u²: accel inertia %.6g worse than "
                   "reference %.6g (ratio %.4f > 1)\n",
                   r.grid, r.accel.inertia, r.reference.inertia,
                   r.inertia_ratio());
      ++failures;
    }
  }

  const std::string baseline_path = args.get_string("check-baseline");
  if (!baseline_path.empty()) {
    const std::string baseline = bench::read_file(baseline_path);
    if (baseline.empty()) {
      std::fprintf(stderr, "cannot read baseline %s\n",
                   baseline_path.c_str());
      return 1;
    }
    // Fallback counts are deterministic; 2% slack absorbs intentional
    // re-baselines of neighbouring subsystems, not noise.
    const long long base_fallback = bench::baseline_value(
        baseline, "\"solver_fidelity\"", "max_fallback_items");
    if (base_fallback < 0) {
      std::fprintf(stderr, "baseline %s has no max_fallback_items\n",
                   baseline_path.c_str());
      ++failures;
    } else {
      const unsigned long long limit =
          static_cast<unsigned long long>(base_fallback) / 100ull * 102ull;
      if (fidelity.fallback_items > limit) {
        std::fprintf(stderr,
                     "FAIL fidelity: fallback items %llu exceed baseline "
                     "%lld (+2%% = %llu)\n",
                     static_cast<unsigned long long>(fidelity.fallback_items),
                     base_fallback, limit);
        ++failures;
      }
    }
    for (const ScalingResult& r : scaling) {
      const std::string anchor =
          "\"grid\": " + std::to_string(r.grid);
      const long long min_distance_ratio =
          bench::baseline_value(baseline, anchor, "min_distance_ratio_x100");
      const long long max_ratio =
          bench::baseline_value(baseline, anchor, "max_inertia_ratio_x1000");
      if (min_distance_ratio < 0 && max_ratio < 0) continue;  // report-only
      if (min_distance_ratio >= 0 &&
          std::llround(r.distance_ratio() * 100.0) < min_distance_ratio) {
        std::fprintf(stderr,
                     "FAIL scaling %u²: Lloyd distance ratio %.1fx below "
                     "baseline floor %.1fx\n",
                     r.grid, r.distance_ratio(),
                     static_cast<double>(min_distance_ratio) / 100.0);
        ++failures;
      }
      if (max_ratio >= 0 &&
          std::llround(r.inertia_ratio() * 1000.0) > max_ratio) {
        std::fprintf(stderr,
                     "FAIL scaling %u²: inertia ratio %.4f above baseline "
                     "ceiling %.4f\n",
                     r.grid, r.inertia_ratio(),
                     static_cast<double>(max_ratio) / 1000.0);
        ++failures;
      }
    }
    std::printf("baseline check vs %s: %s\n", baseline_path.c_str(),
                failures == 0 ? "OK" : "FAILED");
  }
  return failures == 0 ? 0 : 1;
}
