/// Ablation study over the design choices DESIGN.md calls out:
///   * partition transform: uniform vs adaptive (§III-C2)
///   * predictor: kNN vs ridge regression (§III-B1)
///   * kNN neighbor count k
///   * number of clusters m (paper: m = max(N_X, N_Y))
///   * training window size
///   * clustering granularity: 8×4 warp tiles vs per-point k-means (1×1
///     tiles)
///   * inner quadrature rule: Gauss–Legendre vs Newton–Cotes (the paper's
///     choice; see DESIGN.md for why GL is the default here)

#include <cstdio>
#include <functional>
#include <vector>

#include "bench_common.hpp"
#include "util/cli.hpp"
#include "util/csv.hpp"
#include "util/table.hpp"

namespace {

struct Variant {
  std::string group;
  std::string name;
  bd::core::PredictiveOptions options;
  std::function<void(bd::core::SimConfig&)> tweak_config;
};

}  // namespace

int main(int argc, char** argv) {
  using namespace bd;

  util::ArgParser args("bench_ablation",
                       "Predictive-RP design-choice ablations");
  args.add_int("particles", 50000, "macro-particles");
  args.add_int("grid", 48, "grid resolution");
  args.add_int("warmup", 2, "warm-up steps");
  args.add_int("measure", 2, "measured steps");
  args.add_string("csv", "ablation.csv", "CSV output path");
  if (!args.parse(argc, argv)) return 0;

  std::vector<Variant> variants;
  {
    Variant base{"baseline", "default (kNN k=4, uniform, 8x4 tiles)", {}, {}};
    variants.push_back(base);

    Variant adaptive = base;
    adaptive.group = "transform";
    adaptive.name = "adaptive transform";
    adaptive.options.transform = core::PartitionTransform::kAdaptive;
    variants.push_back(adaptive);

    Variant ridge = base;
    ridge.group = "predictor";
    ridge.name = "ridge regression";
    ridge.options.predictor = ml::PredictorKind::kRidge;
    variants.push_back(ridge);

    for (std::size_t k : {1, 2, 8}) {
      Variant v = base;
      v.group = "knn-k";
      v.name = "kNN k=" + std::to_string(k);
      v.options.knn_k = k;
      variants.push_back(v);
    }

    for (std::size_t m : {24, 96}) {
      Variant v = base;
      v.group = "clusters";
      v.name = "m=" + std::to_string(m);
      v.options.clusters = m;
      variants.push_back(v);
    }

    Variant window = base;
    window.group = "window";
    window.name = "training window=3";
    window.options.training_window = 3;
    variants.push_back(window);

    Variant flat = base;
    flat.group = "clustering";
    flat.name = "per-point k-means (1x1 tiles)";
    flat.options.tile_w = 1;
    flat.options.tile_h = 1;
    variants.push_back(flat);

    Variant nc = base;
    nc.group = "inner-rule";
    nc.name = "Newton-Cotes inner rule";
    nc.tweak_config = [](core::SimConfig& config) {
      config.longitudinal.inner_rule = beam::InnerRule::kNewtonCotes;
    };
    variants.push_back(nc);
  }

  util::ConsoleTable table({"group", "variant", "GPU ms/step",
                            "warp eff %", "gld eff %", "L1 hit %",
                            "intervals/step", "fallback/step",
                            "host ms/step"});
  util::CsvWriter csv(args.get_string("csv"));
  csv.header({"group", "variant", "gpu_ms", "warp_eff", "gld_eff", "l1_hit",
              "intervals", "fallback", "host_ms"});

  for (const Variant& variant : variants) {
    core::SimConfig config = bench::bench_config(
        static_cast<std::uint32_t>(args.get_int("grid")),
        static_cast<std::size_t>(args.get_int("particles")), 1e-6,
        /*rigid=*/false);
    if (variant.tweak_config) variant.tweak_config(config);
    const auto m = bench::measure_solver(
        "predictive", config,
        static_cast<std::size_t>(args.get_int("warmup")),
        static_cast<std::size_t>(args.get_int("measure")), variant.options);
    const auto steps = static_cast<double>(m.steps);
    const double host_ms = (m.clustering_seconds + m.train_seconds +
                            m.forecast_seconds) /
                           steps * 1e3;
    table.cell(variant.group)
        .cell(variant.name)
        .cell(m.gpu_seconds / steps * 1e3, 3)
        .cell(m.metrics.warp_execution_efficiency() * 100.0, 1)
        .cell(m.metrics.global_load_efficiency() * 100.0, 1)
        .cell(m.metrics.l1_hit_rate() * 100.0, 1)
        .cell(static_cast<std::int64_t>(
            m.kernel_intervals / std::max<std::size_t>(1, m.steps)))
        .cell(static_cast<std::int64_t>(
            m.fallback_items / std::max<std::size_t>(1, m.steps)))
        .cell(host_ms, 2);
    table.end_row();
    csv.cell(variant.group)
        .cell(variant.name)
        .cell(m.gpu_seconds / steps * 1e3)
        .cell(m.metrics.warp_execution_efficiency())
        .cell(m.metrics.global_load_efficiency())
        .cell(m.metrics.l1_hit_rate())
        .cell(m.kernel_intervals / std::max<std::size_t>(1, m.steps))
        .cell(m.fallback_items / std::max<std::size_t>(1, m.steps))
        .cell(host_ms);
    csv.end_row();
  }
  std::printf("Predictive-RP ablations (%lldx%lld grid)\n",
              static_cast<long long>(args.get_int("grid")),
              static_cast<long long>(args.get_int("grid")));
  table.print();
  csv.close();
  return 0;
}
