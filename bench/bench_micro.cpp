/// Google-benchmark micro-benchmarks for the library's primitives:
/// quadrature rules, kd-tree / kNN / k-means, the SIMT cache + warp analyzer,
/// the space–time stencil and PIC deposition.

#include <benchmark/benchmark.h>

#include <cmath>

#include "beam/analytic.hpp"
#include "beam/bunch.hpp"
#include "beam/deposit.hpp"
#include "beam/stencil.hpp"
#include "beam/wake.hpp"
#include "ml/kdtree.hpp"
#include "ml/kmeans.hpp"
#include "ml/knn.hpp"
#include "quad/adaptive.hpp"
#include "quad/simpson.hpp"
#include "simt/cache.hpp"
#include "simt/warp.hpp"
#include "util/rng.hpp"

namespace {

using namespace bd;

void BM_SimpsonEstimate(benchmark::State& state) {
  const quad::FunctionIntegrand f([](double x) { return std::sin(3 * x); });
  auto& probe = simt::NullProbe::instance();
  for (auto _ : state) {
    benchmark::DoNotOptimize(quad::simpson_estimate(f, 0.0, 1.0, probe));
  }
}
BENCHMARK(BM_SimpsonEstimate);

void BM_AdaptiveSimpson(benchmark::State& state) {
  const double tol = std::pow(10.0, -static_cast<double>(state.range(0)));
  const quad::FunctionIntegrand f(
      [](double u) { return std::pow(u + 0.05, -1.0 / 3.0); });
  auto& probe = simt::NullProbe::instance();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        quad::adaptive_simpson(f, 0.0, 12.0, tol, probe));
  }
}
BENCHMARK(BM_AdaptiveSimpson)->Arg(4)->Arg(6)->Arg(8);

void BM_KdTreeQuery(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  util::Rng rng(1);
  std::vector<double> points(n * 3);
  for (double& v : points) v = rng.uniform(-1, 1);
  ml::KdTree tree;
  tree.build(points, n, 3);
  std::vector<double> query{0.1, -0.2, 0.3};
  for (auto _ : state) {
    benchmark::DoNotOptimize(tree.query(query, 4));
  }
  state.SetComplexityN(static_cast<std::int64_t>(n));
}
BENCHMARK(BM_KdTreeQuery)->Range(1 << 10, 1 << 16)->Complexity();

void BM_KnnPredict(benchmark::State& state) {
  util::Rng rng(2);
  ml::Dataset data(3, 12);
  std::vector<double> target(12);
  for (int i = 0; i < 4096; ++i) {
    const std::vector<double> x{rng.uniform(-6, 6), rng.uniform(-6, 6),
                                rng.uniform(0, 10)};
    for (double& t : target) t = rng.uniform(1, 30);
    data.add(x, target);
  }
  ml::KNNRegressor knn;
  knn.fit(data);
  const std::vector<double> query{0.0, 0.0, 5.0};
  std::vector<double> out(12);
  for (auto _ : state) {
    knn.predict_into(query, out);
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_KnnPredict);

void BM_KMeansTiles(benchmark::State& state) {
  const auto tiles = static_cast<std::size_t>(state.range(0));
  util::Rng rng(3);
  std::vector<double> features(tiles * 12);
  for (double& v : features) v = rng.uniform(0, 16);
  ml::KMeansConfig config;
  config.clusters = 64;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ml::kmeans(features, tiles, 12, config));
  }
}
BENCHMARK(BM_KMeansTiles)->Arg(128)->Arg(512);

void BM_CacheAccess(benchmark::State& state) {
  simt::SetAssocCache cache(48 * 1024, 128, 6);
  std::uint64_t addr = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.access(addr));
    addr += 128;
    if (addr > (1 << 22)) addr = 0;
  }
}
BENCHMARK(BM_CacheAccess);

void BM_AnalyzeWarp(benchmark::State& state) {
  // 32 lanes x 64 loads of 24-byte stencil rows: the shape of a kernel warp.
  // Times event intake plus analysis, the per-warp work of pass 1.
  const simt::DeviceSpec spec = simt::tesla_k40();
  constexpr std::uint32_t kSite = simt::site_id("bench/analyze-warp");
  simt::WarpRecorder recorder(spec);
  simt::KernelMetrics metrics;
  for (auto _ : state) {
    for (std::uint64_t lane = 0; lane < 32; ++lane) {
      recorder.begin_lane();
      for (std::uint64_t k = 0; k < 64; ++k) {
        const std::uint64_t addr = k * 4096 + lane * 24;
        recorder.load(kSite, reinterpret_cast<const void*>(addr), 24);
      }
    }
    benchmark::DoNotOptimize(recorder.finish(metrics));
  }
}
BENCHMARK(BM_AnalyzeWarp);

void BM_StencilSample(benchmark::State& state) {
  const beam::GridSpec spec = beam::make_centered_grid(128, 128, 6.0, 6.0);
  beam::GridHistory history(spec, 16);
  beam::Grid2D rho(spec), grad(spec);
  rho.fill(1.0);
  history.fill_all(20, rho, grad);
  auto& probe = simt::NullProbe::instance();
  double t = 19.3;
  for (auto _ : state) {
    benchmark::DoNotOptimize(beam::sample_spacetime(
        history, beam::kChannelRho, 0.37, -0.61, t, probe));
  }
}
BENCHMARK(BM_StencilSample);

void BM_WakeIntegrandEval(benchmark::State& state) {
  const beam::GridSpec spec = beam::make_centered_grid(128, 128, 6.0, 6.0);
  beam::GridHistory history(spec, 16);
  beam::Grid2D rho(spec), grad(spec);
  for (std::uint32_t iy = 0; iy < spec.ny; ++iy) {
    for (std::uint32_t ix = 0; ix < spec.nx; ++ix) {
      rho.at(ix, iy) = beam::gaussian_pdf(spec.x_at(ix), 1.0) *
                       beam::gaussian_pdf(spec.y_at(iy), 1.0);
    }
  }
  beam::longitudinal_gradient(rho, grad);
  history.fill_all(20, rho, grad);
  const beam::WakeModel model = beam::WakeModel::longitudinal();
  const beam::WakeIntegrand integrand(history, model, 0.5, 0.0, 20, 1.0);
  auto& probe = simt::NullProbe::instance();
  for (auto _ : state) {
    benchmark::DoNotOptimize(integrand.eval(1.0, probe));
  }
}
BENCHMARK(BM_WakeIntegrandEval);

void BM_DepositTsc(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  util::Rng rng(4);
  const beam::ParticleSet bunch =
      beam::sample_gaussian_bunch(n, beam::BeamParams{}, rng);
  beam::Grid2D rho(beam::make_centered_grid(128, 128, 6.0, 6.0));
  for (auto _ : state) {
    rho.fill(0.0);
    benchmark::DoNotOptimize(
        beam::deposit(bunch, beam::DepositScheme::kTSC, rho));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_DepositTsc)->Arg(10000)->Arg(100000);

}  // namespace

BENCHMARK_MAIN();
