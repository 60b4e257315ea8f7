/// Google-benchmark micro-benchmarks for the library's primitives:
/// quadrature rules, kd-tree / kNN / k-means, the SIMT cache + warp analyzer,
/// the rp-integrand and PIC deposition.

#include <benchmark/benchmark.h>

#include <cmath>
#include <vector>

#include "beam/analytic.hpp"
#include "beam/bunch.hpp"
#include "beam/deposit.hpp"
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

/// One Simpson estimate with error (RP-QUADRULE): a one-interval sweep,
/// 5 evaluations.
void BM_SimpsonEstimate(benchmark::State& state) {
  const quad::FunctionIntegrand f([](double x) { return std::sin(3 * x); });
  auto& probe = simt::NullProbe::instance();
  const double partition[2] = {0.0, 1.0};
  for (auto _ : state) {
    quad::QuadEstimate est;
    quad::simpson_sweep(f, partition, probe,
                        [&](std::size_t, double, double,
                            const quad::QuadEstimate& e,
                            const quad::SimpsonSamples&) { est = e; });
    benchmark::DoNotOptimize(est);
  }
}
BENCHMARK(BM_SimpsonEstimate);

/// The fallback's adaptive driver over [0, 12], seeded with the root's
/// five samples (the kernel-1 sweep has them) and reusing its worklist.
void BM_AdaptiveSimpson(benchmark::State& state) {
  const double tol = std::pow(10.0, -static_cast<double>(state.range(0)));
  const auto fn = [](double u) { return std::pow(u + 0.05, -1.0 / 3.0); };
  const quad::FunctionIntegrand f(fn);
  auto& probe = simt::NullProbe::instance();
  const double a = 0.0, b = 12.0, m = 0.5 * (a + b);
  quad::SimpsonSamples root;
  root.fa = fn(a);
  root.fm = fn(m);
  root.fb = fn(b);
  root.fl = fn(0.5 * (a + m));
  root.fr = fn(0.5 * (m + b));
  std::vector<quad::AdaptiveWorkItem> stack;
  for (auto _ : state) {
    benchmark::DoNotOptimize(quad::adaptive_simpson_seeded(
        f, a, b, tol, root, probe, {}, stack,
        [](const quad::AdaptiveWorkItem&, const quad::QuadEstimate&) {}));
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
  std::vector<ml::Neighbor> neighbors;
  for (auto _ : state) {
    benchmark::DoNotOptimize(tree.query(query, 4, neighbors));
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

// The forecast's shape: a one-step training window over a 64x64 grid, so
// the step feature is constant, and every query sits one step ahead.
void BM_KnnPredictNextStep(benchmark::State& state) {
  util::Rng rng(4);
  ml::Dataset data(3, 12);
  std::vector<double> target(12);
  for (int iy = 0; iy < 64; ++iy) {
    for (int ix = 0; ix < 64; ++ix) {
      for (double& t : target) t = rng.uniform(1, 30);
      data.add(std::vector<double>{ix * 0.1, iy * 0.1, 7.0}, target);
    }
  }
  ml::KNNRegressor knn;
  knn.fit(data);
  std::vector<double> out(12);
  std::size_t point = 0;
  for (auto _ : state) {
    const double query[] = {(point % 64) * 0.1, (point / 64 % 64) * 0.1, 8.0};
    knn.predict_into(query, out);
    benchmark::DoNotOptimize(out.data());
    point += 37;
  }
}
BENCHMARK(BM_KnnPredictNextStep);

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

/// A stream of distinct lines through the K40 L1 geometry: every access
/// misses.
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

/// Replay-like traffic: a seeded stream in which about 80% of accesses
/// re-read one of the last capacity/2 lines brought in (hits, as on
/// rigid-64, whose modeled L1 hit rate is 0.79) and the rest bring in a
/// new line. Args: capacity, line size and ways — the K40 L1 and one of
/// the 32 K40 L2 set partitions the replay shards the L2 into.
void BM_CacheAccessMixed(benchmark::State& state) {
  const auto capacity = static_cast<std::uint32_t>(state.range(0));
  const auto line = static_cast<std::uint32_t>(state.range(1));
  const auto ways = static_cast<std::uint32_t>(state.range(2));
  const std::uint64_t recent = capacity / line / 2;
  util::Rng rng(79);
  std::vector<std::uint64_t> stream(1 << 16);
  std::uint64_t fresh = 0;
  for (std::uint64_t& addr : stream) {
    if (fresh > recent && rng.uniform() < 0.8) {
      addr = (fresh - 1 - rng.uniform_index(recent)) * line;
    } else {
      addr = fresh++ * line;
    }
  }
  simt::SetAssocCache cache(capacity, line, ways);
  std::size_t i = 0;
  std::uint64_t hits = 0;
  for (auto _ : state) {
    const bool hit = cache.access(stream[i]);
    benchmark::DoNotOptimize(hit);
    hits += hit;
    i = (i + 1) & (stream.size() - 1);
  }
  state.counters["hit_rate"] =
      static_cast<double>(hits) / static_cast<double>(state.iterations());
}
BENCHMARK(BM_CacheAccessMixed)
    ->ArgNames({"bytes", "line", "ways"})
    ->Args({48 * 1024, 128, 6})
    ->Args({64 * 16 * 32, 32, 16});

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

void BM_AnalyzeWarpStencil(benchmark::State& state) {
  // One warp of kernel 1 on an nx x nx grid (the argument): 32 lanes,
  // neighbouring lanes one grid column apart, 100 samples each. A sample
  // reports the 63 24-byte rows of its space-time stencil (7 inner nodes
  // x 3 planes x 3 rows, in that order) as one load_groups call of 21
  // groups of 3 rows a grid pitch apart, addressed as wake_batch.cpp
  // addresses them; along the samples the column and the newest plane
  // step back, as the retarded position and time do. About 6,300 row
  // loads per lane; items count row loads. At 64 the pitch is 4 L1 lines,
  // so the recorder dedups one row per group; at 40 it is 2.5 lines, so
  // it dedups every row.
  const auto nx = static_cast<std::uint64_t>(state.range(0));
  const std::uint64_t plane_bytes = nx * nx * sizeof(double);
  constexpr std::uint64_t kDepth = 16;  // history planes in the ring
  constexpr std::uint64_t kBase = 0x4000'0000;
  constexpr std::uint64_t kSamples = 100;
  constexpr std::uint64_t kNodes = 7;
  constexpr std::uint32_t kRowBytes = 3 * sizeof(double);
  const auto pitch = static_cast<std::int64_t>(nx * sizeof(double));
  const simt::DeviceSpec spec = simt::tesla_k40();
  constexpr std::uint32_t kSite = simt::site_id("bench/stencil-row");
  simt::WarpRecorder recorder(spec);
  simt::KernelMetrics metrics;
  const void* firsts[kNodes * 3];
  for (auto _ : state) {
    for (std::uint64_t lane = 0; lane < 32; ++lane) {
      recorder.begin_lane();
      for (std::uint64_t k = 0; k < kSamples; ++k) {
        const std::uint64_t ix =
            1 + lane + (kSamples - 1 - k) * (nx - 34) / kSamples;
        const std::uint64_t newest = 14 - k * 12 / kSamples;
        std::size_t q = 0;
        for (std::uint64_t node = 0; node < kNodes; ++node) {
          const std::uint64_t iy = nx / 2 - 12 + 4 * node;
          for (std::uint64_t p = 0; p < 3; ++p) {
            const std::uint64_t plane = (newest - p) % kDepth;
            firsts[q++] = reinterpret_cast<const void*>(
                kBase + plane * plane_bytes +
                ((iy - 1) * nx + ix - 1) * sizeof(double));
          }
        }
        recorder.load_groups(kSite, firsts, q, 3, pitch, kRowBytes);
      }
    }
    benchmark::DoNotOptimize(recorder.finish(metrics));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          32 * kSamples * kNodes * 9);
}
BENCHMARK(BM_AnalyzeWarpStencil)->Arg(64)->Arg(40);

/// One WakeIntegrand sample (a one-wide eval_batch) on a 128² Gaussian fill.
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
  const double u = 1.0;
  double out;
  for (auto _ : state) {
    integrand.eval_batch(&u, &out, 1, probe);
    benchmark::DoNotOptimize(out);
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
    benchmark::DoNotOptimize(beam::deposit(bunch, rho));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_DepositTsc)->Arg(10000)->Arg(100000);

}  // namespace

BENCHMARK_MAIN();
