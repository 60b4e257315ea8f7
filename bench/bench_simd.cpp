/// Integrand-evaluation throughput of the batched engine on the Table I
/// default geometry (64×64 grid, Gaussian moment fill). Per grid node, the
/// simpson-sweep sample layout — per subregion interval the batch
/// {m, b, (a+m)/2, (m+b)/2} — is evaluated two ways:
///
///   scalar   four ScalarWakeIntegrand::eval calls per interval: the
///            one-sample reference in tests/wake_oracle.hpp
///   batch    one WakeIntegrand::eval_batch call per interval — the
///            geometry-hoisting + bulk-probe SoA path the solvers run
///
/// Every batched output is compared bitwise against the scalar reference;
/// any mismatch fails the run regardless of flags. Writes
/// **BENCH_simd.json**. With `--check-baseline=tools/perf_baseline_simd.json`
/// the run also enforces the throughput floor: batch must beat scalar by
/// at least the baseline's `min_speedup_pct` (200 — ≥2×).

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "beam/analytic.hpp"
#include "beam/history.hpp"
#include "beam/units.hpp"
#include "beam/wake.hpp"
#include "bench_common.hpp"
#include "quad/integrand.hpp"
#include "simt/probe.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"
#include "wake_oracle.hpp"

namespace {

using namespace bd;

/// Continuum-filled Gaussian moment history (no Monte-Carlo noise) on the
/// Table I default grid, plus one WakeIntegrand and one reference
/// integrand per grid node.
struct Scenario {
  beam::GridSpec spec;
  beam::BeamParams params;
  beam::WakeModel model;
  std::unique_ptr<beam::GridHistory> history;
  std::vector<beam::WakeIntegrand> integrands;
  std::vector<testing::ScalarWakeIntegrand> references;
  std::size_t num_subregions;
  double sub_width = 1.0;

  explicit Scenario(std::uint32_t n, std::size_t subregions)
      : spec(beam::make_centered_grid(n, n, 6.0, 6.0)),
        model(beam::WakeModel::longitudinal()),
        num_subregions(subregions) {
    history = std::make_unique<beam::GridHistory>(
        spec, static_cast<std::uint32_t>(subregions) + 4);
    beam::Grid2D rho(spec), grad(spec);
    for (std::uint32_t iy = 0; iy < spec.ny; ++iy) {
      for (std::uint32_t ix = 0; ix < spec.nx; ++ix) {
        const double x = spec.x_at(ix);
        const double y = spec.y_at(iy);
        rho.at(ix, iy) = beam::gaussian_pdf(x, params.sigma_s) *
                         beam::gaussian_pdf(y, params.sigma_y);
        grad.at(ix, iy) = beam::gaussian_pdf_prime(x, params.sigma_s) *
                          beam::gaussian_pdf(y, params.sigma_y);
      }
    }
    history->fill_all(100, rho, grad);
    integrands.reserve(static_cast<std::size_t>(spec.nx) * spec.ny);
    references.reserve(static_cast<std::size_t>(spec.nx) * spec.ny);
    for (std::uint32_t iy = 0; iy < spec.ny; ++iy) {
      for (std::uint32_t ix = 0; ix < spec.nx; ++ix) {
        integrands.emplace_back(*history, model, spec.x_at(ix), spec.y_at(iy),
                                100, sub_width);
        references.emplace_back(*history, model, spec.x_at(ix),
                                spec.y_at(iy), 100, sub_width);
      }
    }
  }

  std::size_t evals_per_pass() const {
    return integrands.size() * num_subregions * quad::kBatchWidth;
  }
};

/// One pass over every reference integrand × interval with scalar eval()
/// calls. Appends outputs to `out` (the bitwise reference) when non-null.
double scalar_pass(const Scenario& sc, std::vector<double>* out) {
  simt::LaneProbe& probe = simt::NullProbe::instance();
  double acc = 0.0;
  for (const testing::ScalarWakeIntegrand& f : sc.references) {
    for (std::size_t j = 0; j < sc.num_subregions; ++j) {
      const double a = static_cast<double>(j) * sc.sub_width;
      const double b = a + sc.sub_width;
      const double m = 0.5 * (a + b);
      const double u[quad::kBatchWidth] = {m, b, 0.5 * (a + m),
                                           0.5 * (m + b)};
      for (double uk : u) {
        const double v = f.eval(uk, probe);
        acc += v;
        if (out != nullptr) out->push_back(v);
      }
    }
  }
  return acc;
}

/// One pass with eval_batch (width kBatchWidth, the simpson_sweep layout).
double batch_pass(const Scenario& sc, std::vector<double>* out) {
  simt::LaneProbe& probe = simt::NullProbe::instance();
  double acc = 0.0;
  double fv[quad::kBatchWidth];
  for (const beam::WakeIntegrand& f : sc.integrands) {
    for (std::size_t j = 0; j < sc.num_subregions; ++j) {
      const double a = static_cast<double>(j) * sc.sub_width;
      const double b = a + sc.sub_width;
      const double m = 0.5 * (a + b);
      const double u[quad::kBatchWidth] = {m, b, 0.5 * (a + m),
                                           0.5 * (m + b)};
      f.eval_batch(u, fv, quad::kBatchWidth, probe);
      for (double v : fv) {
        acc += v;
        if (out != nullptr) out->push_back(v);
      }
    }
  }
  return acc;
}

/// Wall seconds of one pass.
template <typename Fn>
double time_pass(Fn&& pass) {
  util::WallTimer timer;
  const double acc = pass();
  const double secs = timer.seconds();
  // Keep the accumulator observable so the pass cannot be elided.
  if (acc == 0.12345678901234567) std::printf("%g\n", acc);
  return secs;
}

}  // namespace

int main(int argc, char** argv) {
  util::ArgParser args("bench_simd",
                       "WakeIntegrand batch-evaluation throughput + identity");
  args.add_int("grid", 64, "grid resolution (Table I default)");
  args.add_int("subregions", 12, "radial subregions (sweep intervals)");
  args.add_int("reps", 5, "timed repetitions per path (best-of)");
  args.add_string("json", "BENCH_simd.json", "JSON output path");
  args.add_string("check-baseline", "",
                  "baseline JSON; exit 1 below the speedup floor");
  if (!args.parse(argc, argv)) return 0;

  const auto grid = static_cast<std::uint32_t>(args.get_int("grid"));
  const auto subregions =
      static_cast<std::size_t>(args.get_int("subregions"));
  const auto reps = static_cast<std::size_t>(args.get_int("reps"));

  Scenario sc(grid, subregions);

  std::printf("batched integrand engine — %ux%u grid, %zu subregions, "
              "%zu evals/pass\n\n",
              grid, grid, subregions, sc.evals_per_pass());

  // --- identity: every batched output bitwise equals the scalar path ------
  std::vector<double> ref, got;
  ref.reserve(sc.evals_per_pass());
  got.reserve(sc.evals_per_pass());
  scalar_pass(sc, &ref);
  batch_pass(sc, &got);
  int failures = 0;
  if (got.size() != ref.size() ||
      std::memcmp(got.data(), ref.data(), ref.size() * sizeof(double)) != 0) {
    std::fprintf(stderr, "FAIL batch: outputs not bitwise identical to the "
                         "scalar reference\n");
    ++failures;
  }
  std::printf("identity vs scalar reference: %s\n\n",
              failures == 0 ? "OK (bitwise)" : "FAILED");

  // --- throughput ---------------------------------------------------------
  // Best of `reps` per path, the two paths alternating so that load from
  // other processes on a shared host slows both alike.
  double scalar_s = 1e300;
  double batch_s = 1e300;
  for (std::size_t r = 0; r < reps; ++r) {
    scalar_s = std::min(
        scalar_s, time_pass([&] { return scalar_pass(sc, nullptr); }));
    batch_s =
        std::min(batch_s, time_pass([&] { return batch_pass(sc, nullptr); }));
  }
  const double evals = static_cast<double>(sc.evals_per_pass());
  const double scalar_ns = scalar_s * 1e9 / evals;
  const double batch_ns = batch_s * 1e9 / evals;
  const double speedup = scalar_ns / std::max(1e-12, batch_ns);

  util::ConsoleTable table({"path", "ns/eval", "speedup vs scalar"});
  table.cell("scalar").cell(scalar_ns, 1).cell(1.0, 2).end_row();
  table.cell("batch").cell(batch_ns, 1).cell(speedup, 2).end_row();
  table.print();

  const std::string json_path = args.get_string("json");
  FILE* json = std::fopen(json_path.c_str(), "w");
  if (json == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
    return 1;
  }
  std::fprintf(json, "{\n  \"benchmark\": \"simd-eval-throughput\",\n");
  std::fprintf(json,
               "  \"config\": {\"grid\": %u, \"subregions\": %zu, "
               "\"reps\": %zu, \"evals_per_pass\": %zu},\n",
               grid, subregions, reps, sc.evals_per_pass());
  std::fprintf(json, "  \"results\": [\n");
  std::fprintf(json,
               "    {\"kernel\": \"wake-batch\", \"scalar_ns_per_eval\": "
               "%.2f,\n     \"batch_scalar_ns_per_eval\": %.2f,\n"
               "     \"speedup_pct\": %lld, \"identical\": %d}\n",
               scalar_ns, batch_ns, static_cast<long long>(speedup * 100.0),
               failures == 0 ? 1 : 0);
  std::fprintf(json, "  ]\n}\n");
  std::fclose(json);
  std::printf("\nwrote %s\n", json_path.c_str());

  // --- regression gate ----------------------------------------------------
  const std::string baseline_path = args.get_string("check-baseline");
  if (!baseline_path.empty()) {
    const std::string baseline = bench::read_file(baseline_path);
    if (baseline.empty()) {
      std::fprintf(stderr, "cannot read baseline %s\n", baseline_path.c_str());
      return 1;
    }
    const long long floor_pct = bench::baseline_value(
        baseline, "\"kernel\": \"wake-batch\"", "min_speedup_pct");
    if (floor_pct < 0) {
      std::fprintf(stderr, "baseline %s has no min_speedup_pct\n",
                   baseline_path.c_str());
      ++failures;
    } else if (speedup * 100.0 < static_cast<double>(floor_pct)) {
      std::fprintf(stderr,
                   "FAIL wake-batch: speedup %.2fx below the baseline "
                   "floor %.2fx\n",
                   speedup, static_cast<double>(floor_pct) / 100.0);
      ++failures;
    }
    std::printf("baseline check vs %s: %s\n", baseline_path.c_str(),
                failures == 0 ? "OK" : "FAILED");
  }
  return failures == 0 ? 0 : 1;
}
