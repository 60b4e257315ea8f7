/// Evaluation-engine benchmark, two phases on the Table I default
/// geometry:
///
///  1. **Eval reduction** (default bunch): integrand-evaluation counts per
///     solver. The shared-sample kernel sweep, seeded fallback roots and
///     memoized bisections all book the evaluations they *avoided* into
///     `rp.evals_saved`, so `evaluations + saved` is exactly what the
///     naive pre-overhaul engine would have paid — the reduction column
///     needs no second binary. Gate: ≥ 25% saved for every solver.
///
///  2. **Steady-state allocations** (rigid bunch): the default bunch
///     blows up exponentially (demand doubles every few steps, so no
///     allocation steady state exists for *any* engine); the rigid
///     variant reaches one. After `steady-warmup` steps the scratch
///     arena must stop growing. Gate: `rp.scratch_grows == 0` over the
///     measured window.
///
/// Writes **BENCH_rp_eval.json**. All counts are deterministic (thread
/// count independent), so the JSON doubles as a regression baseline:
/// `--check-baseline=tools/perf_baseline_rp_eval.json` exits non-zero if
/// any solver pays more evaluations than the checked-in baseline allows
/// (2% slack), saves less than the 25% floor, or grows scratch after
/// warm-up.

#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"
#include "util/telemetry.hpp"

namespace {

struct EvalCounts {
  std::uint64_t evaluations = 0;  ///< integrand evals paid (kernel+fallback)
  std::uint64_t saved = 0;        ///< evals the naive engine would have paid
  std::uint64_t cache_hits = 0;   ///< memoized samples reused by the fallback
  std::uint64_t scratch_grows = 0;
  std::uint64_t scratch_reuses = 0;
  std::size_t steps = 0;
  double gpu_seconds = 0.0;

  double naive_evaluations() const {
    return static_cast<double>(evaluations + saved);
  }
  double reduction() const {
    const double naive = naive_evaluations();
    return naive > 0.0 ? static_cast<double>(saved) / naive : 0.0;
  }
};

std::uint64_t counter(const std::map<std::string, std::uint64_t>& counters,
                      const char* name) {
  const auto it = counters.find(name);
  return it == counters.end() ? 0 : it->second;
}

/// Run `warmup` discarded steps then `measure` counted steps, reading the
/// eval counters from the metrics registry (reset at the warm-up
/// boundary, so scratch_grows covers only the steady state).
EvalCounts measure_counts(const std::string& kind,
                          const bd::core::SimConfig& config,
                          std::size_t warmup, std::size_t measure) {
  using namespace bd;
  util::telemetry::MetricsRegistry& registry =
      util::telemetry::MetricsRegistry::global();
  core::Simulation sim(config,
                       bench::make_solver(kind, simt::tesla_k40()));
  sim.initialize();
  for (std::size_t k = 0; k < warmup; ++k) sim.step();
  registry.reset();
  EvalCounts out;
  for (std::size_t k = 0; k < measure; ++k) {
    const core::StepStats stats = sim.step();
    out.gpu_seconds += stats.longitudinal.gpu_seconds;
    ++out.steps;
  }
  const auto counters = registry.snapshot().counters;
  out.evaluations = counter(counters, "rp.kernel_evaluations") +
                    counter(counters, "rp.fallback_evaluations");
  out.saved = counter(counters, "rp.evals_saved");
  out.cache_hits = counter(counters, "rp.integrand_cache_hits");
  out.scratch_grows = counter(counters, "rp.scratch_grows");
  out.scratch_reuses = counter(counters, "rp.scratch_reuses");
  registry.reset();
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace bd;

  util::ArgParser args("bench_rp_eval",
                       "Evaluation-engine eval counts + allocation gate");
  args.add_int("grid", 64, "grid resolution (Table I default)");
  args.add_int("particles", 100000, "macro-particles (Table I default)");
  args.add_double("tolerance", 1e-6, "rp-integral tolerance τ");
  args.add_int("warmup", 2, "phase-1 discarded steps");
  args.add_int("measure", 3, "phase-1 measured steps");
  args.add_int("steady-warmup", 6,
               "phase-2 discarded steps (watermark convergence)");
  args.add_int("steady-measure", 4, "phase-2 measured steps");
  args.add_string("json", "BENCH_rp_eval.json", "JSON output path");
  args.add_string("check-baseline", "",
                  "baseline JSON; exit 1 on eval-count regression");
  if (!args.parse(argc, argv)) return 0;

  const auto grid = static_cast<std::uint32_t>(args.get_int("grid"));
  const auto particles =
      static_cast<std::size_t>(args.get_int("particles"));
  const double tolerance = args.get_double("tolerance");
  const std::size_t warmup = static_cast<std::size_t>(args.get_int("warmup"));
  const std::size_t measure =
      static_cast<std::size_t>(args.get_int("measure"));
  const std::size_t steady_warmup =
      static_cast<std::size_t>(args.get_int("steady-warmup"));
  const std::size_t steady_measure =
      static_cast<std::size_t>(args.get_int("steady-measure"));

  const std::vector<std::string> kinds{"two-phase", "heuristic",
                                       "predictive"};

  // --- phase 1: eval reduction on the default (evolving) bunch -------------
  std::printf(
      "rp evaluation engine — %lldx%lld grid, %lld particles, tau = %g\n\n",
      static_cast<long long>(args.get_int("grid")),
      static_cast<long long>(args.get_int("grid")),
      static_cast<long long>(args.get_int("particles")),
      args.get_double("tolerance"));
  std::printf("phase 1: integrand evaluations (default bunch, %zu+%zu steps)\n",
              warmup, measure);
  const core::SimConfig config =
      bench::bench_config(grid, particles, tolerance, /*rigid=*/false);
  util::ConsoleTable table({"kernel", "evals/step", "naive evals/step",
                            "saved %", "cache hits/step", "GPU ms/step"});
  std::vector<EvalCounts> results;
  for (const std::string& kind : kinds) {
    const EvalCounts c = measure_counts(kind, config, warmup, measure);
    const double steps = static_cast<double>(c.steps);
    table.cell(kind)
        .cell(static_cast<double>(c.evaluations) / steps, 0)
        .cell(c.naive_evaluations() / steps, 0)
        .cell(c.reduction() * 100.0, 1)
        .cell(static_cast<double>(c.cache_hits) / steps, 0)
        .cell(c.gpu_seconds / steps * 1e3, 3);
    table.end_row();
    results.push_back(c);
  }
  table.print();

  // --- phase 2: allocation steady state on the rigid bunch -----------------
  std::printf(
      "\nphase 2: scratch allocations (rigid bunch, %zu+%zu steps)\n",
      steady_warmup, steady_measure);
  const core::SimConfig rigid_config =
      bench::bench_config(grid, particles, tolerance, /*rigid=*/true);
  util::ConsoleTable steady_table(
      {"kernel", "grows after warm-up", "reuses/step"});
  std::vector<EvalCounts> steady;
  for (const std::string& kind : kinds) {
    const EvalCounts c =
        measure_counts(kind, rigid_config, steady_warmup, steady_measure);
    steady_table.cell(kind)
        .cell(static_cast<double>(c.scratch_grows), 0)
        .cell(static_cast<double>(c.scratch_reuses) /
                  static_cast<double>(c.steps),
              0);
    steady_table.end_row();
    steady.push_back(c);
  }
  steady_table.print();

  const std::string json_path = args.get_string("json");
  FILE* json = std::fopen(json_path.c_str(), "w");
  if (json == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
    return 1;
  }
  std::fprintf(json, "{\n  \"benchmark\": \"rp-eval-engine\",\n");
  std::fprintf(json,
               "  \"config\": {\"grid\": %lld, \"particles\": %lld, "
               "\"tolerance\": %g, \"warmup\": %zu, \"measure\": %zu, "
               "\"steady_warmup\": %zu, \"steady_measure\": %zu},\n",
               static_cast<long long>(args.get_int("grid")),
               static_cast<long long>(args.get_int("particles")),
               args.get_double("tolerance"), warmup, measure, steady_warmup,
               steady_measure);
  std::fprintf(json, "  \"solvers\": [\n");
  for (std::size_t i = 0; i < kinds.size(); ++i) {
    const EvalCounts& c = results[i];
    std::fprintf(
        json,
        "    {\"kernel\": \"%s\", \"measured_steps\": %zu,\n"
        "     \"evaluations_total\": %llu, \"evaluations_saved_total\": "
        "%llu,\n"
        "     \"integrand_cache_hits_total\": %llu,\n"
        "     \"eval_reduction_vs_naive_pct\": %.2f,\n"
        "     \"gpu_ms_per_step\": %.3f}%s\n",
        kinds[i].c_str(), c.steps,
        static_cast<unsigned long long>(c.evaluations),
        static_cast<unsigned long long>(c.saved),
        static_cast<unsigned long long>(c.cache_hits),
        c.reduction() * 100.0,
        c.gpu_seconds / static_cast<double>(c.steps) * 1e3,
        i + 1 < kinds.size() ? "," : "");
  }
  std::fprintf(json, "  ],\n  \"steady_state\": [\n");
  for (std::size_t i = 0; i < kinds.size(); ++i) {
    const EvalCounts& c = steady[i];
    std::fprintf(
        json,
        "    {\"kernel\": \"%s\", \"measured_steps\": %zu,\n"
        "     \"scratch_grows_steady_state\": %llu, "
        "\"scratch_reuses_total\": %llu}%s\n",
        kinds[i].c_str(), c.steps,
        static_cast<unsigned long long>(c.scratch_grows),
        static_cast<unsigned long long>(c.scratch_reuses),
        i + 1 < kinds.size() ? "," : "");
  }
  std::fprintf(json, "  ]\n}\n");
  std::fclose(json);
  std::printf("\nwrote %s\n", json_path.c_str());

  // --- regression gate -----------------------------------------------------
  int failures = 0;
  for (std::size_t i = 0; i < kinds.size(); ++i) {
    if (results[i].reduction() < 0.25) {
      std::fprintf(stderr,
                   "FAIL %s: eval reduction %.1f%% below the 25%% floor\n",
                   kinds[i].c_str(), results[i].reduction() * 100.0);
      ++failures;
    }
    if (steady[i].scratch_grows != 0) {
      std::fprintf(stderr,
                   "FAIL %s: scratch grew %llu times after warm-up "
                   "(rigid steady state must be allocation-free)\n",
                   kinds[i].c_str(),
                   static_cast<unsigned long long>(steady[i].scratch_grows));
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
    for (std::size_t i = 0; i < kinds.size(); ++i) {
      const long long base =
          bench::baseline_value(baseline, "\"kernel\": \"" + kinds[i] + "\"",
                                "evaluations_total");
      if (base < 0) {
        std::fprintf(stderr, "baseline %s has no evaluations_total for %s\n",
                     baseline_path.c_str(), kinds[i].c_str());
        ++failures;
        continue;
      }
      // Counts are deterministic; 2% slack absorbs intentional re-baselines
      // of neighbouring subsystems, not noise.
      const unsigned long long limit =
          static_cast<unsigned long long>(base) / 100ull * 102ull;
      if (results[i].evaluations > limit) {
        std::fprintf(stderr,
                     "FAIL %s: %llu evaluations exceeds baseline %lld "
                     "(+2%% = %llu)\n",
                     kinds[i].c_str(),
                     static_cast<unsigned long long>(
                         results[i].evaluations),
                     base, limit);
        ++failures;
      }
    }
    std::printf("baseline check vs %s: %s\n", baseline_path.c_str(),
                failures == 0 ? "OK" : "FAILED");
  }
  return failures == 0 ? 0 : 1;
}
