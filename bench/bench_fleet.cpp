/// SimulationFleet throughput + determinism benchmark.
///
/// Measures aggregate steps/sec for fleets of 1/2/4/8 independent
/// simulations against the sequential baseline (the same sims run one
/// after another), and verifies the fleet determinism contract: every
/// fleet job's physics digest must equal the digest of the same scenario
/// run alone, at whatever `BD_NUM_THREADS` this binary runs under.
///
/// Writes **BENCH_fleet.json**. With `--check-baseline=<json>` the run
/// gates CI:
///  - the digest check must pass always (any thread count, any core
///    count);
///  - the speedup floor (`min_speedup_pct` at `sims_for_gate` sims) is
///    enforced only when the machine has at least the baseline's
///    `min_hardware_threads` hardware threads — fleet scaling needs real
///    cores, and the contract is meaningless on a 1-core CI box.

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/fleet.hpp"
#include "util/cli.hpp"
#include "util/parallel.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace {

using namespace bd;

struct SoloRun {
  double seconds = 0.0;        ///< build + initialize + all steps
  std::uint32_t digest = 0;    ///< chained physics digest of every step
};

struct FleetRun {
  std::size_t sims = 0;
  double seconds = 0.0;
  double aggregate_rate = 0.0;  ///< total steps / wall seconds
  double speedup = 0.0;         ///< vs running the sims sequentially
  bool deterministic = true;    ///< all digests matched the solo runs
};

core::SimConfig fleet_config(std::uint32_t grid, std::size_t particles,
                             double tolerance, std::uint64_t seed) {
  core::SimConfig config =
      bench::bench_config(grid, particles, tolerance, /*rigid=*/false);
  config.seed = seed;
  return config;
}

std::uint64_t job_seed(std::size_t index) { return 1000 + 17 * index; }

/// One scenario run alone on this thread — the sequential reference.
SoloRun run_solo(std::uint32_t grid, std::size_t particles,
                 double tolerance, std::size_t steps, std::uint64_t seed) {
  util::WallTimer timer;
  core::Simulation sim(
      fleet_config(grid, particles, tolerance, seed),
      bench::make_solver("predictive", simt::tesla_k40()));
  sim.initialize();
  SoloRun out;
  for (std::size_t k = 0; k < steps; ++k) {
    out.digest = core::fleet_digest_step(sim.step(), out.digest);
  }
  out.seconds = timer.seconds();
  return out;
}

FleetRun run_fleet(std::uint32_t grid, std::size_t particles,
                   double tolerance, std::size_t steps, std::size_t sims,
                   const std::vector<SoloRun>& solo,
                   double sequential_seconds_per_sim) {
  FleetRun out;
  out.sims = sims;
  util::WallTimer timer;
  core::FleetOptions options;
  options.quantum_steps = 3;  // a few scheduling rounds per job
  core::SimulationFleet fleet(options);
  std::vector<core::SimulationFleet::JobId> ids;
  for (std::size_t i = 0; i < sims; ++i) {
    core::FleetJobSpec spec;
    spec.name = "sweep" + std::to_string(i);
    const std::uint64_t seed = job_seed(i);
    const std::uint32_t g = grid;
    const std::size_t p = particles;
    const double tol = tolerance;
    spec.factory = [g, p, tol, seed] {
      return std::make_unique<core::Simulation>(
          fleet_config(g, p, tol, seed),
          bench::make_solver("predictive", simt::tesla_k40()));
    };
    spec.target_steps = steps;
    ids.push_back(fleet.submit(std::move(spec)));
  }
  fleet.wait_all();
  out.seconds = timer.seconds();
  out.aggregate_rate =
      static_cast<double>(sims * steps) / (out.seconds > 0 ? out.seconds
                                                           : 1e-9);
  out.speedup = sequential_seconds_per_sim * static_cast<double>(sims) /
                (out.seconds > 0 ? out.seconds : 1e-9);
  for (std::size_t i = 0; i < sims; ++i) {
    const core::FleetJobStatus status = fleet.poll(ids[i]);
    if (status.state != core::FleetJobState::kDone ||
        status.digest != solo[i].digest) {
      out.deterministic = false;
      std::fprintf(stderr,
                   "DETERMINISM VIOLATION: sim %zu fleet digest %08x vs "
                   "solo %08x (state %d)\n",
                   i, status.digest, solo[i].digest,
                   static_cast<int>(status.state));
    }
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  util::ArgParser args("bench_fleet",
                       "Fleet aggregate throughput + determinism gate");
  args.add_int("grid", 16, "grid resolution per sim");
  args.add_int("particles", 4000, "macro-particles per sim");
  args.add_double("tolerance", 1e-5, "rp-integral tolerance τ");
  args.add_int("steps", 6, "steps per simulation");
  args.add_int("max-sims", 8, "largest fleet size (doubling from 1)");
  args.add_string("json", "BENCH_fleet.json", "JSON output path");
  args.add_string("check-baseline", "",
                  "baseline JSON; exit 1 on determinism violation or (with "
                  "enough cores) speedup regression");
  if (!args.parse(argc, argv)) return 0;

  const auto grid = static_cast<std::uint32_t>(args.get_int("grid"));
  const auto particles = static_cast<std::size_t>(args.get_int("particles"));
  const double tolerance = args.get_double("tolerance");
  const auto steps = static_cast<std::size_t>(args.get_int("steps"));
  const auto max_sims = static_cast<std::size_t>(args.get_int("max-sims"));
  const std::size_t pool_threads = util::ThreadPool::global().num_threads();

  std::printf(
      "simulation fleet — %ux%u grid, %zu particles, %zu steps/sim, "
      "%zu pool threads\n\n",
      grid, grid, particles, steps, pool_threads);

  // Sequential reference: each scenario alone, one after another. The
  // digests double as the determinism oracle for every fleet size.
  std::vector<SoloRun> solo;
  double sequential_seconds = 0.0;
  for (std::size_t i = 0; i < max_sims; ++i) {
    solo.push_back(run_solo(grid, particles, tolerance, steps, job_seed(i)));
    sequential_seconds += solo.back().seconds;
  }
  const double seconds_per_sim =
      sequential_seconds / static_cast<double>(max_sims);
  std::printf("sequential: %.3f s/sim, %.1f steps/s aggregate\n\n",
              seconds_per_sim,
              static_cast<double>(steps) / seconds_per_sim);

  util::ConsoleTable table(
      {"sims", "wall s", "agg steps/s", "speedup vs sequential", "digests"});
  std::vector<FleetRun> runs;
  for (std::size_t sims = 1; sims <= max_sims; sims *= 2) {
    const FleetRun run = run_fleet(grid, particles, tolerance, steps, sims,
                                   solo, seconds_per_sim);
    table.cell(static_cast<double>(run.sims), 0)
        .cell(run.seconds, 3)
        .cell(run.aggregate_rate, 1)
        .cell(run.speedup, 2)
        .cell(run.deterministic ? "ok" : "MISMATCH");
    table.end_row();
    runs.push_back(run);
  }
  table.print();

  bool deterministic = true;
  for (const FleetRun& run : runs) deterministic &= run.deterministic;

  const std::string json_path = args.get_string("json");
  FILE* json = std::fopen(json_path.c_str(), "w");
  if (json == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
    return 1;
  }
  std::fprintf(json, "{\n  \"benchmark\": \"fleet\",\n");
  std::fprintf(json,
               "  \"config\": {\"grid\": %u, \"particles\": %zu, "
               "\"tolerance\": %g, \"steps_per_sim\": %zu, "
               "\"pool_threads\": %zu},\n",
               grid, particles, tolerance, steps, pool_threads);
  std::fprintf(json, "  \"sequential_seconds_per_sim\": %.6f,\n",
               seconds_per_sim);
  std::fprintf(json, "  \"deterministic\": %s,\n",
               deterministic ? "true" : "false");
  std::fprintf(json, "  \"fleets\": [\n");
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const FleetRun& run = runs[i];
    std::fprintf(json,
                 "    {\"sims\": %zu, \"wall_seconds\": %.6f, "
                 "\"aggregate_steps_per_sec\": %.2f, "
                 "\"speedup_vs_sequential\": %.3f}%s\n",
                 run.sims, run.seconds, run.aggregate_rate, run.speedup,
                 i + 1 < runs.size() ? "," : "");
  }
  std::fprintf(json, "  ]\n}\n");
  std::fclose(json);
  std::printf("\nwrote %s\n", json_path.c_str());

  const std::string baseline_path = args.get_string("check-baseline");
  if (baseline_path.empty()) return 0;

  // --- gate ----------------------------------------------------------------
  const std::string baseline = bench::read_file(baseline_path);
  if (baseline.empty()) {
    std::fprintf(stderr, "cannot read baseline %s\n", baseline_path.c_str());
    return 1;
  }
  int failures = 0;
  if (!deterministic) {
    std::fprintf(stderr,
                 "FAIL: fleet digests diverged from solo runs (see above)\n");
    ++failures;
  }
  const long long min_threads =
      bench::baseline_value(baseline, "", "min_hardware_threads");
  const long long min_speedup_pct =
      bench::baseline_value(baseline, "", "min_speedup_pct");
  const long long gate_sims =
      bench::baseline_value(baseline, "", "sims_for_gate");
  if (min_threads < 0 || min_speedup_pct < 0 || gate_sims < 0) {
    std::fprintf(stderr, "baseline %s is missing gate fields\n",
                 baseline_path.c_str());
    return 1;
  }
  if (pool_threads < static_cast<std::size_t>(min_threads)) {
    std::printf(
        "speedup gate skipped: %zu pool threads < baseline floor %lld "
        "(digest gate still enforced)\n",
        pool_threads, min_threads);
  } else {
    bool gated = false;
    for (const FleetRun& run : runs) {
      if (run.sims != static_cast<std::size_t>(gate_sims)) continue;
      gated = true;
      const double floor = static_cast<double>(min_speedup_pct) / 100.0;
      if (run.speedup < floor) {
        std::fprintf(stderr,
                     "FAIL: %zu-sim fleet speedup %.2fx below baseline "
                     "floor %.2fx\n",
                     run.sims, run.speedup, floor);
        ++failures;
      } else {
        std::printf("speedup gate ok: %zu sims at %.2fx (floor %.2fx)\n",
                    run.sims, run.speedup, floor);
      }
    }
    if (!gated) {
      std::fprintf(stderr,
                   "FAIL: baseline gates %lld sims but that size was not "
                   "measured (max-sims too small?)\n",
                   gate_sims);
      ++failures;
    }
  }
  if (failures == 0) std::printf("baseline check ok\n");
  return failures == 0 ? 0 : 1;
}
