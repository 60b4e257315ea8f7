/// Wall-clock scaling of the host-side SIMT executor, two phases:
///
///  1. **Solver scaling** — one Predictive-RP scenario run at 1/2/4/N pool
///     threads. The dominant cost of every step is lane execution inside
///     COMPUTE-RP-INTEGRAL and the adaptive fallback (executor pass 1),
///     which parallelizes over blocks; forecasting and clustering also run
///     on the pool. Results — and every KernelMetrics counter — are
///     bit-for-bit identical across thread counts (see
///     tests/test_determinism.cpp); only the host wall clock moves.
///
///  2. **Sharded cache replay** — the executor's cache replay
///     (simt::replay_caches) in isolation: a deterministic synthetic warp
///     workload (per-SM replay streams) is replayed through per-SM L1s on
///     the pool, then through the shared L2 sharded by set partition, at
///     the same thread counts. Every cache counter is checked bitwise
///     against the 1-thread replay; any drift fails the run regardless of
///     flags.
///
/// Each thread count first runs one untimed solver step (phase 1) on its
/// new pool. Phase 2 takes the counts in turn, once per repetition, each
/// on a new pool after one untimed replay.
///
/// Emits BENCH_scaling.json: per thread count, host seconds per phase and
/// the speedups over the 1-thread run. With
/// `--check-baseline=tools/perf_baseline_scaling.json` the run also
/// enforces the replay-scaling floor: the 1→4-thread replay speedup must
/// reach `min_replay_speedup_pct` — but only on machines with at least
/// `min_hardware_threads` hardware threads (replay scaling needs real
/// cores; the determinism gate always applies).

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "beam/analytic.hpp"
#include "beam/history.hpp"
#include "beam/units.hpp"
#include "bench_common.hpp"
#include "core/predictive.hpp"
#include "simt/device.hpp"
#include "simt/metrics.hpp"
#include "simt/warp.hpp"
#include "util/cli.hpp"
#include "util/parallel.hpp"
#include "util/timer.hpp"

namespace {

using namespace bd;

/// The rp-problem of the benchmark: a continuum-filled Gaussian moment
/// history (no Monte-Carlo noise, so every thread count sees identical
/// work), sized so the kernel dominates.
struct Scenario {
  beam::GridSpec spec;
  beam::BeamParams params;
  beam::WakeModel model;
  beam::Grid2D rho;
  beam::Grid2D grad;
  std::unique_ptr<beam::GridHistory> history;
  core::RpProblem problem;

  explicit Scenario(std::uint32_t n = 48, std::uint32_t subregions = 12)
      : spec(beam::make_centered_grid(n, n, 6.0, 6.0)),
        model(beam::WakeModel::longitudinal()),
        rho(spec),
        grad(spec) {
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
    history = std::make_unique<beam::GridHistory>(spec, subregions + 4);
    history->fill_all(100, rho, grad);
    problem.history = history.get();
    problem.model = &model;
    problem.step = 100;
    problem.sub_width = 1.0;
    problem.num_subregions = subregions;
    problem.tolerance = 1e-6;
  }

  void advance() {
    history->push_step(history->latest_step() + 1, rho, grad);
    problem.step = history->latest_step();
  }
};

struct PhaseSeconds {
  double total = 0.0;      ///< solve() wall
  double kernel = 0.0;     ///< compute-rp-integral + fallback (total - host)
  double forecast = 0.0;
  double clustering = 0.0;
  double train = 0.0;
};

PhaseSeconds run_at(unsigned threads, std::size_t steps) {
  util::ThreadPool::set_global_threads(threads);
  {
    // One untimed step on its own solver warms the new pool: a fresh
    // process can run all its pool threads on one CPU for its first
    // moments.
    Scenario warm_up;
    core::PredictiveSolver(simt::tesla_k40(), {}).solve(warm_up.problem);
  }
  Scenario scenario;
  core::PredictiveSolver solver(simt::tesla_k40(), {});
  PhaseSeconds acc;
  for (std::size_t k = 0; k < steps; ++k) {
    const core::SolveResult r = solver.solve(scenario.problem);
    acc.total += r.wall_seconds;
    acc.forecast += r.forecast_seconds;
    acc.clustering += r.clustering_seconds;
    acc.train += r.train_seconds;
    acc.kernel += r.wall_seconds - r.forecast_seconds -
                  r.clustering_seconds - r.train_seconds;
    scenario.advance();
  }
  return acc;
}

// ---- phase 2: sharded cache replay ---------------------------------------

/// Deterministic synthetic warp workload for executor pass 2: per-SM
/// replay streams mixing strided sweeps (coalesced, cache-friendly) with
/// LCG-scattered lines (thrashy), so both L1 and L2 do real work.
struct ReplayWorkload {
  simt::DeviceSpec spec;
  std::size_t warps_per_sm;
  /// streams[sm] — the warps resident on that SM, replay order.
  std::vector<std::vector<simt::WarpReplay>> streams;

  explicit ReplayWorkload(std::size_t warps,
                          std::size_t instructions_per_warp)
      : spec(simt::tesla_k40()), warps_per_sm(warps), streams(spec.num_sms) {
    std::uint64_t lcg = 0x243f6a8885a308d3ull;  // fixed seed: deterministic
    const std::uint64_t line = spec.l1_line_bytes;
    simt::StreamWriter writer(spec.l1_line_bytes);
    std::vector<std::uint64_t> lines;
    for (std::uint32_t sm = 0; sm < spec.num_sms; ++sm) {
      streams[sm].reserve(warps_per_sm);
      for (std::size_t w = 0; w < warps_per_sm; ++w) {
        // Each warp sweeps its own window; every 4th instruction scatters.
        const std::uint64_t base = (sm * warps_per_sm + w) * 512 * line;
        for (std::size_t i = 0; i < instructions_per_warp; ++i) {
          lines.clear();
          if (i % 4 == 3) {
            for (int k = 0; k < 8; ++k) {
              lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
              lines.push_back(((lcg >> 20) % (1u << 16)) * line);
            }
            // A load's lines are distinct and ascending, as a warp's
            // coalescer leaves them.
            std::sort(lines.begin(), lines.end());
            lines.erase(std::unique(lines.begin(), lines.end()), lines.end());
          } else {
            for (int k = 0; k < 4; ++k) {
              lines.push_back(base + (i * 4 + k) * line);
            }
          }
          writer.add(lines.data(), lines.size());
        }
        streams[sm].push_back(writer.take());
      }
    }
  }
};

/// The cache replay of the workload at the current pool width, through the
/// two stages simt::launch uses, with every warp of an SM co-resident.
simt::KernelMetrics replay_once(const ReplayWorkload& work) {
  return simt::replay_caches(work.spec, work.streams, work.warps_per_sm);
}

/// Cache counters that must be bitwise identical across thread counts.
bool same_counters(const simt::KernelMetrics& a,
                   const simt::KernelMetrics& b) {
  return a.l1.hits == b.l1.hits && a.l1.misses == b.l1.misses &&
         a.l2.hits == b.l2.hits && a.l2.misses == b.l2.misses &&
         a.dram_bytes == b.dram_bytes;
}

struct ReplayResult {
  double seconds = 0.0;  ///< best-of-reps replay wall
  simt::KernelMetrics metrics;
};

/// Best-of-`reps` replay wall at each thread count. The counts take turns:
/// each repetition times every count once, each on a new pool after one
/// untimed replay, so a stretch of time short of CPUs hits every count
/// alike instead of all the repetitions of one.
std::vector<ReplayResult> replay_at(const std::vector<unsigned>& counts,
                                    const ReplayWorkload& work,
                                    std::size_t reps) {
  std::vector<ReplayResult> out(counts.size());
  for (ReplayResult& r : out) r.seconds = 1e300;
  for (std::size_t rep = 0; rep < reps; ++rep) {
    for (std::size_t i = 0; i < counts.size(); ++i) {
      util::ThreadPool::set_global_threads(counts[i]);
      replay_once(work);  // untimed: warms the new pool
      util::WallTimer timer;
      out[i].metrics = replay_once(work);
      out[i].seconds = std::min(out[i].seconds, timer.seconds());
    }
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  util::ArgParser args("bench_scaling",
                       "SIMT executor thread scaling: solver + cache replay");
  args.add_int("steps", 4, "phase-1 solver steps (bootstrap + predictive)");
  args.add_int("replay-warps", 96, "phase-2 warps per SM");
  args.add_int("replay-instructions", 256, "phase-2 instructions per warp");
  args.add_int("replay-reps", 3, "phase-2 timed repetitions (best-of)");
  args.add_string("json", "BENCH_scaling.json", "JSON output path");
  args.add_string("check-baseline", "",
                  "baseline JSON; exit 1 on replay-determinism violation or "
                  "(with enough cores) below the replay speedup floor");
  if (!args.parse(argc, argv)) return 0;

  const auto steps = static_cast<std::size_t>(args.get_int("steps"));
  const auto replay_warps =
      static_cast<std::size_t>(args.get_int("replay-warps"));
  const auto replay_instr =
      static_cast<std::size_t>(args.get_int("replay-instructions"));
  const auto replay_reps =
      static_cast<std::size_t>(args.get_int("replay-reps"));

  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  std::vector<unsigned> counts{1, 2, 4};
  if (std::find(counts.begin(), counts.end(), hw) == counts.end()) {
    counts.push_back(hw);
  }
  std::sort(counts.begin(), counts.end());

  // --- phase 1: full predictive solver -------------------------------------
  std::printf("SIMT executor scaling — Predictive-RP, %zu steps, "
              "%u hardware threads\n\n", steps, hw);
  std::printf("%8s  %10s  %10s  %10s  %10s  %10s  %8s\n", "threads",
              "total s", "kernel s", "forecast s", "cluster s", "train s",
              "speedup");

  std::vector<PhaseSeconds> results;
  for (unsigned t : counts) results.push_back(run_at(t, steps));

  const double kernel_1t = results.front().kernel;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    const PhaseSeconds& r = results[i];
    std::printf("%8u  %10.4f  %10.4f  %10.4f  %10.4f  %10.4f  %7.2fx\n",
                counts[i], r.total, r.kernel, r.forecast, r.clustering,
                r.train, kernel_1t / std::max(1e-12, r.kernel));
  }

  // --- phase 2: sharded cache replay ---------------------------------------
  std::printf("\nsharded cache replay — %u SMs, %zu warps/SM, %zu instr/warp, "
              "best of %zu\n\n",
              simt::tesla_k40().num_sms, replay_warps, replay_instr,
              replay_reps);
  std::printf("%8s  %12s  %8s  %s\n", "threads", "replay s", "speedup",
              "counters");
  ReplayWorkload work(replay_warps, replay_instr);
  const std::vector<ReplayResult> replay =
      replay_at(counts, work, replay_reps);
  util::ThreadPool::set_global_threads(0);

  int failures = 0;
  const double replay_1t = replay.front().seconds;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    const ReplayResult& r = replay[i];
    const bool same = same_counters(r.metrics, replay.front().metrics);
    std::printf("%8u  %12.5f  %7.2fx  %s\n", counts[i], r.seconds,
                replay_1t / std::max(1e-12, r.seconds),
                same ? "identical" : "DRIFTED");
    if (!same) {
      std::fprintf(stderr,
                   "FAIL: replay counters at %u threads differ from the "
                   "1-thread replay (sharded merge must be deterministic)\n",
                   counts[i]);
      ++failures;
    }
  }

  // --- JSON -----------------------------------------------------------------
  const std::string json_path = args.get_string("json");
  FILE* json = std::fopen(json_path.c_str(), "w");
  if (json == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
    return 1;
  }
  std::fprintf(json, "{\n  \"benchmark\": \"simt-executor-scaling\",\n");
  std::fprintf(json, "  \"scenario\": \"predictive-rp 48x48, 12 subregions, "
                     "%zu steps\",\n", steps);
  std::fprintf(json, "  \"hardware_concurrency\": %u,\n", hw);
  std::fprintf(json, "  \"phase\": \"COMPUTE-RP-INTEGRAL (kernel column = "
                     "compute-rp-integral + adaptive fallback host "
                     "seconds)\",\n");
  std::fprintf(json, "  \"runs\": [\n");
  for (std::size_t i = 0; i < counts.size(); ++i) {
    const PhaseSeconds& r = results[i];
    std::fprintf(json,
                 "    {\"threads\": %u, \"total_seconds\": %.6f, "
                 "\"kernel_seconds\": %.6f, \"forecast_seconds\": %.6f, "
                 "\"clustering_seconds\": %.6f, \"train_seconds\": %.6f, "
                 "\"kernel_speedup_vs_1t\": %.4f}%s\n",
                 counts[i], r.total, r.kernel, r.forecast, r.clustering,
                 r.train, kernel_1t / std::max(1e-12, r.kernel),
                 i + 1 < counts.size() ? "," : "");
  }
  std::fprintf(json, "  ],\n");
  std::fprintf(json,
               "  \"replay_workload\": {\"warps_per_sm\": %zu, "
               "\"instructions_per_warp\": %zu, \"reps\": %zu},\n",
               replay_warps, replay_instr, replay_reps);
  std::fprintf(json, "  \"replay_runs\": [\n");
  for (std::size_t i = 0; i < counts.size(); ++i) {
    const ReplayResult& r = replay[i];
    std::fprintf(json,
                 "    {\"threads\": %u, \"replay_seconds\": %.6f, "
                 "\"replay_speedup_vs_1t\": %.4f, "
                 "\"counters_identical\": %d}%s\n",
                 counts[i], r.seconds,
                 replay_1t / std::max(1e-12, r.seconds),
                 same_counters(r.metrics, replay.front().metrics) ? 1 : 0,
                 i + 1 < counts.size() ? "," : "");
  }
  std::fprintf(json, "  ]\n}\n");
  std::fclose(json);
  std::printf("\nwrote %s\n", json_path.c_str());
  if (hw == 1) {
    std::printf("note: single hardware thread — speedups are bounded by "
                "1.0 here; run on a multi-core host to see scaling.\n");
  }

  // --- regression gate ------------------------------------------------------
  const std::string baseline_path = args.get_string("check-baseline");
  if (!baseline_path.empty()) {
    const std::string baseline = bench::read_file(baseline_path);
    if (baseline.empty()) {
      std::fprintf(stderr, "cannot read baseline %s\n", baseline_path.c_str());
      return 1;
    }
    const long long min_hw =
        bench::baseline_value(baseline, "", "min_hardware_threads");
    const long long floor_pct =
        bench::baseline_value(baseline, "", "min_replay_speedup_pct");
    if (min_hw < 0 || floor_pct < 0) {
      std::fprintf(stderr, "baseline %s is missing gate fields\n",
                   baseline_path.c_str());
      ++failures;
    } else if (hw < static_cast<unsigned>(min_hw)) {
      std::printf("replay speedup floor skipped: %u hardware threads < "
                  "baseline floor %lld (determinism still enforced)\n",
                  hw, min_hw);
    } else {
      const auto at4 = std::find(counts.begin(), counts.end(), 4u);
      const double speedup =
          at4 == counts.end()
              ? 0.0
              : replay_1t /
                    std::max(1e-12,
                             replay[static_cast<std::size_t>(
                                        at4 - counts.begin())].seconds);
      if (speedup * 100.0 < static_cast<double>(floor_pct)) {
        std::fprintf(stderr,
                     "FAIL: 1->4-thread replay speedup %.2fx below the "
                     "baseline floor %.2fx\n",
                     speedup, static_cast<double>(floor_pct) / 100.0);
        ++failures;
      }
    }
    std::printf("baseline check vs %s: %s\n", baseline_path.c_str(),
                failures == 0 ? "OK" : "FAILED");
  }
  return failures == 0 ? 0 : 1;
}
