/// \file quickstart.cpp
/// Minimal end-to-end use of the library: build a simulation with the
/// Predictive-RP solver, run a few steps, and print per-step solver
/// statistics plus a validation snapshot against the analytic wake.
///
/// With `--journal <dir>` the run goes through the fleet supervisor
/// instead: the job is journaled and checkpointed into <dir>, a step
/// failure is retried up to `--max-retries` attempts, and re-running the
/// same command after a crash resumes from the last good checkpoint.

#include <cstdio>

#include "beam/analytic.hpp"
#include "core/checkpoint.hpp"
#include "core/fleet.hpp"
#include "core/predictive.hpp"
#include "core/simulation.hpp"
#include "simt/device.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

namespace {

bd::util::ConsoleTable make_step_table() {
  return bd::util::ConsoleTable({"step", "kernel intervals", "fallback items",
                                 "GPU time (model s)", "warp eff %",
                                 "L1 hit %", "AI", "GFlop/s"});
}

void append_step_row(bd::util::ConsoleTable& table,
                     const bd::core::StepStats& stats) {
  const auto& m = stats.longitudinal.metrics;
  table.cell(static_cast<std::int64_t>(stats.step))
      .cell(static_cast<std::int64_t>(stats.longitudinal.kernel_intervals))
      .cell(static_cast<std::int64_t>(stats.longitudinal.fallback_items))
      .cell(stats.longitudinal.gpu_seconds, 5)
      .cell(m.warp_execution_efficiency() * 100.0, 1)
      .cell(m.l1_hit_rate() * 100.0, 1)
      .cell(m.arithmetic_intensity(), 2)
      .cell(m.gflops(), 0);
  table.end_row();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace bd;

  util::ArgParser args("quickstart", "Predictive-RP beam dynamics quickstart");
  args.add_int("particles", 20000, "number of macro-particles");
  args.add_int("grid", 32, "grid resolution (N_X = N_Y)");
  args.add_int("steps", 3, "simulation steps to run");
  args.add_double("tolerance", 1e-6, "rp-integral error tolerance");
  args.add_int("max-retries", 3, "retry attempts under --journal supervision");
  args.add_string("journal", "",
                  "spool/journal dir: run supervised by a SimulationFleet "
                  "(crash-safe journal, checkpoint-based retry, resume)");
  args.add_string("checkpoint", "",
                  "write simulation checkpoints to this path (atomic "
                  "snapshot; see docs/ROBUSTNESS.md)");
  args.add_int("checkpoint-every", 0,
               "checkpoint every N simulation steps (0 = off; needs "
               "--checkpoint)");
  args.add_string("resume", "",
                  "restore the simulation from this checkpoint before "
                  "stepping");
  if (!args.parse(argc, argv)) return 0;

  core::SimConfig config;
  config.particles = static_cast<std::size_t>(args.get_int("particles"));
  config.nx = static_cast<std::uint32_t>(args.get_int("grid"));
  config.ny = config.nx;
  config.tolerance = args.get_double("tolerance");
  config.rigid = true;  // keep the quickstart deterministic and comparable

  const std::string journal_dir = args.get_string("journal");
  if (!journal_dir.empty()) {
    // The supervisor checkpoints into its spool and resumes from it on its
    // own, so the manual checkpoint flags would be silently ignored.
    std::string ignored;
    if (!args.get_string("checkpoint").empty()) ignored += " --checkpoint";
    if (args.get_int("checkpoint-every") != 0) {
      ignored += " --checkpoint-every";
    }
    if (!args.get_string("resume").empty()) ignored += " --resume";
    if (!ignored.empty()) {
      std::fprintf(stderr,
                   "quickstart: --journal checkpoints and resumes the run "
                   "itself; drop%s\n",
                   ignored.c_str());
      return 2;
    }
    // Supervised mode: the fleet journals the job into <journal_dir>,
    // checkpoints it every step, retries step failures from the last
    // checkpoint, and — because submit() adopts an incomplete journaled
    // job of the same name — re-running this command after a crash
    // resumes where the previous process died.
    core::FleetOptions options;
    options.spool_dir = journal_dir;
    options.quantum_steps = 1;
    options.checkpoint_every_quanta = 1;
    core::SimulationFleet fleet(options);
    for (const auto& job : fleet.recovered()) {
      std::printf("journal: job '%s' found at step %llu (digest %08x)\n",
                  job.name.c_str(),
                  static_cast<unsigned long long>(job.checkpoint_step),
                  job.digest);
    }

    util::ConsoleTable table = make_step_table();
    core::FleetJobSpec spec;
    spec.name = "quickstart";
    spec.target_steps = static_cast<std::size_t>(args.get_int("steps"));
    spec.retry.max_attempts =
        static_cast<std::uint32_t>(args.get_int("max-retries"));
    spec.factory = [config]() {
      return std::make_unique<core::Simulation>(
          config, std::make_unique<core::PredictiveSolver>(simt::tesla_k40()));
    };
    spec.on_step = [&table](const core::StepStats& stats) {
      append_step_row(table, stats);
    };

    const core::SimulationFleet::JobId id = fleet.submit(spec);
    const core::FleetJobStatus status = fleet.wait(id);
    fleet.drain();
    table.print();
    std::printf("\njob '%s': %s after %llu/%llu steps, %u retr%s, digest %08x\n",
                spec.name.c_str(),
                status.state == core::FleetJobState::kDone ? "done" : "FAILED",
                static_cast<unsigned long long>(status.steps_done),
                static_cast<unsigned long long>(status.target_steps),
                status.attempts, status.attempts == 1 ? "y" : "ies",
                status.digest);
    if (!status.error.empty()) {
      std::printf("error: %s\n", status.error.c_str());
    }
    return status.state == core::FleetJobState::kDone ? 0 : 1;
  }

  auto solver = std::make_unique<core::PredictiveSolver>(simt::tesla_k40());
  core::Simulation sim(config, std::move(solver));
  const std::string& resume = args.get_string("resume");
  if (!resume.empty()) {
    core::restore_checkpoint(sim, resume);
    std::printf("resumed from %s at step %lld\n", resume.c_str(),
                static_cast<long long>(sim.current_step()));
  } else {
    sim.initialize();
  }

  const std::string& checkpoint = args.get_string("checkpoint");
  const std::int64_t checkpoint_every = args.get_int("checkpoint-every");

  util::ConsoleTable table = make_step_table();
  for (int k = 0; k < args.get_int("steps"); ++k) {
    const core::StepStats stats = sim.step();
    if (!checkpoint.empty() && checkpoint_every > 0 &&
        stats.step % checkpoint_every == 0) {
      core::save_checkpoint(sim, checkpoint);
    }
    append_step_row(table, stats);
  }
  table.print();

  // Compare the computed force along the beam axis with the analytic wake.
  const auto& grid = sim.force_s();
  const beam::GridSpec& spec = grid.spec();
  const std::uint32_t iy = spec.ny / 2;
  std::printf("\n  s        computed     analytic\n");
  for (std::uint32_t ix = 0; ix < spec.nx; ix += spec.nx / 8) {
    const double s = spec.x_at(ix);
    const double computed = grid.at(ix, iy);
    const double analytic =
        beam::analytic_force(s, spec.y_at(iy), sim.config().longitudinal,
                             sim.config().beam, 12.0, 1e-10);
    std::printf("%7.3f  %11.6f  %11.6f\n", s, computed, analytic);
  }
  return 0;
}
