#include "simt/report.hpp"


#include "util/table.hpp"

namespace bd::simt {

std::string binding_resource(const KernelMetrics& metrics,
                             const DeviceSpec& spec) {
  const TimeBreakdown tb = model_time(metrics, spec);
  if (tb.total_seconds <= 0.0) return "idle";
  if (tb.total_seconds == tb.compute_seconds) return "compute-bound";
  if (tb.total_seconds == tb.l1_seconds) return "L1-bandwidth-bound";
  if (tb.total_seconds == tb.l2_seconds) return "L2-bandwidth-bound";
  return "DRAM-bound";
}

std::string comparison_report(const std::vector<KernelReportEntry>& kernels,
                              const DeviceSpec& spec) {
  std::vector<std::string> headings{"metric"};
  for (const auto& k : kernels) headings.push_back(k.name);
  util::ConsoleTable table(headings);

  auto row = [&](const std::string& name, auto getter, int precision) {
    table.cell(name);
    for (const auto& k : kernels) table.cell(getter(k.metrics), precision);
    table.end_row();
  };
  row("warp execution eff %",
      [](const KernelMetrics& m) {
        return m.warp_execution_efficiency() * 100.0;
      },
      1);
  row("global load eff %",
      [](const KernelMetrics& m) { return m.global_load_efficiency() * 100.0; },
      1);
  row("L1 hit rate %",
      [](const KernelMetrics& m) { return m.l1_hit_rate() * 100.0; }, 1);
  row("L2 hit rate %",
      [](const KernelMetrics& m) { return m.l2_hit_rate() * 100.0; }, 1);
  row("arithmetic intensity F/B",
      [](const KernelMetrics& m) { return m.arithmetic_intensity(); }, 2);
  row("achieved GFlop/s",
      [](const KernelMetrics& m) { return m.gflops(); }, 0);
  row("modeled time ms",
      [](const KernelMetrics& m) { return m.modeled_seconds * 1e3; }, 3);

  table.cell("binding resource");
  for (const auto& k : kernels) {
    table.cell(binding_resource(k.metrics, spec));
  }
  table.end_row();
  return table.str();
}

}  // namespace bd::simt
