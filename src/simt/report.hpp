#pragma once
/// \file report.hpp
/// Profiler-style report rendering: side-by-side comparisons of several
/// kernels' KernelMetrics in the layout of the paper's Table I (whose
/// numbers come from the NVIDIA profiler), and the binding resource.

#include <string>
#include <vector>

#include "simt/device.hpp"
#include "simt/metrics.hpp"
#include "simt/timemodel.hpp"

namespace bd::simt {

/// One named kernel measurement for a comparison report.
struct KernelReportEntry {
  std::string name;
  KernelMetrics metrics;
};

/// Render a side-by-side comparison table of several kernels (one column
/// per kernel), the layout of the paper's Table I.
std::string comparison_report(const std::vector<KernelReportEntry>& kernels,
                              const DeviceSpec& spec);

/// Short classification of what bounds the kernel ("compute-bound",
/// "L1-bandwidth-bound", "L2-bandwidth-bound", "DRAM-bound").
std::string binding_resource(const KernelMetrics& metrics,
                             const DeviceSpec& spec);

}  // namespace bd::simt
