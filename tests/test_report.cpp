/// Tests for the profiler-style report rendering.

#include <gtest/gtest.h>

#include "simt/report.hpp"

namespace bd::simt {
namespace {

KernelMetrics sample_metrics() {
  KernelMetrics m;
  m.flops = 1'000'000;
  m.lane_slots = 1000;
  m.active_lane_slots = 900;
  m.bytes_requested = 500'000;
  m.bytes_transferred = 400'000;
  m.l1 = CacheStats{800, 200};
  m.l2 = CacheStats{600, 200};
  m.dram_bytes = 6400;
  m.modeled_seconds = 1e-5;
  return m;
}

TEST(Report, BindingResourceClassification) {
  const DeviceSpec spec = tesla_k40();

  KernelMetrics compute;
  compute.flops = 1'000'000'000;
  compute.lane_slots = 32;
  compute.active_lane_slots = 32;
  EXPECT_EQ(binding_resource(compute, spec), "compute-bound");

  KernelMetrics dram;
  dram.dram_bytes = 1'000'000'000;
  EXPECT_EQ(binding_resource(dram, spec), "DRAM-bound");

  KernelMetrics l1;
  l1.bytes_transferred = 1'000'000'000;
  EXPECT_EQ(binding_resource(l1, spec), "L1-bandwidth-bound");

  KernelMetrics l2;
  l2.l1.misses = 10'000'000;  // ×128 B through L2
  EXPECT_EQ(binding_resource(l2, spec), "L2-bandwidth-bound");

  EXPECT_EQ(binding_resource(KernelMetrics{}, spec), "idle");
}

TEST(Report, ComparisonReportSideBySide) {
  KernelMetrics a = sample_metrics();
  KernelMetrics b = sample_metrics();
  b.active_lane_slots = 500;
  const std::string r = comparison_report(
      {{"heuristic-rp", a}, {"predictive-rp", b}}, tesla_k40());
  EXPECT_NE(r.find("heuristic-rp"), std::string::npos);
  EXPECT_NE(r.find("predictive-rp"), std::string::npos);
  EXPECT_NE(r.find("warp execution eff %"), std::string::npos);
  EXPECT_NE(r.find("90.0"), std::string::npos);
  EXPECT_NE(r.find("50.0"), std::string::npos);
  EXPECT_NE(r.find("binding resource"), std::string::npos);
}

}  // namespace
}  // namespace bd::simt
