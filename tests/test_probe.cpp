/// Tests for the LaneProbe instrumentation interface and site ids.

#include <gtest/gtest.h>

#include "simt/device.hpp"
#include "simt/probe.hpp"
#include "simt_oracle.hpp"

namespace bd::simt {
namespace {

TEST(SiteId, StableAndDistinct) {
  constexpr std::uint32_t a = site_id("module/site-a");
  constexpr std::uint32_t b = site_id("module/site-b");
  static_assert(a != b, "distinct names must hash differently");
  EXPECT_EQ(site_id("module/site-a"), a);
  EXPECT_NE(site_id(""), site_id("x"));
}

TEST(NullProbe, IsSharedAndInert) {
  NullProbe& p = NullProbe::instance();
  EXPECT_EQ(&p, &NullProbe::instance());
  // No observable state; just must not crash.
  p.count_flops(5);
  p.load(1, nullptr, 8);
  p.loop_trip(2, 100);
  p.branch(3, true);
  const void* const first = nullptr;
  p.load_groups(1, &first, 1, 3, 512, 24);
}

TEST(CountingProbe, AccumulatesAllKinds) {
  bd::testing::CountingProbe p;
  p.count_flops(10);
  p.count_flops(5);
  p.load(1, nullptr, 24);
  p.load(1, nullptr, 8);
  p.loop_trip(2, 7);
  p.branch(3, false);
  p.branch(3, true);
  EXPECT_EQ(p.flops(), 15u);
  EXPECT_EQ(p.loads(), 2u);
  EXPECT_EQ(p.load_bytes(), 32u);
  EXPECT_EQ(p.loop_iterations(), 7u);
  EXPECT_EQ(p.branches(), 2u);
  p.reset();
  EXPECT_EQ(p.flops(), 0u);
  EXPECT_EQ(p.loads(), 0u);
}

TEST(LaneProbe, GroupsExpandToLoadsInGroupRowOrder) {
  // The default load_groups is `count * rows` load() calls in (group, row)
  // order, row r of group g at firsts[g] + r * row_stride, for a stride up,
  // down (wrapping round 0) and zero.
  const void* const firsts[] = {reinterpret_cast<const void*>(0x1000),
                                reinterpret_cast<const void*>(0x40)};
  for (std::int64_t stride : {std::int64_t{512}, std::int64_t{-200},
                              std::int64_t{0}}) {
    SCOPED_TRACE(::testing::Message() << "stride " << stride);
    bd::testing::LaneTrace trace;
    trace.load_groups(7, firsts, 2, 3, stride, 24);
    ASSERT_EQ(trace.loads().size(), 6u);
    std::size_t k = 0;
    for (const void* first : firsts) {
      for (std::int64_t r = 0; r < 3; ++r, ++k) {
        EXPECT_EQ(trace.loads()[k].site, 7u);
        EXPECT_EQ(trace.loads()[k].bytes, 24u);
        EXPECT_EQ(trace.loads()[k].addr,
                  reinterpret_cast<std::uint64_t>(first) +
                      static_cast<std::uint64_t>(r * stride));
      }
    }
  }
  bd::testing::LaneTrace empty;
  empty.load_groups(7, firsts, 2, 0, 512, 24);
  empty.load_groups(7, firsts, 0, 3, 512, 24);
  EXPECT_TRUE(empty.loads().empty());

  bd::testing::CountingProbe counts;
  counts.load_groups(7, firsts, 2, 3, 512, 24);
  EXPECT_EQ(counts.loads(), 6u);
  EXPECT_EQ(counts.load_bytes(), 6u * 24);
}

TEST(DeviceSpec, K40Defaults) {
  const DeviceSpec spec = tesla_k40();
  EXPECT_EQ(spec.warp_size, 32u);
  EXPECT_EQ(spec.num_sms, 15u);
  EXPECT_DOUBLE_EQ(spec.peak_dp_gflops, 1430.0);
  EXPECT_GT(spec.theoretical_bw_gbs, spec.measured_bw_gbs);
  EXPECT_NEAR(spec.ridge_ai(), 1430.0 / 200.0, 1e-12);
  EXPECT_EQ(spec.l1_bytes, 48u * 1024u);
  EXPECT_EQ(spec.l1_line_bytes, 128u);
  EXPECT_EQ(spec.l2_line_bytes, 32u);
}

TEST(DeviceSpec, TestDeviceIsSmall) {
  const DeviceSpec spec = test_device();
  EXPECT_LT(spec.l1_bytes, tesla_k40().l1_bytes);
  EXPECT_EQ(spec.num_sms, 2u);
}

}  // namespace
}  // namespace bd::simt
