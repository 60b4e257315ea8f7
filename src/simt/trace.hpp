#pragma once
/// \file trace.hpp
/// LaneTrace — a LaneProbe that records the full per-lane event stream so
/// the warp analyzer can reconstruct lockstep execution afterwards.

#include <cstdint>
#include <vector>

#include "simt/probe.hpp"

namespace bd::simt {

/// One recorded global load.
struct LoadEvent {
  std::uint32_t site;    ///< static call-site id
  std::uint32_t bytes;   ///< access width
  std::uint64_t addr;    ///< virtual address
};

/// One recorded loop execution.
struct LoopEvent {
  std::uint32_t site;
  std::uint64_t trips;
};

/// One recorded data-dependent branch.
struct BranchEvent {
  std::uint32_t site;
  bool taken;
};

/// Records every instrumentation event of a single lane, in program order.
class LaneTrace final : public LaneProbe {
 public:
  void count_flops(std::uint64_t n) override { flops_ += n; }

  void load(std::uint32_t site, const void* addr,
            std::uint32_t bytes) override {
    loads_.push_back(LoadEvent{site, bytes,
                               reinterpret_cast<std::uint64_t>(addr)});
  }

  void loop_trip(std::uint32_t site, std::uint64_t trips) override {
    loops_.push_back(LoopEvent{site, trips});
  }

  void branch(std::uint32_t site, bool taken) override {
    branches_.push_back(BranchEvent{site, taken});
  }

  void load_run(std::uint32_t site, const void* const* addrs,
                std::uint32_t bytes, std::size_t count) override {
    // No reserve: exact-size reserve per run would defeat geometric growth.
    for (std::size_t i = 0; i < count; ++i) {
      loads_.push_back(LoadEvent{
          site, bytes, reinterpret_cast<std::uint64_t>(addrs[i])});
    }
  }

  std::uint64_t flops() const { return flops_; }
  const std::vector<LoadEvent>& loads() const { return loads_; }
  const std::vector<LoopEvent>& loops() const { return loops_; }
  const std::vector<BranchEvent>& branches() const { return branches_; }

  /// Clear all recorded events so the trace can be reused for the next lane.
  void reset();

 private:
  std::uint64_t flops_ = 0;
  std::vector<LoadEvent> loads_;
  std::vector<LoopEvent> loops_;
  std::vector<BranchEvent> branches_;
};

}  // namespace bd::simt
