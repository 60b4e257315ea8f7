#pragma once
/// \file probe.hpp
/// LaneProbe — the instrumentation interface every modeled-GPU code path is
/// written against. Algorithm code (quadrature, integrands, kernels) reports
/// its floating-point work, global-memory loads, loop trip counts and
/// branches through this interface; the executor aggregates per-warp
/// divergence and replays memory traffic through the cache model.
///
/// Host-side (CPU) phases use NullProbe, which compiles to no-ops.

#include <cstdint>

namespace bd::simt {

/// Compile-time site identifier: hashes a stable name (FNV-1a) so call sites
/// across translation units cannot collide by accident.
constexpr std::uint32_t site_id(const char* name) {
  std::uint32_t hash = 2166136261u;
  for (const char* p = name; *p; ++p) {
    hash ^= static_cast<std::uint32_t>(*p);
    hash *= 16777619u;
  }
  return hash;
}

/// Per-lane instrumentation sink.
class LaneProbe {
 public:
  virtual ~LaneProbe() = default;

  /// Record `n` double-precision floating point operations.
  virtual void count_flops(std::uint64_t n) = 0;

  /// Record a global-memory load of `bytes` at `addr` issued from static
  /// call site `site`. Lanes of a warp loading at the same (site, occurrence)
  /// are coalesced together.
  virtual void load(std::uint32_t site, const void* addr,
                    std::uint32_t bytes) = 0;

  /// Record that the loop at `site` executed `trips` iterations in this
  /// lane. Divergence = spread of trip counts across the warp.
  virtual void loop_trip(std::uint32_t site, std::uint64_t trips) = 0;

  /// Record the outcome of a data-dependent branch at `site`.
  virtual void branch(std::uint32_t site, bool taken) = 0;

  /// Record `count` same-width loads issued from static site `site`, in
  /// program order. Semantically identical to `count` sequential load()
  /// calls — the default implementation is exactly that loop. Batched
  /// evaluation paths pay one virtual dispatch per sample block instead of
  /// one per row, and the warp analyzer (WarpRecorder) overrides it to
  /// resolve the site once per run; an override must still behave exactly
  /// like the loop.
  virtual void load_run(std::uint32_t site, const void* const* addrs,
                        std::uint32_t bytes, std::size_t count) {
    for (std::size_t i = 0; i < count; ++i) load(site, addrs[i], bytes);
  }
};

/// No-op probe for host-side execution paths.
class NullProbe final : public LaneProbe {
 public:
  void count_flops(std::uint64_t) override {}
  void load(std::uint32_t, const void*, std::uint32_t) override {}
  void loop_trip(std::uint32_t, std::uint64_t) override {}
  void branch(std::uint32_t, bool) override {}
  void load_run(std::uint32_t, const void* const*, std::uint32_t,
                std::size_t) override {}

  /// Shared instance: NullProbe is stateless.
  static NullProbe& instance() {
    static NullProbe probe;
    return probe;
  }
};

}  // namespace bd::simt
