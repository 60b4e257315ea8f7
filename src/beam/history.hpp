#pragma once
/// \file history.hpp
/// Ring buffer of moment grids over past time steps — the paper's list D of
/// 2-D data grids "stored linearly on the device memory". A single flat
/// allocation backs all slots so the SIMT cache model sees stable,
/// realistic addresses (reuse across lanes and across time steps).

#include <cstdint>
#include <span>
#include <vector>

#include "beam/grid.hpp"

namespace bd::util {
class BinaryWriter;
class BinaryReader;
}  // namespace bd::util

namespace bd::beam {

/// Moment channel indices within a history slot.
enum MomentChannel : std::uint32_t {
  kChannelRho = 0,      ///< deposited charge density
  kChannelDrhoDs = 1,   ///< longitudinal density gradient (current-like)
  kNumChannels = 2,
};

/// Fixed-depth ring of per-step moment grids.
class GridHistory {
 public:
  /// \param depth number of past steps retained; must cover κ+3 so all
  ///        radial subregions can interpolate in time.
  GridHistory(const GridSpec& spec, std::uint32_t depth);

  const GridSpec& spec() const { return spec_; }
  std::uint32_t depth() const { return depth_; }

  /// Steps currently retrievable: (latest_step - depth, latest_step].
  std::int64_t latest_step() const { return latest_step_; }
  bool has_step(std::int64_t step) const;

  /// Copy the given channel grids in as the data for step `step`. Steps
  /// must be pushed in increasing order (gaps are not allowed).
  void push_step(std::int64_t step, const Grid2D& rho, const Grid2D& drho_ds);

  /// Convenience for warm-up: pre-fill every slot (steps
  /// first_step-depth+1 .. first_step) with the same grids — the beam
  /// "arrived in steady state".
  void fill_all(std::int64_t latest_step, const Grid2D& rho,
                const Grid2D& drho_ds);

  /// Base pointer of one channel plane for a retained step.
  const double* plane(std::int64_t step, MomentChannel channel) const;

  /// Pointer to a grid row within a plane (iy row, starting at ix).
  const double* row_ptr(std::int64_t step, MomentChannel channel,
                        std::uint32_t ix, std::uint32_t iy) const;

  /// Stable "device" address of a buffer location for the SIMT cache
  /// replay: a fixed line-aligned base plus the element's offset within
  /// the ring. Identically-configured histories map a location to the
  /// same address no matter where the host allocator (or which thread's
  /// arena) placed the buffer — so modeled coalescing/cache metrics are
  /// bit-identical across Simulation objects, which the fleet's
  /// fleet-vs-solo determinism contract relies on.
  const void* probe_address(const double* element) const {
    constexpr std::uintptr_t kDeviceBase = 0x4000'0000;  // 128B-aligned
    return reinterpret_cast<const void*>(
        kDeviceBase +
        sizeof(double) *
            static_cast<std::uintptr_t>(element - buffer_.data()));
  }

  /// Node value accessor (bounds-checked in debug builds).
  double value(std::int64_t step, MomentChannel channel, std::uint32_t ix,
               std::uint32_t iy) const;

  /// Checkpoint the ring (latest step + every retained plane).
  void save(util::BinaryWriter& out) const;

  /// Restore a checkpointed ring in place. The stored depth and plane size
  /// must match this instance; the backing buffer is not reallocated, so
  /// the SIMT cache model keeps seeing the same addresses after a restore.
  void load(util::BinaryReader& in);

 private:
  std::size_t slot_offset(std::int64_t step, MomentChannel channel) const;

  GridSpec spec_;
  std::uint32_t depth_;
  std::size_t plane_nodes_;
  std::int64_t latest_step_ = -1;
  bool initialized_ = false;
  std::vector<double> buffer_;  // depth * channels * ny * nx
};

}  // namespace bd::beam
