/// \file wake_batch.cpp
/// Batched (SoA) WakeIntegrand evaluation — WakeIntegrand::eval_batch, the
/// one evaluation path of the rp-integrand.
///
/// Per sample (lane) of a batch:
///  1. Geometry: range test, x grid index, TSC x-weights, time clamp +
///     Lagrange weights, plane row pointers and the radial-kernel pow —
///     everything the scalar form recomputes per inner node is computed
///     once per sample here (the per-node y index, y bounds and TSC
///     y-weights are precomputed at construction). Probe events are
///     emitted lane by lane with the same per-site sequences as the scalar
///     form sampled one separation at a time (flops totals are
///     order-insensitive sums, so one count_flops per sample carries the
///     same information).
///  2. Inner 27-point accumulation (lane_inner_scalar), reading the
///     hoisted geometry.
///
/// Identity contract: bitwise identical to the scalar reference integrand
/// in tests/wake_oracle.hpp — values and probe streams alike. Every hoisted
/// quantity is produced by the expression the reference evaluates, and the
/// accumulation keeps its association order.

#include <cmath>
#include <cstddef>
#include <cstdint>

#include "beam/grid.hpp"
#include "beam/history.hpp"
#include "beam/stencil.hpp"
#include "beam/wake.hpp"
#include "quad/integrand.hpp"
#include "util/check.hpp"

namespace bd::beam {

namespace {

constexpr std::size_t kMaxRows =
    static_cast<std::size_t>(kMaxInnerPoints) * kLoadsPerSample;

/// Geometry of one sample, hoisted out of the inner-node loop. Every field
/// is produced by the same expression the scalar reference evaluates (per
/// inner node there), so consuming it yields the same bits.
struct LaneGeom {
  bool ix_ok = false;
  double wx[3] = {0.0, 0.0, 0.0};
  double l0 = 0.0, l1 = 0.0, l2 = 0.0;
  // Row pointers of every in-bounds inner node, in the scalar reference's
  // (node, plane, row) order; 9 per node.
  const double* rows[kMaxRows];
  std::size_t num_rows = 0;
};

/// Inner accumulation for one lane: the exact op sequence of the scalar
/// reference's inner loop, reading hoisted geometry.
double lane_inner_scalar(const LaneGeom& g, const double* inner_w,
                         const double* inner_wy, const bool* iy_ok, int ic) {
  double inner = 0.0;
  std::size_t j = 0;
  for (int i = 0; i < ic; ++i) {
    double f = 0.0;
    if (g.ix_ok && iy_ok[i]) {
      const double* const* rr = g.rows + 9 * j;
      double fp[3];
      for (int p = 0; p < 3; ++p) {
        double acc = 0.0;
        for (int dy = 0; dy < 3; ++dy) {
          const double* row = rr[3 * p + dy];
          acc += inner_wy[3 * i + dy] *
                 (g.wx[0] * row[0] + g.wx[1] * row[1] + g.wx[2] * row[2]);
        }
        fp[p] = acc;
      }
      f = g.l0 * fp[0] + g.l1 * fp[1] + g.l2 * fp[2];
      ++j;
    }
    inner += inner_w[i] * f;
  }
  return inner;
}

}  // namespace

void WakeIntegrand::eval_batch(const double* u, double* out, std::size_t n,
                               simt::LaneProbe& probe) const {
  BD_DCHECK(n <= quad::kBatchWidth);
  const GridSpec& spec = history_.spec();
  const int ic = inner_count_;
  const std::size_t nx = spec.nx;
  const std::int64_t nx_hi = static_cast<std::int64_t>(spec.nx) - 2;
  const bool* iy_ok = inner_iy_ok_.data();
  bool any_iy_ok = false;
  for (int i = 0; i < ic; ++i) any_iy_ok |= iy_ok[i];

  // Clamp bounds are per-history, not per-sample.
  const std::int64_t newest = history_.latest_step();
  const std::int64_t oldest =
      newest - static_cast<std::int64_t>(history_.depth()) + 1;

  const void* addrs[kMaxRows];

  for (std::size_t k = 0; k < n; ++k) {
    LaneGeom lane;
    const double s = s_point_ - u[k];
    const bool in_range =
        s >= spec.x0 - spec.dx && s <= spec.x_max() + spec.dx;
    probe.branch(kWakeRangeSite, in_range);
    if (!in_range) {
      probe.count_flops(4);
      out[k] = 0.0;
      continue;
    }
    std::uint64_t flops = 4;
    const double gx = spec.gx(s);
    const auto ix = static_cast<std::int64_t>(std::lround(gx));
    lane.ix_ok = ix >= 1 && ix <= nx_hi;
    const double t_steps = static_cast<double>(step_) - u[k] / sub_width_;
    if (lane.ix_ok && any_iy_ok) {
      tsc_weights(gx - static_cast<double>(ix), lane.wx);
      std::int64_t b = static_cast<std::int64_t>(std::floor(t_steps));
      if (b > newest) b = newest;
      if (b - 2 < oldest) b = oldest + 2;
      BD_DCHECK(history_.has_step(b) && history_.has_step(b - 2));
      const double ut = t_steps - static_cast<double>(b);
      lane.l0 = 0.5 * (ut + 1.0) * (ut + 2.0);
      lane.l1 = -ut * (ut + 2.0);
      lane.l2 = 0.5 * ut * (ut + 1.0);
      const double* planes[3] = {history_.plane(b, channel_),
                                 history_.plane(b - 1, channel_),
                                 history_.plane(b - 2, channel_)};
      for (int i = 0; i < ic; ++i) {
        if (!iy_ok[i]) continue;
        const std::int64_t iy = inner_iy_[static_cast<std::size_t>(i)];
        for (int p = 0; p < 3; ++p) {
          const double* base =
              planes[p] + static_cast<std::size_t>(iy - 1) * nx +
              static_cast<std::size_t>(ix - 1);
          lane.rows[lane.num_rows++] = base;
          lane.rows[lane.num_rows++] = base + nx;
          lane.rows[lane.num_rows++] = base + 2 * nx;
        }
      }
    }
    // Per-node bounds branches in node order, then the row loads in the
    // scalar reference's (node, plane, row) order — per-site sequences
    // identical to sampling one separation at a time.
    for (int i = 0; i < ic; ++i) {
      const bool inside = lane.ix_ok && iy_ok[i];
      probe.branch(kStencilBoundsSite, inside);
      if (inside) flops += 12 + 10 + 3 * 18 + 5;
    }
    if (lane.num_rows != 0) {
      for (std::size_t q = 0; q < lane.num_rows; ++q) {
        addrs[q] = history_.probe_address(lane.rows[q]);
      }
      probe.load_run(kStencilRowSite, addrs, 3 * sizeof(double),
                     lane.num_rows);
    }
    flops += 2 * static_cast<std::uint64_t>(ic) + 12;
    probe.count_flops(flops);
    const double kernel = radial_kernel(u[k]);
    const double inner =
        lane_inner_scalar(lane, inner_w_.data(), inner_wy_.data(), iy_ok, ic);
    out[k] = amplitude_ * kernel * inner;
  }
}

}  // namespace bd::beam
