#pragma once
/// \file grid.hpp
/// 2-D data grid of moments (paper's D_k). Row-major storage, rows along
/// the longitudinal coordinate s (fast axis) so stencil rows are
/// contiguous — the layout the GPU kernels coalesce over.

#include <cstdint>
#include <span>
#include <vector>

namespace bd::beam {

/// Geometry of a 2-D grid: N_X × N_Y nodes covering
/// [x0, x0 + (nx-1)·dx] × [y0, y0 + (ny-1)·dy].
struct GridSpec {
  std::uint32_t nx = 0;  ///< nodes along s (fast axis)
  std::uint32_t ny = 0;  ///< nodes along y
  double x0 = 0.0;
  double y0 = 0.0;
  double dx = 0.0;
  double dy = 0.0;

  std::size_t nodes() const {
    return static_cast<std::size_t>(nx) * ny;
  }
  double x_max() const { return x0 + (nx - 1) * dx; }
  double x_at(std::uint32_t ix) const { return x0 + ix * dx; }
  double y_at(std::uint32_t iy) const { return y0 + iy * dy; }
  /// Continuous grid coordinate of physical position x (0 at node 0).
  double gx(double x) const { return (x - x0) / dx; }
  double gy(double y) const { return (y - y0) / dy; }
  bool operator==(const GridSpec&) const = default;
};

/// Build a symmetric grid covering ±half_extent in each direction.
GridSpec make_centered_grid(std::uint32_t nx, std::uint32_t ny,
                            double half_extent_x, double half_extent_y);

/// One scalar field on a GridSpec.
class Grid2D {
 public:
  Grid2D() = default;
  explicit Grid2D(const GridSpec& spec)
      : spec_(spec), data_(spec.nodes(), 0.0) {}

  const GridSpec& spec() const { return spec_; }

  double& at(std::uint32_t ix, std::uint32_t iy) {
    return data_[static_cast<std::size_t>(iy) * spec_.nx + ix];
  }
  double at(std::uint32_t ix, std::uint32_t iy) const {
    return data_[static_cast<std::size_t>(iy) * spec_.nx + ix];
  }

  std::span<double> data() { return data_; }
  std::span<const double> data() const { return data_; }

  void fill(double value);

 private:
  GridSpec spec_;
  std::vector<double> data_;
};

/// Triangular-shaped-cloud (quadratic B-spline) weights for the offset
/// f ∈ [-0.5, 0.5] from the nearest node: w[0] is the node below, w[1] the
/// nearest, w[2] the node above. Weights sum to 1.
inline void tsc_weights(double f, double w[3]) {
  w[0] = 0.5 * (0.5 - f) * (0.5 - f);
  w[1] = 0.75 - f * f;
  w[2] = 0.5 * (0.5 + f) * (0.5 + f);
}

}  // namespace bd::beam
