#include "beam/grid.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace bd::beam {

GridSpec make_centered_grid(std::uint32_t nx, std::uint32_t ny,
                            double half_extent_x, double half_extent_y) {
  BD_CHECK(nx >= 2 && ny >= 2);
  BD_CHECK(half_extent_x > 0.0 && half_extent_y > 0.0);
  GridSpec spec;
  spec.nx = nx;
  spec.ny = ny;
  spec.x0 = -half_extent_x;
  spec.y0 = -half_extent_y;
  spec.dx = 2.0 * half_extent_x / (nx - 1);
  spec.dy = 2.0 * half_extent_y / (ny - 1);
  return spec;
}

void Grid2D::fill(double value) {
  std::fill(data_.begin(), data_.end(), value);
}

}  // namespace bd::beam
