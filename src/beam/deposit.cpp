#include "beam/deposit.hpp"

#include <cmath>

#include "util/check.hpp"
#include "util/parallel.hpp"

namespace bd::beam {

namespace {

/// Deposit one particle with TSC weights; returns dropped charge.
inline double deposit_tsc(Grid2D& rho, const GridSpec& spec, double x,
                          double y, double value) {
  const double gx = spec.gx(x);
  const double gy = spec.gy(y);
  const auto ix = static_cast<std::int64_t>(std::lround(gx));
  const auto iy = static_cast<std::int64_t>(std::lround(gy));
  if (ix < 1 || iy < 1 || ix > spec.nx - 2 || iy > spec.ny - 2) return value;
  double wx[3], wy[3];
  tsc_weights(gx - static_cast<double>(ix), wx);
  tsc_weights(gy - static_cast<double>(iy), wy);
  for (int dy = -1; dy <= 1; ++dy) {
    for (int dx = -1; dx <= 1; ++dx) {
      rho.at(static_cast<std::uint32_t>(ix + dx),
             static_cast<std::uint32_t>(iy + dy)) +=
          value * wx[dx + 1] * wy[dy + 1];
    }
  }
  return 0.0;
}

/// Deposit particles [begin, end) into `rho` in particle order.
double deposit_range(const ParticleSet& particles, const GridSpec& spec,
                     double density, std::size_t begin, std::size_t end,
                     Grid2D& rho) {
  const auto s = particles.s();
  const auto y = particles.y();
  double dropped = 0.0;
  for (std::size_t i = begin; i < end; ++i) {
    dropped += deposit_tsc(rho, spec, s[i], y[i], density);
  }
  return dropped;
}

/// Particles per parallel deposition chunk. Fixed (not derived from the
/// thread count) so the chunk boundaries — and therefore the floating-point
/// summation tree — are identical for any BD_NUM_THREADS.
constexpr std::size_t kDepositChunk = 16384;

}  // namespace

double deposit(const ParticleSet& particles, Grid2D& rho) {
  const GridSpec& spec = rho.spec();
  BD_CHECK(spec.nodes() > 0);
  const double density = particles.weight() / (spec.dx * spec.dy);
  const std::size_t count = particles.size();

  const std::size_t num_chunks = (count + kDepositChunk - 1) / kDepositChunk;
  if (num_chunks <= 1) {
    return deposit_range(particles, spec, density, 0, count, rho);
  }

  // Scatter with conflicts: chunks deposit into private partial grids in
  // parallel, then the partials are reduced into `rho` serially in chunk
  // order. Chunking is fixed, so the result is bit-identical for any
  // thread count (though the partial-sum tree differs from a single serial
  // pass by FP rounding).
  std::vector<Grid2D> partial(num_chunks, Grid2D(spec));
  std::vector<double> dropped_per_chunk(num_chunks, 0.0);
  util::parallel_for(0, num_chunks, [&](std::size_t c) {
    const std::size_t begin = c * kDepositChunk;
    const std::size_t end = std::min(count, begin + kDepositChunk);
    dropped_per_chunk[c] =
        deposit_range(particles, spec, density, begin, end, partial[c]);
  });

  double dropped = 0.0;
  auto rho_data = rho.data();
  for (std::size_t c = 0; c < num_chunks; ++c) {
    const auto chunk_data = partial[c].data();
    for (std::size_t n = 0; n < rho_data.size(); ++n) {
      rho_data[n] += chunk_data[n];
    }
    dropped += dropped_per_chunk[c];
  }
  return dropped;
}

void longitudinal_gradient(const Grid2D& rho, Grid2D& out) {
  const GridSpec& spec = rho.spec();
  BD_CHECK(out.spec() == spec);
  const double inv2dx = 1.0 / (2.0 * spec.dx);
  for (std::uint32_t iy = 0; iy < spec.ny; ++iy) {
    out.at(0, iy) = (rho.at(1, iy) - rho.at(0, iy)) * 2.0 * inv2dx;
    for (std::uint32_t ix = 1; ix + 1 < spec.nx; ++ix) {
      out.at(ix, iy) = (rho.at(ix + 1, iy) - rho.at(ix - 1, iy)) * inv2dx;
    }
    out.at(spec.nx - 1, iy) =
        (rho.at(spec.nx - 1, iy) - rho.at(spec.nx - 2, iy)) * 2.0 * inv2dx;
  }
}

}  // namespace bd::beam
