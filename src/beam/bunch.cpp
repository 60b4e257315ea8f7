#include "beam/bunch.hpp"

#include "util/check.hpp"

namespace bd::beam {

ParticleSet sample_gaussian_bunch(std::size_t count, const BeamParams& params,
                                  util::Rng& rng, double momentum_spread) {
  BD_CHECK(count > 0);
  BD_CHECK(params.sigma_s > 0.0 && params.sigma_y > 0.0);
  ParticleSet particles(count);
  auto s = particles.s();
  auto y = particles.y();
  auto ps = particles.ps();
  auto py = particles.py();
  for (std::size_t i = 0; i < count; ++i) {
    s[i] = rng.normal(0.0, params.sigma_s);
    y[i] = rng.normal(0.0, params.sigma_y);
    if (momentum_spread > 0.0) {
      ps[i] = rng.normal(0.0, momentum_spread * params.sigma_s);
      py[i] = rng.normal(0.0, momentum_spread * params.sigma_y);
    }
  }
  particles.set_weight(params.charge / static_cast<double>(count));
  return particles;
}

}  // namespace bd::beam
