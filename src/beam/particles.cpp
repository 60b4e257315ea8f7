#include "beam/particles.hpp"

namespace bd::beam {

void ParticleSet::resize(std::size_t count) {
  s_.resize(count, 0.0);
  y_.resize(count, 0.0);
  ps_.resize(count, 0.0);
  py_.resize(count, 0.0);
}

}  // namespace bd::beam
