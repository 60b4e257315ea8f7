#include "simt/trace.hpp"

namespace bd::simt {

void LaneTrace::reset() {
  flops_ = 0;
  loads_.clear();
  loops_.clear();
  branches_.clear();
}

}  // namespace bd::simt
