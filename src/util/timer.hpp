#pragma once
/// \file timer.hpp
/// Wall-clock timer for host-side phase timing (clustering, training, ...).

#include <chrono>

namespace bd::util {

/// Simple monotonic wall-clock stopwatch.
class WallTimer {
 public:
  WallTimer() { reset(); }

  /// Restart the stopwatch.
  void reset() { start_ = clock::now(); }

  /// Seconds since construction or last reset().
  double seconds() const {
    return std::chrono::duration<double>(clock::now() - start_).count();
  }

 private:
  using clock = std::chrono::steady_clock;
  clock::time_point start_;
};

}  // namespace bd::util
