#pragma once
/// \file particles.hpp
/// Structure-of-arrays macro-particle container. Coordinates are the
/// co-moving longitudinal deviation s and the transverse offset y (the 2-D
/// plane of the bend); momenta are the normalized conjugates.

#include <cstddef>
#include <span>
#include <vector>

namespace bd::beam {

/// SoA particle set. All arrays always share the same length.
class ParticleSet {
 public:
  ParticleSet() = default;
  explicit ParticleSet(std::size_t count) { resize(count); }

  void resize(std::size_t count);
  std::size_t size() const { return s_.size(); }
  bool empty() const { return s_.empty(); }

  std::span<double> s() { return s_; }
  std::span<double> y() { return y_; }
  std::span<double> ps() { return ps_; }
  std::span<double> py() { return py_; }
  std::span<const double> s() const { return s_; }
  std::span<const double> y() const { return y_; }
  std::span<const double> ps() const { return ps_; }
  std::span<const double> py() const { return py_; }

  /// Per-macro-particle charge weight (total charge / N).
  double weight() const { return weight_; }
  void set_weight(double w) { weight_ = w; }

 private:
  std::vector<double> s_, y_, ps_, py_;
  double weight_ = 1.0;
};

}  // namespace bd::beam
