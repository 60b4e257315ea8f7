#pragma once
/// \file rng.hpp
/// Deterministic, seedable random number generation: xoshiro256++ core with
/// SplitMix64 seeding, plus uniform / normal / integer draws. The simulation
/// relies on reproducible streams, so no std::random_device anywhere.

#include <array>
#include <cstdint>

namespace bd::util {

/// SplitMix64 — used to expand a single 64-bit seed into generator state.
/// Also a perfectly fine standalone generator for tests.
class SplitMix64 {
 public:
  explicit SplitMix64(std::uint64_t seed) : state_(seed) {}
  /// Next 64 pseudo-random bits.
  std::uint64_t next();

 private:
  std::uint64_t state_;
};

/// xoshiro256++ by Blackman & Vigna — fast, high-quality, 2^256-1 period.
class Xoshiro256 {
 public:
  using result_type = std::uint64_t;

  explicit Xoshiro256(std::uint64_t seed = 0x9E3779B97F4A7C15ull);

  /// Next 64 pseudo-random bits.
  std::uint64_t next();

  // UniformRandomBitGenerator interface so <random> distributions work too.
  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~0ull; }
  result_type operator()() { return next(); }

  /// Raw generator state, for checkpoint/restart (util/serialize).
  std::array<std::uint64_t, 4> state() const { return s_; }
  void set_state(const std::array<std::uint64_t, 4>& s) { s_ = s; }

 private:
  std::array<std::uint64_t, 4> s_;
};

/// Convenience RNG bundling the common draws used across the library.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 12345) : gen_(seed) {}

  /// Uniform double in [0, 1).
  double uniform();

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);

  /// Standard normal via Box–Muller (cached second deviate).
  double normal();

  /// Normal with given mean and standard deviation.
  double normal(double mean, double stddev) { return mean + stddev * normal(); }

  /// Uniform integer in [0, n).
  std::uint64_t uniform_index(std::uint64_t n);

  /// Raw 64 random bits.
  std::uint64_t bits() { return gen_.next(); }

  /// Complete stream state (generator + Box–Muller cache) so a restored
  /// checkpoint resumes the exact draw sequence.
  struct State {
    std::array<std::uint64_t, 4> s{};
    bool has_cached_normal = false;
    double cached_normal = 0.0;
  };
  State state() const { return {gen_.state(), has_cached_normal_, cached_normal_}; }
  void set_state(const State& state) {
    gen_.set_state(state.s);
    has_cached_normal_ = state.has_cached_normal;
    cached_normal_ = state.cached_normal;
  }

 private:
  Xoshiro256 gen_;
  bool has_cached_normal_ = false;
  double cached_normal_ = 0.0;
};

}  // namespace bd::util
