#pragma once
/// \file simd.hpp
/// Instruction-set level of the batched evaluation engine, reported in
/// run headers. The engine has one implementation, the SoA-batched scalar
/// path of WakeIntegrand::eval_batch (beam/wake_batch.cpp), so the level
/// is always kScalar.

namespace bd::simd {

/// Instruction-set level the batched kernels run at.
enum class Level : int {
  kScalar = 0,  ///< SoA-batched scalar path
};

inline const char* level_name(Level) { return "scalar"; }

/// The level batched kernels run at.
inline Level active_level() { return Level::kScalar; }

}  // namespace bd::simd
