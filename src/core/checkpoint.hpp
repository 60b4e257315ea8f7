#pragma once
/// \file checkpoint.hpp
/// Checkpoint/restart of a full Simulation. A checkpoint captures every
/// piece of cross-step state — particle phase space, the moment-grid
/// history ring, the step counter, the RNG stream, the health monitor and
/// degradation ladder, and each solver's learned state (training window,
/// reused partitions, EMA targets) — so a restored run replays the exact
/// step sequence the uninterrupted run would have produced.
///
/// Files use the checked-file container of util/serialize (magic,
/// version, CRC32, atomic write-rename); see docs/ROBUSTNESS.md for the
/// format layout and version policy.
///
/// Restore requires a Simulation constructed the same way as the saved
/// one: identical SimConfig geometry/seed fields and the same solver
/// lineup (type and order). Every mismatch is diagnosed by field name.
/// A restored run, in place or into a fresh Simulation, replays the SIMT
/// KernelMetrics bit-identically too: the cache replay sees device-virtual
/// addresses (GridHistory::probe_address), not host allocations.

#include <string>

#include "core/simulation.hpp"

namespace bd::core {

/// Checked-file magic "BDCP" and the current payload format version.
inline constexpr std::uint32_t kCheckpointMagic = 0x50434442u;
inline constexpr std::uint32_t kCheckpointVersion = 2;

/// Atomically write `sim`'s complete state to `path`.
/// Throws bd::CheckError on I/O failure (an existing file is untouched).
void save_checkpoint(const Simulation& sim, const std::string& path);

/// Restore `sim` from `path`. `sim` must be compatible (see above); it may
/// be freshly constructed (initialize() not required) or mid-run.
/// Throws bd::CheckError on a missing/corrupt file or any mismatch.
void restore_checkpoint(Simulation& sim, const std::string& path);

}  // namespace bd::core
