#pragma once
/// \file coalescer.hpp
/// Warp memory coalescing rule: which cache lines one lane access touches.
/// A warp-level load issues one transaction per distinct line its active
/// lanes touch, exactly as the CUDA profiler's gld_efficiency metric
/// models; the warp analyzer (warp.cpp) collects those distinct lines per
/// instruction with this rule.

#include <cstdint>

namespace bd::simt {

/// Call `fn(line)` for the base address of every `line_bytes`-sized line
/// that an access of `bytes` at `addr` touches, in ascending order. An
/// access that straddles a line boundary touches several lines; a
/// zero-byte access touches none. `line_bytes` must be a power of two.
template <typename Fn>
void for_each_line(std::uint64_t addr, std::uint32_t bytes,
                   std::uint32_t line_bytes, Fn&& fn) {
  if (bytes == 0) return;
  const std::uint64_t mask = ~static_cast<std::uint64_t>(line_bytes - 1);
  const std::uint64_t last = (addr + bytes - 1) & mask;
  std::uint64_t line = addr & mask;
  fn(line);
  while (line != last) {  // the access straddles a line boundary
    line += line_bytes;
    fn(line);
  }
}

}  // namespace bd::simt
