// Byte-serial FNV-1a over 32-bit words: the one fold behind configuration
// digests (drcf::config_digest), image registry keys (mem::image_digest) and
// task-state image digests. Sharing it makes a golden image's digest equal
// its bitstream's config_digest() by construction. Kernel-free.
#pragma once

#include <span>

#include "util/types.hpp"

namespace adriatic {

inline constexpr u64 kFnvSeed = 14695981039346656037ULL;
inline constexpr u64 kFnvPrime = 1099511628211ULL;

/// Folds the four bytes of `w` into `h`, least significant byte first.
[[nodiscard]] constexpr u64 fnv1a_step(u64 h, i32 w) noexcept {
  const u32 v = static_cast<u32>(w);
  for (u32 shift = 0; shift < 32; shift += 8)
    h = (h ^ ((v >> shift) & 0xFFu)) * kFnvPrime;
  return h;
}

/// fnv1a_step() folded over `words` from the FNV offset basis.
[[nodiscard]] constexpr u64 fnv1a_words(std::span<const i32> words) noexcept {
  u64 h = kFnvSeed;
  for (const i32 w : words) h = fnv1a_step(h, w);
  return h;
}

}  // namespace adriatic
