// 64-bit FNV-1a, the one digest behind every persisted hash: scenario
// content hashes and snapshot checksums (scenario::text_digest), the vhash
// of a solve digest (scenario::solve_digest) and journal frame checksums
// (service/journal.cpp). Changing anything here changes bytes on disk.
#pragma once

#include <cstdint>
#include <string_view>

namespace vc2m::util {

inline constexpr std::uint64_t kFnvOffset = 0xCBF29CE484222325ull;
inline constexpr std::uint64_t kFnvPrime = 0x100000001B3ull;

/// FNV-1a over `bytes`.
inline std::uint64_t fnv1a(std::string_view bytes) {
  std::uint64_t h = kFnvOffset;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= kFnvPrime;
  }
  return h;
}

/// One FNV-1a step over the 8 little-endian bytes of `v`.
inline std::uint64_t fnv1a_u64(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xFF;
    h *= kFnvPrime;
  }
  return h;
}

}  // namespace vc2m::util
