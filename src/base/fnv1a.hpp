// FNV-1a 64: the one home of the hash constants.
//
// capsule::Io's state digest (digester(), checkpoint digests, the
// StudyResult digests perfbench pins) folds bytes through this helper,
// and so does every test that cross-checks such a digest; the offset
// basis and prime live here and nowhere else. It is simple,
// byte-order-free and streamable one byte at a time, which is what a
// digest computed primitive by primitive needs. It is not the
// envelope checksum any more: sealed capsules carry the faster seeded
// base::fasthash (base/fasthash.hpp), which also keys the result cache.
#pragma once

#include <cstddef>
#include <cstdint>

namespace repro::base {

inline constexpr std::uint64_t kFnv1aOffset = 0xcbf29ce484222325ULL;
inline constexpr std::uint64_t kFnv1aPrime = 0x00000100000001b3ULL;

/// Fold `n` bytes into an FNV-1a accumulator. Pass a previous return
/// value as `acc` to hash a stream in chunks.
[[nodiscard]] constexpr std::uint64_t fnv1a(const std::uint8_t* p,
                                            std::size_t n,
                                            std::uint64_t acc = kFnv1aOffset) {
  for (std::size_t i = 0; i < n; ++i) {
    acc = (acc ^ p[i]) * kFnv1aPrime;
  }
  return acc;
}

}  // namespace repro::base
