// Little-endian loads and stores at word speed.
//
// Capsules, store headers and XXH64 all read and write integers as
// little-endian bytes. Assembling them with byte shifts is portable but
// GCC does not merge those loops into single loads, so every 8-byte
// word cost an 8-iteration loop. These helpers move the word with one
// memcpy (any alignment) and swap bytes only on a big-endian host, so
// the byte layout is the same everywhere.
#pragma once

#include <bit>
#include <cstddef>
#include <cstring>
#include <type_traits>

namespace repro::base {

/// Reverse the bytes of an unsigned integer.
template <typename T>
[[nodiscard]] constexpr T swap_bytes(T v) noexcept {
  static_assert(std::is_unsigned_v<T>);
  T out = 0;
  for (std::size_t i = 0; i < sizeof(T); ++i) {
    out = static_cast<T>((out << 8) | (v & 0xFFu));
    v = static_cast<T>(v >> 8);
  }
  return out;
}

/// Read a `T` stored little-endian at `p` (no alignment required).
template <typename T>
[[nodiscard]] inline T load_le(const void* p) noexcept {
  static_assert(std::is_unsigned_v<T>);
  T v;
  std::memcpy(&v, p, sizeof(T));
  if constexpr (std::endian::native == std::endian::big) {
    v = swap_bytes(v);
  }
  return v;
}

/// Write `v` little-endian at `p` (no alignment required).
template <typename T>
inline void store_le(void* p, T v) noexcept {
  static_assert(std::is_unsigned_v<T>);
  if constexpr (std::endian::native == std::endian::big) {
    v = swap_bytes(v);
  }
  std::memcpy(p, &v, sizeof(T));
}

}  // namespace repro::base
