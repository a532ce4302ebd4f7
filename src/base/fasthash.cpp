#include "base/fasthash.hpp"

#include "base/endian.hpp"

namespace repro::base {

namespace {

constexpr std::uint64_t kPrime1 = 0x9E3779B185EBCA87ULL;
constexpr std::uint64_t kPrime2 = 0xC2B2AE3D27D4EB4FULL;
constexpr std::uint64_t kPrime3 = 0x165667B19E3779F9ULL;
constexpr std::uint64_t kPrime4 = 0x85EBCA77C2B2AE63ULL;
constexpr std::uint64_t kPrime5 = 0x27D4EB2F165667C5ULL;

std::uint64_t rotl(std::uint64_t v, int r) {
  return (v << r) | (v >> (64 - r));
}

std::uint64_t read64(const std::uint8_t* p) {
  return load_le<std::uint64_t>(p);
}

std::uint32_t read32(const std::uint8_t* p) {
  return load_le<std::uint32_t>(p);
}

std::uint64_t round_step(std::uint64_t acc, std::uint64_t lane) {
  acc += lane * kPrime2;
  acc = rotl(acc, 31);
  return acc * kPrime1;
}

std::uint64_t merge_round(std::uint64_t acc, std::uint64_t lane) {
  acc ^= round_step(0, lane);
  return acc * kPrime1 + kPrime4;
}

std::uint64_t avalanche(std::uint64_t h) {
  h ^= h >> 33;
  h *= kPrime2;
  h ^= h >> 29;
  h *= kPrime3;
  h ^= h >> 32;
  return h;
}

}  // namespace

std::uint64_t fasthash(const void* data, std::size_t n, std::uint64_t seed) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  const std::uint8_t* const end = p + n;
  std::uint64_t h;

  if (n >= 32) {
    std::uint64_t v1 = seed + kPrime1 + kPrime2;
    std::uint64_t v2 = seed + kPrime2;
    std::uint64_t v3 = seed;
    std::uint64_t v4 = seed - kPrime1;
    do {
      v1 = round_step(v1, read64(p));
      v2 = round_step(v2, read64(p + 8));
      v3 = round_step(v3, read64(p + 16));
      v4 = round_step(v4, read64(p + 24));
      p += 32;
    } while (p + 32 <= end);
    h = rotl(v1, 1) + rotl(v2, 7) + rotl(v3, 12) + rotl(v4, 18);
    h = merge_round(h, v1);
    h = merge_round(h, v2);
    h = merge_round(h, v3);
    h = merge_round(h, v4);
  } else {
    h = seed + kPrime5;
  }

  h += static_cast<std::uint64_t>(n);
  while (p + 8 <= end) {
    h ^= round_step(0, read64(p));
    h = rotl(h, 27) * kPrime1 + kPrime4;
    p += 8;
  }
  if (p + 4 <= end) {
    h ^= static_cast<std::uint64_t>(read32(p)) * kPrime1;
    h = rotl(h, 23) * kPrime2 + kPrime3;
    p += 4;
  }
  while (p < end) {
    h ^= static_cast<std::uint64_t>(*p) * kPrime5;
    h = rotl(h, 11) * kPrime1;
    ++p;
  }
  return avalanche(h);
}

std::uint64_t fasthash64(std::uint64_t value, std::uint64_t seed) {
  std::uint8_t bytes[8];
  store_le(bytes, value);
  return fasthash(bytes, sizeof(bytes), seed);
}

}  // namespace repro::base
