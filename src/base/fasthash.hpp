// Seeded 64-bit fast hash: cache keys and envelope checksums.
//
// This is the XXH64 construction: four parallel 64-bit accumulator
// lanes over 32-byte stripes, a lane merge, a short tail, and a final
// avalanche, with every word read by one little-endian load
// (base/endian.hpp). It runs at memory speed where FNV-1a's byte-serial
// multiply chain does not, so it hashes everything that is long and
// read often: the canonical-config walks behind the result cache's
// keys (seeded with the code salt, src/artifacts/result_store.hpp) and
// every sealed capsule payload (the envelope checksum, seeded with
// capsule::kEnvelopeSeed). FNV-1a remains the state digest of capsule
// walks (base/fnv1a.hpp).
#pragma once

#include <cstddef>
#include <cstdint>

namespace repro::base {

/// Hash `n` bytes with the given seed. Deterministic across hosts (the
/// input is read little-endian), so keys derived from it are portable
/// cache-file names.
[[nodiscard]] std::uint64_t fasthash(const void* data, std::size_t n,
                                     std::uint64_t seed = 0);

/// Hash one 64-bit value, read as its eight little-endian bytes.
[[nodiscard]] std::uint64_t fasthash64(std::uint64_t value,
                                       std::uint64_t seed = 0);

}  // namespace repro::base
