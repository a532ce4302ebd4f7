// base::fnv1a and base::fasthash: the two hash families behind the
// capsule envelope digests (fnv1a) and the result cache's content keys
// (fasthash). Both are pinned to their published reference vectors so a
// refactor that silently changes either would orphan every sealed
// capsule / cached result — that must show up here, not in the field.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <set>
#include <string>
#include <vector>

#include "base/fasthash.hpp"
#include "base/fnv1a.hpp"

namespace repro::base {
namespace {

std::uint64_t fnv1a_str(const std::string& s) {
  return fnv1a(reinterpret_cast<const std::uint8_t*>(s.data()), s.size());
}

TEST(Fnv1a, MatchesPublishedVectors) {
  // The canonical FNV-1a 64 vectors (Fowler/Noll/Vo test suite).
  EXPECT_EQ(fnv1a_str(""), 0xcbf29ce484222325ULL);  // = the offset basis
  EXPECT_EQ(fnv1a_str("a"), 0xaf63dc4c8601ec8cULL);
  EXPECT_EQ(fnv1a_str("foobar"), 0x85944171f73967e8ULL);
}

TEST(Fnv1a, ChainsThroughTheAccumulator) {
  // Hashing "foobar" in one call equals hashing "foo" then continuing
  // with "bar" — the property capsule::Io::digester() relies on when it
  // folds each primitive into a running digest.
  const std::string a = "foo";
  const std::string b = "bar";
  const std::uint64_t partial =
      fnv1a(reinterpret_cast<const std::uint8_t*>(a.data()), a.size());
  const std::uint64_t chained = fnv1a(
      reinterpret_cast<const std::uint8_t*>(b.data()), b.size(), partial);
  EXPECT_EQ(chained, fnv1a_str("foobar"));
}

TEST(Fnv1a, IsConstexpr) {
  constexpr std::uint8_t bytes[] = {'a'};
  constexpr std::uint64_t at_compile_time = fnv1a(bytes, 1);
  static_assert(at_compile_time == 0xaf63dc4c8601ec8cULL);
  EXPECT_EQ(at_compile_time, 0xaf63dc4c8601ec8cULL);
}

TEST(Fasthash, MatchesXxh64ReferenceVectors) {
  // Official XXH64 vectors: the implementation must BE XXH64, not
  // merely something hash-shaped, so stored keys survive rewrites.
  EXPECT_EQ(fasthash("", 0, 0), 0xEF46DB3751D8E999ULL);
  EXPECT_EQ(fasthash("a", 1, 0), 0xD24EC4F1A98C6E5BULL);
  EXPECT_EQ(fasthash("abc", 3, 0), 0x44BC2CF5AD770999ULL);
  // The first official vector long enough to reach the 32-byte stripe
  // loop and all three tail ladders.
  const char* spam = "Nobody inspects the spammish repetition";
  EXPECT_EQ(fasthash(spam, std::strlen(spam), 0), 0xFBCEA83C8A378BF1ULL);
}

TEST(Fasthash, PinnedAtAlignedAndUnalignedOffsets) {
  // Golden outputs over the EveryLengthHashesDistinctly pattern, read
  // from offset 0 and from offset +1, so every word load also runs
  // unaligned. The lengths walk each path: byte tail, u32 tail, u64
  // tail, one stripe plus a byte, a stripe plus every tail, many
  // stripes.
  std::vector<std::uint8_t> buf(1001);
  for (std::size_t i = 0; i < buf.size(); ++i) {
    buf[i] = static_cast<std::uint8_t>(i * 131 + 17);
  }
  struct Golden {
    std::size_t n;
    std::uint64_t aligned;
    std::uint64_t unaligned;
  };
  const Golden goldens[] = {
      {1, 0x2871C2106A98B806ULL, 0xDCBEE680ADBD3976ULL},
      {4, 0x5C36AED1A79BC922ULL, 0x5DFE8BC3009E638DULL},
      {12, 0x5BB09FFB37330703ULL, 0x66D819AEFDE69D98ULL},
      {33, 0x5EF8F229C42EFF97ULL, 0x72713B6179CCF9F8ULL},
      {63, 0xCE628B543F321101ULL, 0x595ECEB83F4EA2F7ULL},
      {1000, 0x47D0ECB63B890730ULL, 0x5875E09232B7240BULL},
  };
  for (const Golden& g : goldens) {
    EXPECT_EQ(fasthash(buf.data(), g.n, 7), g.aligned) << "n=" << g.n;
    EXPECT_EQ(fasthash(buf.data() + 1, g.n, 7), g.unaligned) << "n=" << g.n;
  }
}

TEST(Fasthash, SeedChangesTheHash) {
  // The store's code salt rides in the seed, so a bumped salt must move
  // every key; any two distinct seeds must disagree.
  const char* data = "the same bytes";
  const std::size_t n = std::strlen(data);
  EXPECT_NE(fasthash(data, n, 0), fasthash(data, n, 1));
  EXPECT_NE(fasthash(data, n, 0x0000010000100001ULL), fasthash(data, n, 0));
}

TEST(Fasthash, EveryLengthHashesDistinctly) {
  // Sweep 0..96 bytes of a fixed pattern: crosses the 32-byte stripe
  // boundary, the 8/4/1-byte tail ladders, and never collides. A broken
  // tail loop (the classic port bug) fails here immediately.
  std::vector<std::uint8_t> buf(96);
  for (std::size_t i = 0; i < buf.size(); ++i) {
    buf[i] = static_cast<std::uint8_t>(i * 131 + 17);
  }
  std::set<std::uint64_t> seen;
  for (std::size_t n = 0; n <= buf.size(); ++n) {
    EXPECT_TRUE(seen.insert(fasthash(buf.data(), n, 7)).second)
        << "collision at length " << n;
  }
}

TEST(Fasthash, SingleBitFlipAvalanches) {
  std::vector<std::uint8_t> buf(40, 0xA5);
  const std::uint64_t before = fasthash(buf.data(), buf.size(), 0);
  for (std::size_t i = 0; i < buf.size(); ++i) {
    buf[i] ^= 1;
    EXPECT_NE(fasthash(buf.data(), buf.size(), 0), before)
        << "byte " << i << " did not affect the hash";
    buf[i] ^= 1;
  }
  EXPECT_EQ(fasthash(buf.data(), buf.size(), 0), before);
}

TEST(Fasthash, U64ConvenienceMatchesByteForm) {
  const std::uint64_t value = 0x0123456789ABCDEFULL;
  std::uint8_t bytes[8];
  for (int i = 0; i < 8; ++i) {
    bytes[i] = static_cast<std::uint8_t>(value >> (8 * i));
  }
  EXPECT_EQ(fasthash64(value, 42), fasthash(bytes, 8, 42));
  EXPECT_NE(fasthash64(value, 42), fasthash64(value, 43));
  EXPECT_NE(fasthash64(value, 42), fasthash64(value + 1, 42));
}

}  // namespace
}  // namespace repro::base
