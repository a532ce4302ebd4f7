#include "base/capsule.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "base/fasthash.hpp"
#include "base/fnv1a.hpp"

namespace repro::capsule {
namespace {

enum class Flavor : std::uint8_t { kPlain = 1, kFancy = 7 };

/// A struct exercising every Io primitive through the one-walk idiom
/// the real components use.
struct Blob {
  std::uint8_t a = 0;
  std::uint16_t b = 0;
  std::uint32_t c = 0;
  std::uint64_t d = 0;
  std::int64_t e = 0;
  double f = 0.0;
  bool g = false;
  std::string h;
  Flavor flavor = Flavor::kPlain;
  std::vector<std::uint32_t> items;

  void serialize(Io& io) {
    io.u8(a);
    io.u16(b);
    io.u32(c);
    io.u64(d);
    io.i64(e);
    io.f64(f);
    io.boolean(g);
    io.str(h);
    io.enum32(flavor);
    const std::uint64_t n = io.extent(items.size());
    if (io.loading()) {
      items.assign(static_cast<std::size_t>(n), 0);
    }
    for (std::uint32_t& item : items) {
      io.u32(item);
    }
  }
};

Blob sample_blob() {
  Blob blob;
  blob.a = 0xA5;
  blob.b = 0xBEEF;
  blob.c = 0xDEADBEEF;
  blob.d = 0x0123456789ABCDEFULL;
  blob.e = -42;
  blob.f = 0.1;
  blob.g = true;
  blob.h = "nine sessions";
  blob.flavor = Flavor::kFancy;
  blob.items = {1, 2, 3, 0xFFFFFFFF};
  return blob;
}

TEST(CapsuleIo, PrimitivesRoundTrip) {
  Blob out = sample_blob();
  Io saver = Io::saver();
  out.serialize(saver);

  Blob in;
  Io loader = Io::loader(saver.bytes());
  in.serialize(loader);

  EXPECT_EQ(in.a, out.a);
  EXPECT_EQ(in.b, out.b);
  EXPECT_EQ(in.c, out.c);
  EXPECT_EQ(in.d, out.d);
  EXPECT_EQ(in.e, out.e);
  EXPECT_EQ(in.f, out.f);
  EXPECT_EQ(in.g, out.g);
  EXPECT_EQ(in.h, out.h);
  EXPECT_EQ(in.flavor, out.flavor);
  EXPECT_EQ(in.items, out.items);
  EXPECT_TRUE(loader.exhausted());
}

TEST(CapsuleIo, DoublesKeepTheirExactBitPattern) {
  // NaN payloads and negative zero don't survive value comparison, so
  // the walk must transport the raw bit pattern.
  const std::uint64_t nan_bits = 0x7FF8DEADBEEF1234ULL;
  double out = std::bit_cast<double>(nan_bits);
  Io saver = Io::saver();
  saver.f64(out);

  double in = 0.0;
  Io loader = Io::loader(saver.bytes());
  loader.f64(in);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(in), nan_bits);

  double zero = -0.0;
  Io saver2 = Io::saver();
  saver2.f64(zero);
  double back = 0.0;
  Io loader2 = Io::loader(saver2.bytes());
  loader2.f64(back);
  EXPECT_TRUE(std::signbit(back));
}

TEST(CapsuleIo, SaverDigestEqualsDigesterDigest) {
  // The contract the whole checkpoint design leans on: digesting in
  // place sees exactly the bytes a save would encode.
  Blob blob = sample_blob();
  Io saver = Io::saver();
  blob.serialize(saver);
  Io digester = Io::digester();
  blob.serialize(digester);
  EXPECT_EQ(saver.digest(), digester.digest());
  EXPECT_TRUE(digester.bytes().empty());
}

std::string hex(const std::vector<std::uint8_t>& bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  for (const std::uint8_t b : bytes) {
    out += kDigits[b >> 4];
    out += kDigits[b & 0xF];
  }
  return out;
}

TEST(CapsuleIo, GoldenBytes) {
  // The exact little-endian byte stream of every primitive, and its
  // FNV-1a digest. A codec rewrite that moves one byte orphans every
  // checkpoint and every StudyResult digest pinned elsewhere.
  Blob blob = sample_blob();
  Io saver = Io::saver();
  blob.serialize(saver);
  EXPECT_EQ(hex(saver.bytes()),
            "a5"                                    // u8
            "efbe"                                  // u16
            "efbeadde"                              // u32
            "efcdab8967452301"                      // u64
            "d6ffffffffffffff"                      // i64 -42
            "9a9999999999b93f"                      // f64 0.1
            "01"                                    // bool
            "0d00000000000000" "6e696e652073657373696f6e73"  // str
            "07000000"                              // enum32
            "0400000000000000"                      // extent
            "01000000" "02000000" "03000000" "ffffffff");
  Io digester = Io::digester();
  blob.serialize(digester);
  EXPECT_EQ(digester.digest(), 0x49E6ADD86771E5E7ULL);
}

TEST(CapsuleIo, TruncationAtEveryPrimitiveWidthThrows) {
  // One byte short of each primitive's width must throw, never read
  // past the payload.
  const auto short_by_one = [](std::size_t width) {
    return Io::loader(std::vector<std::uint8_t>(width - 1, 0xFF));
  };
  std::uint8_t u8 = 0;
  std::uint16_t u16 = 0;
  std::uint32_t u32 = 0;
  std::uint64_t u64 = 0;
  std::int64_t i64 = 0;
  double f64 = 0.0;
  bool flag = false;
  Flavor flavor = Flavor::kPlain;
  std::string str;
  Io io = short_by_one(1);
  EXPECT_THROW(io.u8(u8), CapsuleError);
  io = short_by_one(1);
  EXPECT_THROW(io.boolean(flag), CapsuleError);
  io = short_by_one(2);
  EXPECT_THROW(io.u16(u16), CapsuleError);
  io = short_by_one(4);
  EXPECT_THROW(io.u32(u32), CapsuleError);
  io = short_by_one(4);
  EXPECT_THROW(io.enum32(flavor), CapsuleError);
  io = short_by_one(8);
  EXPECT_THROW(io.u64(u64), CapsuleError);
  io = short_by_one(8);
  EXPECT_THROW(io.i64(i64), CapsuleError);
  io = short_by_one(8);
  EXPECT_THROW(io.f64(f64), CapsuleError);
  io = short_by_one(8);
  EXPECT_THROW(io.str(str), CapsuleError);
  io = short_by_one(8);
  EXPECT_THROW((void)io.extent(0), CapsuleError);
  // And a walk cut anywhere inside a whole blob throws too.
  Blob blob = sample_blob();
  Io saver = Io::saver();
  blob.serialize(saver);
  for (std::size_t keep = 0; keep < saver.bytes().size(); ++keep) {
    Blob back;
    Io loader = Io::loader(
        {saver.bytes().begin(),
         saver.bytes().begin() + static_cast<std::ptrdiff_t>(keep)});
    EXPECT_THROW(back.serialize(loader), CapsuleError) << "kept " << keep;
  }
}

TEST(CapsuleIo, DigestDiscriminatesContent) {
  Blob a = sample_blob();
  Blob b = sample_blob();
  b.items.back() ^= 1;
  Io da = Io::digester();
  a.serialize(da);
  Io db = Io::digester();
  b.serialize(db);
  EXPECT_NE(da.digest(), db.digest());
}

TEST(CapsuleIo, RejectsCorruptBoolEncoding) {
  Io loader = Io::loader({2});
  bool value = false;
  EXPECT_THROW(loader.boolean(value), CapsuleError);
}

TEST(CapsuleIo, RejectsTruncatedPayload) {
  Io loader = Io::loader({0x01, 0x02});
  std::uint32_t value = 0;
  EXPECT_THROW(loader.u32(value), CapsuleError);
}

TEST(CapsuleIo, RejectsStringPastPayloadEnd) {
  // Length prefix claims 5 bytes; only 2 follow.
  std::vector<std::uint8_t> payload = {5, 0, 0, 0, 0, 0, 0, 0, 'a', 'b'};
  Io loader = Io::loader(std::move(payload));
  std::string value;
  EXPECT_THROW(loader.str(value), CapsuleError);
}

TEST(CapsuleIo, RejectsElementCountPastPayloadEnd) {
  // A count of 3 with 3 bytes after it is plausible; 4 is not, since
  // every walked element encodes at least one byte.
  std::vector<std::uint8_t> payload = {3, 0, 0, 0, 0, 0, 0, 0, 'a', 'b', 'c'};
  Io plausible = Io::loader(payload);
  EXPECT_EQ(plausible.extent(0), 3u);
  payload[0] = 4;
  Io loader = Io::loader(std::move(payload));
  EXPECT_THROW((void)loader.extent(0), CapsuleError);
}

TEST(CapsuleIo, ElementMinimumTightensTheCountBound) {
  // Three u64 elements cannot fit in 16 bytes, although three 1-byte
  // elements could: the element minimum rejects the count up front.
  std::vector<std::uint8_t> payload(8 + 16, 0);
  payload[0] = 3;
  Io lax = Io::loader(payload);
  EXPECT_EQ(lax.extent(0), 3u);
  Io strict = Io::loader(payload);
  EXPECT_THROW((void)strict.extent(0, 8), CapsuleError);
  payload[0] = 2;
  Io fits = Io::loader(std::move(payload));
  EXPECT_EQ(fits.extent(0, 8), 2u);
}

TEST(CapsuleIo, EncodedSizeOfAValueInitialisedWalk) {
  // Blob{}: u8 u16 u32 u64 i64 f64 bool, an empty string and an empty
  // vector (length and count prefixes), an enum.
  EXPECT_EQ(encoded_size<Blob>(), 1u + 2 + 4 + 8 + 8 + 8 + 1 + 8 + 4 + 8);
}

TEST(CapsuleIo, ExtentLeavesSaverCountsAlone) {
  Io saver = Io::saver();
  EXPECT_EQ(saver.extent(1u << 20), 1u << 20);
}

TEST(CapsuleIo, ExhaustedTracksConsumption) {
  Io saver = Io::saver();
  std::uint64_t value = 7;
  saver.u64(value);
  Io loader = Io::loader(saver.bytes());
  EXPECT_FALSE(loader.exhausted());
  std::uint64_t back = 0;
  loader.u64(back);
  EXPECT_TRUE(loader.exhausted());
}

TEST(CapsuleEnvelope, SealUnsealRoundTrip) {
  const std::vector<std::uint8_t> payload = {1, 2, 3, 4, 5};
  EXPECT_EQ(unseal(seal(payload)), payload);
  EXPECT_EQ(unseal(seal({})), std::vector<std::uint8_t>{});
}

TEST(CapsuleEnvelope, RejectsBadMagic) {
  std::vector<std::uint8_t> sealed = seal({1, 2, 3});
  sealed[0] = 'G';
  EXPECT_THROW((void)unseal(sealed), CapsuleError);
}

TEST(CapsuleEnvelope, RejectsVersionSkew) {
  // The u32 format version sits right after the 8-byte magic.
  std::vector<std::uint8_t> sealed = seal({1, 2, 3});
  sealed[8] = static_cast<std::uint8_t>(kFormatVersion + 1);
  EXPECT_THROW((void)unseal(sealed), CapsuleError);
}

TEST(CapsuleEnvelope, RejectsTruncation) {
  std::vector<std::uint8_t> sealed = seal({1, 2, 3});
  sealed.pop_back();
  EXPECT_THROW((void)unseal(sealed), CapsuleError);
  EXPECT_THROW((void)unseal({sealed.begin(), sealed.begin() + 4}),
               CapsuleError);
}

TEST(CapsuleEnvelope, RejectsPayloadCorruption) {
  // Flip one bit of each payload byte in turn; the trailing checksum
  // must catch every one. 100 bytes reach XXH64's 32-byte stripes and
  // each of its tails.
  std::vector<std::uint8_t> payload(100);
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<std::uint8_t>(i * 7 + 3);
  }
  const std::vector<std::uint8_t> sealed = seal(payload);
  for (std::size_t i = 0; i < payload.size(); ++i) {
    std::vector<std::uint8_t> flipped = sealed;
    flipped[8 + 4 + 8 + i] ^= 0x40;
    EXPECT_THROW((void)unseal(flipped), CapsuleError) << "byte " << i;
  }
}

TEST(CapsuleEnvelope, RejectsAVersion2Envelope) {
  // A well-formed version-2 envelope: the same header and payload,
  // version field 2, and the FNV-1a trailer that version wrote. It is
  // intact by its own rules, and this build must still refuse it.
  const std::vector<std::uint8_t> payload = {1, 2, 3, 4, 5};
  std::vector<std::uint8_t> v2 = seal(payload);
  v2[8] = 2;
  const std::uint64_t fnv = base::fnv1a(payload.data(), payload.size());
  for (int i = 0; i < 8; ++i) {
    v2[v2.size() - 8 + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(fnv >> (8 * i));
  }
  EXPECT_THROW((void)unseal(v2), CapsuleError);
}

TEST(CapsuleEnvelope, TrailerIsTheSeededXxh64OfThePayload) {
  const std::vector<std::uint8_t> payload = {9, 8, 7, 6};
  const std::vector<std::uint8_t> sealed = seal(payload);
  ASSERT_EQ(sealed.size(), 8u + 4 + 8 + payload.size() + 8);
  EXPECT_EQ(sealed[8], kFormatVersion);
  std::uint64_t trailer = 0;
  for (int i = 7; i >= 0; --i) {
    trailer = (trailer << 8) | sealed[sealed.size() - 8 +
                                      static_cast<std::size_t>(i)];
  }
  EXPECT_EQ(trailer,
            base::fasthash(payload.data(), payload.size(), kEnvelopeSeed));
}

TEST(CapsuleFile, WriteReadRoundTrip) {
  const std::string path = "capsule_test_roundtrip.fx8caps";
  const std::vector<std::uint8_t> sealed = seal({9, 8, 7});
  write_file(path, sealed);
  EXPECT_EQ(read_file(path), sealed);
  std::remove(path.c_str());
}

TEST(CapsuleFile, MissingFileThrows) {
  EXPECT_THROW((void)read_file("no-such-dir/no-such-capsule.fx8caps"),
               CapsuleError);
  EXPECT_THROW(write_file("no-such-dir/no-such-capsule.fx8caps", {}),
               CapsuleError);
}

}  // namespace
}  // namespace repro::capsule
