// State capsules: one serialization walk, three uses.
//
// Every deterministic component exposes `void serialize(capsule::Io&)`
// that visits its state through the same sequence of primitive calls
// whatever the mode. In kSave mode the walk encodes the state into a
// byte stream; in kLoad mode the identical walk decodes it back; in
// kDigest mode it folds the encoded bytes into a 64-bit FNV-1a digest
// without storing them. Because save and digest see the same byte
// stream, the digest of a saved capsule always equals the digest
// computed in place — bit-identity between two machines can therefore
// be asserted by comparing two 8-byte values instead of replaying
// traces (see docs/checkpointing.md). Each primitive moves with one
// little-endian word copy (base/endian.hpp).
//
// Capsule files wrap the payload in a sealed envelope (magic, format
// version, payload size, trailing XXH64 checksum). Unsealing validates
// all four and throws CapsuleError — a *recoverable* error, unlike
// ContractViolation — on any mismatch, so a stale or truncated
// checkpoint is rejected instead of loading garbage state. The
// envelope checksum is base::fasthash because it must run over every
// byte of every blob a warm replay reads; the state digest stays FNV-1a
// because digests pinned elsewhere (checkpoint digests, perfbench's
// reference StudyResult digests) are FNV-1a values.
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

#include "base/endian.hpp"
#include "base/fnv1a.hpp"

namespace repro::capsule {

/// Recoverable capsule failure: bad magic, version skew, truncation,
/// digest mismatch, config fingerprint mismatch, unreadable file.
class CapsuleError : public std::runtime_error {
 public:
  explicit CapsuleError(const std::string& what)
      : std::runtime_error(what) {}
};

/// Capsule payload format version. Bump on any change to a serialize()
/// walk; unseal() rejects every other version.
/// v2: the Mmu translation memo holds one entry per CE lane (it used to
/// hold one per (rig, CE) pair for lockstep-batched machines).
/// v3: the envelope trailer is an XXH64 checksum (base::fasthash at
/// kEnvelopeSeed) instead of FNV-1a; payload bytes are unchanged.
inline constexpr std::uint32_t kFormatVersion = 3;

/// Seed of the envelope checksum: the magic "FX8CAPS\0" read as a
/// little-endian u64.
inline constexpr std::uint64_t kEnvelopeSeed = 0x0053504143385846ULL;

enum class Mode : std::uint8_t { kSave, kLoad, kDigest };

class Io {
 public:
  /// Walk state into an internal byte buffer.
  [[nodiscard]] static Io saver() { return Io(Mode::kSave, {}); }
  /// Walk state folding the encoded bytes into digest() only.
  [[nodiscard]] static Io digester() { return Io(Mode::kDigest, {}); }
  /// Walk state out of `payload` (as produced by a saver).
  [[nodiscard]] static Io loader(std::vector<std::uint8_t> payload) {
    return Io(Mode::kLoad, std::move(payload));
  }

  [[nodiscard]] Mode mode() const noexcept { return mode_; }
  [[nodiscard]] bool loading() const noexcept { return mode_ == Mode::kLoad; }

  // Primitives. Each writes, reads, or digests the value in place
  // depending on the mode; integers are encoded little-endian so
  // capsules and digests are stable across hosts.
  void u8(std::uint8_t& v) { scalar(v); }
  void u16(std::uint16_t& v) { scalar(v); }
  void u32(std::uint32_t& v) { scalar(v); }
  void u64(std::uint64_t& v) { scalar(v); }

  void i64(std::int64_t& v) {
    auto bits = static_cast<std::uint64_t>(v);
    u64(bits);
    v = static_cast<std::int64_t>(bits);
  }

  /// Doubles travel as their bit pattern — exact, NaN-preserving.
  void f64(double& v) {
    auto bits = std::bit_cast<std::uint64_t>(v);
    u64(bits);
    v = std::bit_cast<double>(bits);
  }

  void boolean(bool& v) {
    std::uint8_t bits = v ? 1 : 0;
    u8(bits);
    if (loading() && bits > 1) {
      throw CapsuleError("capsule: corrupt bool encoding");
    }
    v = bits != 0;
  }

  void str(std::string& v);

  /// Enum of any underlying type, transported as u32.
  template <typename E>
  void enum32(E& v) {
    static_assert(std::is_enum_v<E>);
    auto bits = static_cast<std::uint32_t>(
        static_cast<std::underlying_type_t<E>>(v));
    u32(bits);
    v = static_cast<E>(static_cast<std::underlying_type_t<E>>(bits));
  }

  /// Container-size handshake: encodes `n` when saving/digesting and
  /// returns it; returns the decoded count when loading. Callers size
  /// their container from the return value.
  ///
  /// `min_bytes` (at least 1) is the fewest bytes one walked element
  /// can encode: 8 for a u64 or f64 vector, the fixed prefix for a
  /// record. A loaded count whose elements could not fit in the bytes
  /// left in the payload cannot be genuine: it is rejected here, before
  /// any caller sizes a container from it.
  [[nodiscard]] std::uint64_t extent(std::uint64_t n,
                                     std::uint64_t min_bytes = 1) {
    u64(n);
    if (loading() && n > (buf_.size() - cursor_) / min_bytes) {
      throw CapsuleError("capsule: element count exceeds payload");
    }
    return n;
  }

  /// Saved payload (kSave mode only; empty otherwise).
  [[nodiscard]] const std::vector<std::uint8_t>& bytes() const noexcept {
    return buf_;
  }
  /// FNV-1a 64 over every byte the walk encoded so far (kSave/kDigest).
  /// A saver folds its buffer only when asked: FNV-1a is a byte-stream
  /// fold, so hashing the whole buffer once equals folding it per put.
  [[nodiscard]] std::uint64_t digest() const noexcept {
    return mode_ == Mode::kSave ? base::fnv1a(buf_.data(), buf_.size())
                                : digest_;
  }
  /// True when a loader has consumed its whole payload.
  [[nodiscard]] bool exhausted() const noexcept {
    return cursor_ == buf_.size();
  }

 private:
  Io(Mode mode, std::vector<std::uint8_t> payload)
      : mode_(mode), buf_(std::move(payload)) {}

  template <typename T>
  void scalar(T& v) {
    std::uint8_t bytes[sizeof(T)];
    if (loading()) {
      get(bytes, sizeof(T));
      v = base::load_le<T>(bytes);
      return;
    }
    base::store_le(bytes, v);
    put(bytes, sizeof(T));
  }

  void put(const std::uint8_t* p, std::size_t n) {
    if (mode_ == Mode::kSave) {
      buf_.insert(buf_.end(), p, p + n);
    } else {
      digest_ = base::fnv1a(p, n, digest_);
    }
  }

  void get(std::uint8_t* p, std::size_t n) {
    if (n > buf_.size() - cursor_) {
      truncated();
    }
    std::memcpy(p, buf_.data() + cursor_, n);
    cursor_ += n;
  }

  [[noreturn]] static void truncated();

  Mode mode_;
  std::vector<std::uint8_t> buf_;
  std::size_t cursor_ = 0;
  std::uint64_t digest_ = base::kFnv1aOffset;
};

/// Bytes one walk of a value-initialised `T` encodes. For a fixed-width
/// record that is the size of every record, so it is the `min_bytes`
/// to pass to Io::extent() for a vector of them.
template <typename T>
[[nodiscard]] std::uint64_t encoded_size() {
  Io io = Io::saver();
  T value{};
  value.serialize(io);
  return io.bytes().size();
}

/// Wrap a payload in the capsule envelope:
/// magic "FX8CAPS\0" · u32 version · u64 payload size · payload ·
/// u64 base::fasthash(payload, kEnvelopeSeed).
[[nodiscard]] std::vector<std::uint8_t> seal(
    const std::vector<std::uint8_t>& payload);

/// Validate an envelope and return its payload (stripped in place, so
/// pass the buffer by move when it is not needed afterwards). Throws
/// CapsuleError on bad magic, wrong version, truncation, or checksum
/// mismatch.
[[nodiscard]] std::vector<std::uint8_t> unseal(
    std::vector<std::uint8_t> sealed);

/// File I/O for sealed capsules; both throw CapsuleError on failure.
void write_file(const std::string& path,
                const std::vector<std::uint8_t>& sealed);
[[nodiscard]] std::vector<std::uint8_t> read_file(const std::string& path);

}  // namespace repro::capsule
