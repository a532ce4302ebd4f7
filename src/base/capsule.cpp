#include "base/capsule.hpp"

#include <sys/stat.h>

#include <cstdio>
#include <cstring>

#include "base/fasthash.hpp"

namespace repro::capsule {

namespace {

constexpr char kMagic[8] = {'F', 'X', '8', 'C', 'A', 'P', 'S', '\0'};
constexpr std::size_t kHeader = sizeof(kMagic) + 4 + 8;

std::uint64_t checksum(const std::uint8_t* p, std::size_t n) {
  return base::fasthash(p, n, kEnvelopeSeed);
}

}  // namespace

void Io::truncated() { throw CapsuleError("capsule: payload truncated"); }

void Io::str(std::string& v) {
  auto n = static_cast<std::uint64_t>(v.size());
  u64(n);
  if (loading()) {
    if (n > buf_.size() - cursor_) {
      throw CapsuleError("capsule: string extends past payload end");
    }
    v.assign(reinterpret_cast<const char*>(buf_.data() + cursor_),
             static_cast<std::size_t>(n));
    cursor_ += static_cast<std::size_t>(n);
    return;
  }
  put(reinterpret_cast<const std::uint8_t*>(v.data()), v.size());
}

std::vector<std::uint8_t> seal(const std::vector<std::uint8_t>& payload) {
  std::vector<std::uint8_t> out(kHeader + payload.size() + 8);
  std::memcpy(out.data(), kMagic, sizeof(kMagic));
  base::store_le(out.data() + sizeof(kMagic), kFormatVersion);
  base::store_le(out.data() + sizeof(kMagic) + 4,
                 static_cast<std::uint64_t>(payload.size()));
  if (!payload.empty()) {
    std::memcpy(out.data() + kHeader, payload.data(), payload.size());
  }
  base::store_le(out.data() + kHeader + payload.size(),
                 checksum(payload.data(), payload.size()));
  return out;
}

std::vector<std::uint8_t> unseal(std::vector<std::uint8_t> sealed) {
  if (sealed.size() < kHeader + 8) {
    throw CapsuleError("capsule: file shorter than envelope header");
  }
  if (std::memcmp(sealed.data(), kMagic, sizeof(kMagic)) != 0) {
    throw CapsuleError("capsule: bad magic (not a capsule file)");
  }
  const auto version =
      base::load_le<std::uint32_t>(sealed.data() + sizeof(kMagic));
  if (version != kFormatVersion) {
    throw CapsuleError("capsule: format version " + std::to_string(version) +
                       " (this build reads version " +
                       std::to_string(kFormatVersion) + ")");
  }
  const auto size =
      base::load_le<std::uint64_t>(sealed.data() + sizeof(kMagic) + 4);
  if (size != sealed.size() - kHeader - 8) {
    throw CapsuleError("capsule: payload size mismatch (truncated file?)");
  }
  const auto stored = base::load_le<std::uint64_t>(sealed.data() + kHeader +
                                                   size);
  if (stored != checksum(sealed.data() + kHeader,
                         static_cast<std::size_t>(size))) {
    throw CapsuleError("capsule: payload checksum mismatch (corrupt file)");
  }
  // Strip the envelope in place: a caller that moves its buffer in
  // pays no second allocation.
  sealed.resize(kHeader + static_cast<std::size_t>(size));
  sealed.erase(sealed.begin(),
               sealed.begin() + static_cast<std::ptrdiff_t>(kHeader));
  return sealed;
}

void write_file(const std::string& path,
                const std::vector<std::uint8_t>& sealed) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    throw CapsuleError("capsule: cannot open " + path + " for writing");
  }
  const std::size_t wrote = std::fwrite(sealed.data(), 1, sealed.size(), f);
  const bool closed = std::fclose(f) == 0;
  if (wrote != sealed.size() || !closed) {
    throw CapsuleError("capsule: short write to " + path);
  }
}

std::vector<std::uint8_t> read_file(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    throw CapsuleError("capsule: cannot open " + path);
  }
  // One sized read: capsule files are published whole (write to a temp
  // name, then rename), so the size fstat reports is the size to read.
  struct stat st {};
  std::vector<std::uint8_t> out;
  bool bad = ::fstat(::fileno(f), &st) != 0 || !S_ISREG(st.st_mode);
  if (!bad) {
    out.resize(static_cast<std::size_t>(st.st_size));
    bad = std::fread(out.data(), 1, out.size(), f) != out.size();
  }
  std::fclose(f);
  if (bad) {
    throw CapsuleError("capsule: read error on " + path);
  }
  return out;
}

}  // namespace repro::capsule
