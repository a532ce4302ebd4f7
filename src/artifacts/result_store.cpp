#include "artifacts/result_store.hpp"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <system_error>
#include <utility>

#include "base/endian.hpp"
#include "base/fasthash.hpp"
#include "os/system.hpp"
#include "workload/presets.hpp"

namespace repro::artifacts {

namespace fs = std::filesystem;

namespace {

/// Inner header laid in front of every blob payload before sealing:
/// the key echo catches renamed/collided files, the version catches
/// format skew that predates the envelope's own version field.
constexpr std::size_t kHeaderBytes = 8 + 4;

std::string key_hex(std::uint64_t key) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(key));
  return buf;
}

/// `<path>.tmp.<pid>.<seq>`: unique across the threads of this process
/// and across processes sharing the store directory, so no two writers
/// ever interleave one temp file.
std::string temp_path(const std::string& path) {
  static std::atomic<std::uint64_t> sequence{0};
  return path + ".tmp." + std::to_string(::getpid()) + "." +
         std::to_string(sequence.fetch_add(1, std::memory_order_relaxed));
}

}  // namespace

// --- ResultStore ------------------------------------------------------

ResultStore::ResultStore(std::string dir) : dir_(std::move(dir)) {
  std::error_code ec;
  fs::create_directories(fs::path(dir_) / "objects", ec);
  if (ec) {
    throw capsule::CapsuleError("result store: cannot create " + dir_ +
                                ": " + ec.message());
  }
}

std::string ResultStore::object_path(std::uint64_t key) const {
  return (fs::path(dir_) / "objects" / (key_hex(key) + ".blob")).string();
}

CacheStats ResultStore::stats() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

std::optional<std::vector<std::uint8_t>> ResultStore::get(std::uint64_t key) {
  const std::lock_guard<std::mutex> lock(mutex_);
  const std::string path = object_path(key);
  try {
    std::vector<std::uint8_t> sealed = capsule::read_file(path);
    stats_.bytes_read += sealed.size();
    std::vector<std::uint8_t> payload = capsule::unseal(std::move(sealed));
    if (payload.size() < kHeaderBytes ||
        base::load_le<std::uint64_t>(payload.data()) != key ||
        base::load_le<std::uint32_t>(payload.data() + 8) !=
            kStoreFormatVersion) {
      throw capsule::CapsuleError("result store: blob header mismatch");
    }
    ++stats_.hits;
    payload.erase(payload.begin(), payload.begin() + kHeaderBytes);
    return payload;
  } catch (const capsule::CapsuleError&) {
    // Absent file and corrupt blob both land here; only the latter has
    // bytes on disk worth counting and removing. Either way: a miss.
    std::error_code ec;
    if (fs::exists(path, ec) && !ec) {
      ++stats_.corrupt_misses;
      fs::remove(path, ec);  // Best effort; a survivor just misses again.
    }
    ++stats_.misses;
    return std::nullopt;
  }
}

void ResultStore::put(std::uint64_t key,
                      const std::vector<std::uint8_t>& payload) {
  std::vector<std::uint8_t> framed(kHeaderBytes + payload.size());
  base::store_le(framed.data(), key);
  base::store_le(framed.data() + 8, kStoreFormatVersion);
  std::copy(payload.begin(), payload.end(), framed.begin() + kHeaderBytes);
  const std::vector<std::uint8_t> sealed = capsule::seal(framed);

  const std::string path = object_path(key);
  const std::string tmp = temp_path(path);
  const std::lock_guard<std::mutex> lock(mutex_);
  try {
    capsule::write_file(tmp, sealed);
    fs::rename(tmp, path);  // Atomic publish; readers never see torn blobs.
  } catch (...) {
    std::error_code ec;
    fs::remove(tmp, ec);
    ++stats_.put_errors;
    return;
  }
  ++stats_.puts;
  stats_.bytes_written += sealed.size();
}

// --- Key derivation ---------------------------------------------------

namespace {

std::uint64_t hash_walk(const char* tag, std::uint64_t salt,
                        std::uint64_t fingerprint,
                        const std::function<void(capsule::Io&)>& walk) {
  capsule::Io io = capsule::Io::saver();
  std::string tag_str = tag;
  io.str(tag_str);
  std::uint64_t salt_copy = salt;
  io.u64(salt_copy);
  io.u64(fingerprint);
  walk(io);
  return base::fasthash(io.bytes().data(), io.bytes().size(), salt);
}

}  // namespace

std::uint64_t study_cache_key(const core::StudyConfig& config,
                              std::uint64_t salt) {
  const auto mixes = workload::session_presets();
  return study_cache_key(config, mixes, salt);
}

std::uint64_t study_cache_key(const core::StudyConfig& config,
                              std::span<const workload::WorkloadMix> mixes,
                              std::uint64_t salt) {
  core::StudyConfig copy = config;
  std::vector<workload::WorkloadMix> mix_copies(mixes.begin(), mixes.end());
  return hash_walk("study-result/2", salt,
                   os::config_fingerprint(config.system),
                   [&copy, &mix_copies](capsule::Io& io) {
                     serialize_config(io, copy);
                     auto count = static_cast<std::uint64_t>(mix_copies.size());
                     io.u64(count);
                     for (workload::WorkloadMix& mix : mix_copies) {
                       workload::serialize_config(io, mix);
                     }
                   });
}

std::uint64_t transition_cache_key(const core::TransitionConfig& config,
                                   std::uint64_t salt) {
  core::TransitionConfig copy = config;
  return hash_walk("transition-result/1:high-concurrency:from-full", salt,
                   os::config_fingerprint(config.system),
                   [&copy](capsule::Io& io) { serialize_config(io, copy); });
}

std::uint64_t artifact_cache_key(const std::string& id,
                                 const core::StudyConfig& study,
                                 const core::TransitionConfig& transition,
                                 bool quick, std::uint64_t salt) {
  core::StudyConfig study_copy = study;
  core::TransitionConfig transition_copy = transition;
  return hash_walk(
      "artifact-result/1", salt, os::config_fingerprint(study.system),
      [&](capsule::Io& io) {
        std::string id_copy = id;
        io.str(id_copy);
        bool quick_copy = quick;
        io.boolean(quick_copy);
        serialize_config(io, study_copy);
        serialize_config(io, transition_copy);
      });
}

}  // namespace repro::artifacts
