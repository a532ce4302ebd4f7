// Persistent content-addressed result store: incremental fx8bench.
//
// Every artifact of the reproduction is a deterministic function of its
// study/transition config, so its result can be addressed by a 64-bit
// content hash of that config and reused across processes. The store
// maps such a key to a sealed capsule-envelope blob (base/capsule.hpp)
// holding a serialized StudyResult, TransitionResult, or ArtifactResult;
// a warm `fx8bench --all` then only re-runs artifacts whose inputs
// actually changed.
//
// Key derivation (docs/benchmarks.md, "The result cache"):
//
//   key = fasthash( kind tag · code salt · config fingerprint ·
//                   canonical config walk , seed = code salt )
//
// The canonical walk covers EVERY config field — including knobs like
// `threads` that provably do not change results — so any field change
// misses the cache. The code salt folds the capsule format version, the
// store format version, and a manually bumped kCodeVersion; bumping any
// of them orphans every old key (a clean miss, never a stale hit).
//
// Robustness contract: the store can only ever *miss*, never return a
// wrong answer. A truncated, tampered, wrong-version, or stale-salt blob
// fails the envelope or header checks, is counted in CacheStats, deleted
// when possible, and recomputed. An absent key is one failed open().
//
// Concurrency: one mutex serializes get and put, so the report DAG's
// executors share one store. Temp files carry the process id and a
// per-process sequence number, so neither two threads nor two processes
// sharing a directory write the same temp path.
#pragma once

#include <cstdint>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "base/capsule.hpp"
#include "core/study.hpp"
#include "core/transition.hpp"
#include "workload/generator.hpp"

namespace repro::artifacts {

/// Store directory format version: the header laid in front of every
/// blob payload and the directory layout. Bump on layout changes.
/// v2: no bloom sidecar; a leftover `bloom.bin` is ignored.
inline constexpr std::uint32_t kStoreFormatVersion = 2;

/// Manually bumped experiment-semantics version. Bump whenever simulator
/// or artifact-render changes alter what any config would produce — the
/// cheap, honest alternative to hashing the binary. Folded into every
/// key, so a stale store degrades to a full miss.
/// v3: study keys fold the session workload mixes (the contention
/// family made mixes an experimental axis a key must cover).
/// v4: the StudyConfig key walk no longer carries the rig-batch width.
inline constexpr std::uint32_t kCodeVersion = 4;

/// The salt every key is seeded with.
inline constexpr std::uint64_t kCodeSalt =
    (static_cast<std::uint64_t>(kCodeVersion) << 40) |
    (static_cast<std::uint64_t>(kStoreFormatVersion) << 20) |
    static_cast<std::uint64_t>(capsule::kFormatVersion);

/// Hit/miss accounting, reported in the fx8bench JSON (`cache` object)
/// and by --cache-stats.
struct CacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;        ///< Includes corrupt blobs.
  std::uint64_t corrupt_misses = 0;  ///< Blobs rejected by envelope/header.
  std::uint64_t puts = 0;
  std::uint64_t put_errors = 0;    ///< Failed blob writes (read-only dir, ...).
  std::uint64_t bytes_read = 0;
  std::uint64_t bytes_written = 0;
};

class ResultStore {
 public:
  /// Opens (creating if needed) the store at `dir`. Layout:
  ///   <dir>/objects/<16-hex-key>.blob   sealed result blobs
  /// Throws capsule::CapsuleError if the directory cannot be created.
  explicit ResultStore(std::string dir);

  [[nodiscard]] const std::string& dir() const { return dir_; }

  /// The unsealed result payload for `key`, or nullopt on any kind of
  /// miss (absent, truncated, tampered, wrong version, foreign key).
  [[nodiscard]] std::optional<std::vector<std::uint8_t>> get(
      std::uint64_t key);

  /// Store `payload` under `key` (tmp-file + rename; failures are
  /// counted, never thrown).
  void put(std::uint64_t key, const std::vector<std::uint8_t>& payload);

  /// A snapshot of the counters.
  [[nodiscard]] CacheStats stats() const;

  [[nodiscard]] std::string object_path(std::uint64_t key) const;

 private:
  std::string dir_;
  mutable std::mutex mutex_;  ///< Guards stats_ and the files.
  CacheStats stats_;
};

// --- Key derivation ---------------------------------------------------

/// Key of the shared nine-session study result for `config`. The walk
/// covers the config AND the session mixes the study runs (the default
/// workload::session_presets()): a preset edit is a condition change
/// and must miss, never stale-hit.
[[nodiscard]] std::uint64_t study_cache_key(const core::StudyConfig& config,
                                            std::uint64_t salt = kCodeSalt);

/// Same key derivation over an explicit mix list (run_study overloads
/// that take caller-provided mixes, e.g. the contention scenarios).
[[nodiscard]] std::uint64_t study_cache_key(
    const core::StudyConfig& config,
    std::span<const workload::WorkloadMix> mixes,
    std::uint64_t salt = kCodeSalt);

/// Key of the shared triggered-transition result for `config` (the
/// high-concurrency mix, kTransitionFromFull trigger — the one
/// combination Inputs caches).
[[nodiscard]] std::uint64_t transition_cache_key(
    const core::TransitionConfig& config, std::uint64_t salt = kCodeSalt);

/// Key of one rendered artifact: its id plus both shared configs plus
/// the quick flag (which also scales artifact-private populations).
[[nodiscard]] std::uint64_t artifact_cache_key(
    const std::string& id, const core::StudyConfig& study,
    const core::TransitionConfig& transition, bool quick,
    std::uint64_t salt = kCodeSalt);

// --- Result blobs -----------------------------------------------------

/// Serialize a result (anything with a capsule `serialize` walk) into a
/// store payload.
template <typename T>
[[nodiscard]] std::vector<std::uint8_t> encode_result(const T& value) {
  capsule::Io io = capsule::Io::saver();
  T copy = value;  // The walk is mode-agnostic and takes a mutable ref.
  copy.serialize(io);
  return io.bytes();
}

/// Decode a store payload back into a result. Throws
/// capsule::CapsuleError on shape mismatch (callers treat it as a miss).
template <typename T>
[[nodiscard]] T decode_result(std::vector<std::uint8_t> payload) {
  capsule::Io io = capsule::Io::loader(std::move(payload));
  T value;
  value.serialize(io);
  if (!io.exhausted()) {
    throw capsule::CapsuleError("result capsule: trailing bytes");
  }
  return value;
}

}  // namespace repro::artifacts
