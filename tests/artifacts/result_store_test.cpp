// ResultStore robustness: the store may only ever MISS, never return a
// wrong or stale answer. Every corruption in the matrix — truncation,
// tampering, version skew, foreign blobs, stale code salt — must
// degrade to a clean miss that the caller resolves by recomputing.
#include "artifacts/result_store.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "base/capsule.hpp"
#include "core/study.hpp"
#include "core/transition.hpp"
#include "workload/presets.hpp"

namespace repro::artifacts {
namespace {

namespace fs = std::filesystem;

class ResultStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::path(::testing::TempDir()) /
           ("result_store_" +
            std::string(
                ::testing::UnitTest::GetInstance()->current_test_info()->name()));
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  static std::vector<std::uint8_t> payload(std::initializer_list<int> bytes) {
    std::vector<std::uint8_t> out;
    for (const int b : bytes) {
      out.push_back(static_cast<std::uint8_t>(b));
    }
    return out;
  }

  /// Overwrite the blob file for `key` with raw bytes (bypassing seal).
  void scribble(const ResultStore& store, std::uint64_t key,
                const std::string& bytes) {
    std::ofstream out(store.object_path(key), std::ios::binary);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  fs::path dir_;
};

TEST_F(ResultStoreTest, PutThenGetRoundTrips) {
  ResultStore store(dir_.string());
  const auto body = payload({1, 2, 3, 4, 5});
  store.put(0xABCDEF01, body);
  const auto got = store.get(0xABCDEF01);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, body);
  EXPECT_EQ(store.stats().puts, 1u);
  EXPECT_EQ(store.stats().hits, 1u);
  EXPECT_EQ(store.stats().misses, 0u);
  EXPECT_GT(store.stats().bytes_written, 0u);
  EXPECT_GT(store.stats().bytes_read, 0u);
}

TEST_F(ResultStoreTest, AbsentKeyIsAPlainMiss) {
  ResultStore store(dir_.string());
  EXPECT_FALSE(store.get(0x1111).has_value());
  EXPECT_EQ(store.stats().misses, 1u);
  EXPECT_EQ(store.stats().corrupt_misses, 0u);  // Nothing on disk to blame.
  EXPECT_EQ(store.stats().bytes_read, 0u);
}

TEST_F(ResultStoreTest, LeftoverBloomSidecarIsIgnored) {
  // Store format 1 kept a `bloom.bin` beside objects/; a directory that
  // still has one (even a mangled one) opens and works as before.
  fs::create_directories(dir_);
  std::ofstream(dir_ / "bloom.bin", std::ios::binary) << "garbage";
  ResultStore store(dir_.string());
  const auto body = payload({6, 6});
  store.put(0xAAAA, body);
  const auto got = store.get(0xAAAA);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, body);
  EXPECT_EQ(store.stats().corrupt_misses, 0u);
}

TEST_F(ResultStoreTest, ResultsSurviveReopen) {
  const auto body = payload({9, 8, 7});
  {
    ResultStore store(dir_.string());
    store.put(0x2222, body);
  }
  ResultStore reopened(dir_.string());
  const auto got = reopened.get(0x2222);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, body);
}

TEST_F(ResultStoreTest, TruncatedBlobIsACleanMissAndIsRemoved) {
  ResultStore store(dir_.string());
  store.put(0x3333, payload({1, 2, 3, 4, 5, 6, 7, 8}));
  // Chop the sealed file in half: the envelope size/digest check fails.
  const std::string path = store.object_path(0x3333);
  const auto size = fs::file_size(path);
  fs::resize_file(path, size / 2);
  EXPECT_FALSE(store.get(0x3333).has_value());
  EXPECT_EQ(store.stats().corrupt_misses, 1u);
  EXPECT_FALSE(fs::exists(path)) << "corrupt blob should be deleted";
  // And the key now misses like any absent key.
  EXPECT_FALSE(store.get(0x3333).has_value());
}

TEST_F(ResultStoreTest, TamperedBlobIsACleanMiss) {
  ResultStore store(dir_.string());
  store.put(0x4444, payload({10, 20, 30, 40}));
  const std::string path = store.object_path(0x4444);
  // Flip one payload byte in place: the envelope digest catches it.
  std::fstream file(path, std::ios::binary | std::ios::in | std::ios::out);
  file.seekp(-3, std::ios::end);
  char byte;
  file.read(&byte, 1);
  file.seekp(-3, std::ios::end);
  byte = static_cast<char>(byte ^ 0x5A);
  file.write(&byte, 1);
  file.close();
  EXPECT_FALSE(store.get(0x4444).has_value());
  EXPECT_EQ(store.stats().corrupt_misses, 1u);
}

TEST_F(ResultStoreTest, GarbageBlobIsACleanMiss) {
  ResultStore store(dir_.string());
  store.put(0x5555, payload({1}));
  scribble(store, 0x5555, "not a capsule at all");
  EXPECT_FALSE(store.get(0x5555).has_value());
  EXPECT_EQ(store.stats().corrupt_misses, 1u);
}

TEST_F(ResultStoreTest, ForeignKeyEchoIsACleanMiss) {
  // A blob renamed (or hash-collided) onto another key's path fails the
  // inner key-echo check even though its envelope is perfectly sealed.
  ResultStore store(dir_.string());
  store.put(0x6666, payload({42}));
  fs::copy_file(store.object_path(0x6666), store.object_path(0x7777));
  // Put 0x7777, then swap the foreign blob in over it.
  store.put(0x7777, payload({43}));
  fs::copy_file(store.object_path(0x6666), store.object_path(0x7777),
                fs::copy_options::overwrite_existing);
  EXPECT_FALSE(store.get(0x7777).has_value());
  EXPECT_EQ(store.stats().corrupt_misses, 1u);
  // The original is untouched.
  EXPECT_TRUE(store.get(0x6666).has_value());
}

TEST_F(ResultStoreTest, WrongEnvelopeVersionIsACleanMiss) {
  // Seal a valid-looking blob, then bump the envelope's format-version
  // field (byte 8, after the 8-byte magic): unseal must reject it.
  ResultStore store(dir_.string());
  store.put(0x8888, payload({1, 2, 3}));
  const std::string path = store.object_path(0x8888);
  std::fstream file(path, std::ios::binary | std::ios::in | std::ios::out);
  file.seekp(8);
  const char bumped = 99;
  file.write(&bumped, 1);
  file.close();
  EXPECT_FALSE(store.get(0x8888).has_value());
  EXPECT_EQ(store.stats().corrupt_misses, 1u);
}

TEST_F(ResultStoreTest, UnwritableDirectoryCountsPutErrors) {
  ResultStore store(dir_.string());
  fs::remove_all(dir_ / "objects");  // Yank the rug out from under put().
  store.put(0xBBBB, payload({1}));
  EXPECT_EQ(store.stats().puts, 0u);
  EXPECT_GE(store.stats().put_errors, 1u);
}

TEST_F(ResultStoreTest, LegacyTempPathsDoNotBlockWriters) {
  // Temp names are per process and per write, so a directory squatting
  // on the old shared `<path>.tmp` name does not block the blob.
  ResultStore store(dir_.string());
  fs::create_directories(fs::path(store.object_path(0xD00D) + ".tmp") /
                         "squat");
  store.put(0xD00D, payload({4, 2}));
  EXPECT_EQ(store.stats().puts, 1u);
  EXPECT_EQ(store.stats().put_errors, 0u);
  EXPECT_TRUE(store.get(0xD00D).has_value());
}

TEST_F(ResultStoreTest, ConcurrentPutsAndGetsStayConsistent) {
  ResultStore store(dir_.string());
  constexpr int kThreads = 4;
  constexpr std::uint64_t kKeys = 24;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&store, t] {
      for (std::uint64_t k = 0; k < kKeys; ++k) {
        const std::uint64_t key = (static_cast<std::uint64_t>(t) << 32) | k;
        store.put(key, payload({t, static_cast<int>(k)}));
        // Read a neighbour's key: a hit or a clean miss, never garbage.
        const std::uint64_t other =
            (static_cast<std::uint64_t>((t + 1) % kThreads) << 32) | k;
        if (auto got = store.get(other)) {
          EXPECT_EQ(*got, payload({(t + 1) % kThreads, static_cast<int>(k)}));
        }
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  const CacheStats stats = store.stats();
  EXPECT_EQ(stats.puts, kThreads * kKeys);
  EXPECT_EQ(stats.put_errors, 0u);
  EXPECT_EQ(stats.corrupt_misses, 0u);
  // Every write published; no temp file left behind.
  for (const auto& entry : fs::recursive_directory_iterator(dir_)) {
    EXPECT_EQ(entry.path().string().find(".tmp"), std::string::npos)
        << entry.path();
  }
  ResultStore reopened(dir_.string());
  for (int t = 0; t < kThreads; ++t) {
    for (std::uint64_t k = 0; k < kKeys; ++k) {
      EXPECT_TRUE(
          reopened.get((static_cast<std::uint64_t>(t) << 32) | k).has_value());
    }
  }
}

// --- Key derivation ---------------------------------------------------

TEST(CacheKeys, StaleCodeSaltChangesEveryKey) {
  const core::StudyConfig config;
  EXPECT_NE(study_cache_key(config, kCodeSalt),
            study_cache_key(config, kCodeSalt + 1));
  const core::TransitionConfig transition;
  EXPECT_NE(transition_cache_key(transition, kCodeSalt),
            transition_cache_key(transition, kCodeSalt + 1));
  EXPECT_NE(artifact_cache_key("fig3", config, transition, false, kCodeSalt),
            artifact_cache_key("fig3", config, transition, false,
                               kCodeSalt + 1));
}

TEST(CacheKeys, EveryStudyConfigFieldChangesTheKey) {
  const core::StudyConfig base;
  const std::uint64_t key = study_cache_key(base);
  // One mutation per field — including the perf-only knobs that provably
  // do not change results (threads, fast_forward, ...): the
  // cache keys conservatively on the WHOLE config.
  const auto mutated = [&](auto&& mutate) {
    core::StudyConfig config = base;
    mutate(config);
    return study_cache_key(config);
  };
  EXPECT_NE(key, mutated([](auto& c) { c.samples_per_session += 1; }));
  EXPECT_NE(key, mutated([](auto& c) { c.warmup_cycles += 1; }));
  EXPECT_NE(key, mutated([](auto& c) { c.seed += 1; }));
  EXPECT_NE(key, mutated([](auto& c) { c.threads += 1; }));
  EXPECT_NE(key, mutated([](auto& c) { c.fast_forward = !c.fast_forward; }));
  EXPECT_NE(key, mutated([](auto& c) { c.replicates_per_session += 1; }));
  EXPECT_NE(key, mutated([](auto& c) { c.checkpoint_every_samples += 1; }));
  EXPECT_NE(key, mutated([](auto& c) { c.sampling.interval_cycles += 1; }));
  EXPECT_NE(key,
            mutated([](auto& c) { c.sampling.snapshots_per_sample += 1; }));
  EXPECT_NE(key, mutated([](auto& c) { c.sampling.buffer_depth += 1; }));
  EXPECT_NE(key, mutated([](auto& c) {
              c.sampling.fast_forward = !c.sampling.fast_forward;
            }));
  EXPECT_NE(key, mutated([](auto& c) { c.system.machine.n_ips += 1; }));
  EXPECT_NE(key, mutated([](auto& c) { c.system.machine.seed += 1; }));
  // The topology block: every field keys (a width-16 run must never
  // serve a width-8 blob and vice versa).
  EXPECT_NE(key,
            mutated([](auto& c) { c.system.machine.topology.n_ces += 1; }));
  EXPECT_NE(key, mutated(
                     [](auto& c) { c.system.machine.topology.n_clusters += 1; }));
  EXPECT_NE(key, mutated([](auto& c) {
              c.system.machine.topology.cache_banks += 1;
            }));
  EXPECT_NE(key, mutated([](auto& c) {
              c.system.machine.topology.mem_buses += 1;
            }));
  EXPECT_NE(key, mutated([](auto& c) { c.system.vm.fault_service_cycles += 1; }));
  EXPECT_NE(key, mutated([](auto& c) {
              c.system.scheduling = os::SchedulingPolicy::kConcurrentFirst;
            }));
  // And the identity mutation does NOT change the key (determinism).
  EXPECT_EQ(key, mutated([](auto&) {}));
}

TEST(CacheKeys, EveryContentionMixFieldChangesTheStudyKey) {
  // The v3 keys fold the session mixes: a cached blob computed for one
  // contention configuration must never be served for another. One
  // mutation per new WorkloadMix field.
  const core::StudyConfig config;
  const std::vector<workload::WorkloadMix> mixes = {
      workload::lock_contention_mix(workload::LockType::kTicket)};
  const std::uint64_t key = study_cache_key(config, mixes);
  const auto mutated = [&](auto&& mutate) {
    auto copy = mixes;
    mutate(copy[0]);
    return study_cache_key(config, copy);
  };
  EXPECT_NE(key, mutated([](auto& m) { m.contention_job_fraction -= 0.5; }));
  EXPECT_NE(key, mutated([](auto& m) { m.contention.rcu_fraction += 0.5; }));
  EXPECT_NE(key, mutated([](auto& m) {
              m.contention.lock.lock = workload::LockType::kMcs;
            }));
  EXPECT_NE(key, mutated([](auto& m) { m.contention.lock.contenders -= 1; }));
  EXPECT_NE(key, mutated([](auto& m) { m.contention.lock.min_rounds += 1; }));
  EXPECT_NE(key, mutated([](auto& m) { m.contention.lock.max_rounds += 1; }));
  EXPECT_NE(key,
            mutated([](auto& m) { m.contention.lock.critical_steps += 1; }));
  EXPECT_NE(key,
            mutated([](auto& m) { m.contention.lock.parallel_steps += 1; }));
  EXPECT_NE(key, mutated([](auto& m) {
              m.contention.lock.ticket_handoff_steps += 1;
            }));
  EXPECT_NE(key, mutated([](auto& m) { m.contention.rcu.readers -= 1; }));
  EXPECT_NE(key, mutated([](auto& m) { m.contention.rcu.min_rounds += 1; }));
  EXPECT_NE(key, mutated([](auto& m) { m.contention.rcu.max_rounds += 1; }));
  EXPECT_NE(key, mutated([](auto& m) { m.contention.rcu.reader_steps += 1; }));
  EXPECT_NE(key, mutated([](auto& m) { m.contention.rcu.writer_steps += 1; }));
  EXPECT_NE(key, mutated([](auto& m) { m.contention.rcu.writer_every += 1; }));
  // The identity mutation keeps the key; the mix COUNT keys as well.
  EXPECT_EQ(key, mutated([](auto&) {}));
  const std::vector<workload::WorkloadMix> two = {mixes[0], mixes[0]};
  EXPECT_NE(key, study_cache_key(config, two));
  // The default overload is exactly the session-preset overload.
  const auto presets = workload::session_presets();
  EXPECT_EQ(study_cache_key(config), study_cache_key(config, presets));
}

TEST(CacheKeys, EveryTransitionConfigFieldChangesTheKey) {
  const core::TransitionConfig base;
  const std::uint64_t key = transition_cache_key(base);
  const auto mutated = [&](auto&& mutate) {
    core::TransitionConfig config = base;
    mutate(config);
    return transition_cache_key(config);
  };
  EXPECT_NE(key, mutated([](auto& c) { c.captures += 1; }));
  EXPECT_NE(key, mutated([](auto& c) { c.capture_timeout += 1; }));
  EXPECT_NE(key, mutated([](auto& c) { c.warmup_cycles += 1; }));
  EXPECT_NE(key, mutated([](auto& c) { c.seed += 1; }));
  EXPECT_NE(key, mutated([](auto& c) {
              c.checkpoint_between_captures = !c.checkpoint_between_captures;
            }));
  EXPECT_NE(key, mutated([](auto& c) { c.sampling.buffer_depth += 1; }));
  EXPECT_NE(key, mutated([](auto& c) { c.system.machine.seed += 1; }));
  EXPECT_EQ(key, mutated([](auto&) {}));
}

TEST(CacheKeys, ArtifactKeysSeparateIdQuickAndKind) {
  const core::StudyConfig study;
  const core::TransitionConfig transition;
  const std::uint64_t fig3 =
      artifact_cache_key("fig3", study, transition, false);
  EXPECT_NE(fig3, artifact_cache_key("fig4", study, transition, false));
  EXPECT_NE(fig3, artifact_cache_key("fig3", study, transition, true));
  // Different result kinds never share a key even over the same config
  // (the kind tag is hashed in).
  EXPECT_NE(study_cache_key(study), fig3);
  EXPECT_NE(study_cache_key(study), transition_cache_key(transition));
}

// --- Result blob encode/decode ----------------------------------------

TEST(ResultBlobs, TransitionResultRoundTrips) {
  core::TransitionResult result;
  result.state_counts = {1, 2, 3, 4, 5, 6, 7, 8, 9};
  result.processor_counts = {10, 20, 30, 40, 50, 60, 70, 80};
  result.captures_completed = 40;
  result.captures_timed_out = 2;
  const auto blob = encode_result(result);
  const auto back = decode_result<core::TransitionResult>(blob);
  EXPECT_EQ(back.state_counts, result.state_counts);
  EXPECT_EQ(back.processor_counts, result.processor_counts);
  EXPECT_EQ(back.captures_completed, result.captures_completed);
  EXPECT_EQ(back.captures_timed_out, result.captures_timed_out);
}

TEST(ResultBlobs, TrailingBytesAreAShapeMismatch) {
  core::TransitionResult result;
  auto blob = encode_result(result);
  blob.push_back(0);  // One stray byte: the walk must not silently pass.
  EXPECT_THROW(static_cast<void>(decode_result<core::TransitionResult>(blob)),
               capsule::CapsuleError);
}

TEST(ResultBlobs, ShortPayloadIsAShapeMismatch) {
  core::TransitionResult result;
  auto blob = encode_result(result);
  blob.resize(blob.size() / 2);
  EXPECT_THROW(static_cast<void>(decode_result<core::TransitionResult>(blob)),
               capsule::CapsuleError);
}

}  // namespace
}  // namespace repro::artifacts
