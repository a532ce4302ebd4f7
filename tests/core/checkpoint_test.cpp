#include "core/checkpoint.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "base/rng.hpp"
#include "core/presets.hpp"
#include "core/study.hpp"
#include "core/transition.hpp"
#include "workload/presets.hpp"

namespace repro::core {
namespace {

instr::SamplingConfig tiny_sampling() {
  instr::SamplingConfig sampling;
  sampling.interval_cycles = 6000;
  return sampling;
}

/// The measurement rig the study engine schedules; member order matters
/// (the controller references the system and the generator).
struct Rig {
  os::System system;
  workload::WorkloadGenerator generator;
  instr::SessionController controller;

  Rig(const workload::WorkloadMix& mix, const os::SystemConfig& config,
      const instr::SamplingConfig& sampling, std::uint64_t seed)
      : system(config),
        generator(mix, mix64(seed ^ 0xABCD)),
        controller(system, generator, sampling, mix64(seed ^ 0x5A5A)) {}
};

std::unique_ptr<Rig> warm_rig(std::size_t preset = 2,
                              std::uint64_t seed = 0x1234) {
  auto rig = std::make_unique<Rig>(workload::session_presets()[preset],
                                   os::SystemConfig{}, tiny_sampling(), seed);
  rig->controller.advance(3000);
  return rig;
}

bool same_record(const instr::SampleRecord& a, const instr::SampleRecord& b) {
  return a.index == b.index && a.interval_cycles == b.interval_cycles &&
         a.hw.num == b.hw.num && a.hw.proc == b.hw.proc &&
         a.hw.ceop == b.hw.ceop && a.hw.membop == b.hw.membop &&
         a.hw.records == b.hw.records &&
         a.hw.ce_bus_cycles == b.hw.ce_bus_cycles &&
         a.sw.ce_page_faults_user == b.sw.ce_page_faults_user &&
         a.sw.ce_page_faults_system == b.sw.ce_page_faults_system &&
         a.sw.jobs_completed == b.sw.jobs_completed &&
         a.sw.context_switches == b.sw.context_switches;
}

TEST(CapsuleSession, RestoredRigIsBitIdentical) {
  auto original = warm_rig();
  (void)original->controller.run_session(2);

  const std::uint64_t before = session_digest(
      original->system, original->generator, original->controller);
  const auto sealed = save_session(original->system, original->generator,
                                   original->controller);

  // A freshly built rig (different seed, so genuinely different state)
  // must come back bit-identical after the load.
  auto restored = warm_rig(2, 0x9999);
  EXPECT_NE(session_digest(restored->system, restored->generator,
                           restored->controller),
            before);
  load_session(sealed, restored->system, restored->generator,
               restored->controller);
  EXPECT_EQ(session_digest(restored->system, restored->generator,
                           restored->controller),
            before);

  // And it must keep producing the same sample stream.
  const auto next_a = original->controller.run_session(1);
  const auto next_b = restored->controller.run_session(1);
  EXPECT_TRUE(same_record(next_a.front(), next_b.front()));
  EXPECT_EQ(session_digest(original->system, original->generator,
                           original->controller),
            session_digest(restored->system, restored->generator,
                           restored->controller));
}

TEST(CapsuleSession, ResumeContinuesTheSampleStream) {
  auto straight = warm_rig();
  const auto all = straight->controller.run_session(4);

  auto first_half = warm_rig();
  const auto head = first_half->controller.run_session(2);
  const auto sealed = save_session(first_half->system, first_half->generator,
                                   first_half->controller);
  auto resumed = warm_rig(2, 0x4242);
  load_session(sealed, resumed->system, resumed->generator,
               resumed->controller);
  const auto tail = resumed->controller.run_session(2);

  ASSERT_EQ(all.size(), 4u);
  EXPECT_TRUE(same_record(all[0], head[0]));
  EXPECT_TRUE(same_record(all[1], head[1]));
  EXPECT_TRUE(same_record(all[2], tail[0]));
  EXPECT_TRUE(same_record(all[3], tail[1]));
}

TEST(CapsuleSession, FingerprintMismatchRejected) {
  auto original = warm_rig();
  const auto sealed = save_session(original->system, original->generator,
                                   original->controller);

  os::SystemConfig narrow;
  narrow.machine.cluster.n_ces = 4;
  Rig other(workload::session_presets()[2], narrow, tiny_sampling(), 0x1234);
  EXPECT_THROW(
      load_session(sealed, other.system, other.generator, other.controller),
      capsule::CapsuleError);
}

TEST(CapsuleSystem, ArbitraryCycleSaveRestores) {
  // Nothing aligns the capsule to a sample or scheduler boundary: stop
  // at an odd mid-activity cycle and the restored system must still
  // track the original tick for tick.
  auto rig = warm_rig();
  rig->controller.advance(12347);

  const auto sealed = rig->system.save_capsule();
  os::System fresh((os::SystemConfig()));
  fresh.load_capsule(sealed);
  EXPECT_EQ(fresh.state_digest(), rig->system.state_digest());

  rig->system.run(777);
  fresh.run(777);
  EXPECT_EQ(fresh.state_digest(), rig->system.state_digest());
  EXPECT_EQ(fresh.now(), rig->system.now());
}

TEST(CapsuleSession, HugeBusQueueDepthIsRejectedCleanly) {
  auto rig = warm_rig();
  std::vector<std::uint8_t> payload = capsule::unseal(
      save_session(rig->system, rig->generator, rig->controller));
  // The bus walk is embedded verbatim in the session walk, and its
  // first field is bus 0's queue depth.
  capsule::Io bus = capsule::Io::saver();
  rig->system.machine().membus().serialize(bus);
  const auto at = std::search(payload.begin(), payload.end(),
                              bus.bytes().begin(), bus.bytes().end());
  ASSERT_NE(at, payload.end());
  const std::uint64_t depth = std::uint64_t{1} << 40;
  for (int i = 0; i < 8; ++i) {
    at[i] = static_cast<std::uint8_t>(depth >> (8 * i));
  }
  // Re-sealed with a correct digest, so only the walk can catch it.
  const std::vector<std::uint8_t> resealed = capsule::seal(payload);
  auto fresh = std::make_unique<Rig>(workload::session_presets()[2],
                                     os::SystemConfig{}, tiny_sampling(),
                                     0x1234);
  EXPECT_THROW(
      load_session(resealed, fresh->system, fresh->generator,
                   fresh->controller),
      capsule::CapsuleError);
}

TEST(CapsuleSystem, LoadRejectsTamperedCapsule) {
  os::System system((os::SystemConfig()));
  system.run(500);
  auto sealed = system.save_capsule();

  auto version_skew = sealed;
  version_skew[8] = static_cast<std::uint8_t>(capsule::kFormatVersion + 3);
  EXPECT_THROW(system.load_capsule(version_skew), capsule::CapsuleError);

  auto corrupt = sealed;
  corrupt[corrupt.size() / 2] ^= 0x01;
  EXPECT_THROW(system.load_capsule(corrupt), capsule::CapsuleError);

  os::SystemConfig narrow;
  narrow.machine.cluster.n_ces = 4;
  os::System other(narrow);
  EXPECT_THROW(other.load_capsule(sealed), capsule::CapsuleError);
  // The fingerprint check fires before any state is touched.
  EXPECT_EQ(other.now(), 0u);
}

TEST(CapsuleStudy, ShardedStudyMatchesUninterrupted) {
  StudyConfig config = presets::tiny_study();
  config.threads = 1;
  const auto presets = workload::session_presets();
  const std::vector<workload::WorkloadMix> mixes(presets.begin(),
                                                 presets.begin() + 3);

  const StudyResult plain = run_study(mixes, config);
  config.checkpoint_every_samples = 1;
  const StudyResult sharded = run_study(mixes, config);

  EXPECT_EQ(plain.totals.num, sharded.totals.num);
  EXPECT_EQ(plain.totals.records, sharded.totals.records);
  EXPECT_EQ(plain.overall.cw, sharded.overall.cw);
  EXPECT_EQ(plain.overall.pc, sharded.overall.pc);
  ASSERT_EQ(plain.sessions.size(), sharded.sessions.size());
  for (std::size_t s = 0; s < plain.sessions.size(); ++s) {
    EXPECT_EQ(plain.sessions[s].totals.num, sharded.sessions[s].totals.num);
    EXPECT_EQ(plain.sessions[s].overall.cw, sharded.sessions[s].overall.cw);
  }
}

TEST(CapsuleTransition, CheckpointedCapturesMatch) {
  TransitionConfig config = presets::tiny_transition();
  const workload::WorkloadMix mix = workload::high_concurrency_mix();

  const TransitionResult plain = run_transition_study(mix, config);
  config.checkpoint_between_captures = true;
  const TransitionResult checkpointed = run_transition_study(mix, config);

  EXPECT_EQ(plain.state_counts, checkpointed.state_counts);
  EXPECT_EQ(plain.processor_counts, checkpointed.processor_counts);
  EXPECT_EQ(plain.captures_completed, checkpointed.captures_completed);
  EXPECT_EQ(plain.captures_timed_out, checkpointed.captures_timed_out);
}

TEST(CapsuleStudyCheckpoint, ProgressRoundTrips) {
  auto rig = warm_rig();
  StudyCheckpoint progress;
  progress.samples_total = 4;
  for (int i = 0; i < 2; ++i) {
    progress.records.push_back(rig->controller.run_session(1).front());
    ++progress.samples_done;
  }
  const auto sealed = save_study_checkpoint(progress, rig->system,
                                            rig->generator, rig->controller);

  auto resumed = warm_rig(2, 0x7777);
  const StudyCheckpoint loaded = load_study_checkpoint(
      sealed, resumed->system, resumed->generator, resumed->controller);

  EXPECT_EQ(loaded.samples_done, 2u);
  EXPECT_EQ(loaded.samples_total, 4u);
  ASSERT_EQ(loaded.records.size(), 2u);
  EXPECT_TRUE(same_record(loaded.records[0], progress.records[0]));
  EXPECT_TRUE(same_record(loaded.records[1], progress.records[1]));
  EXPECT_EQ(session_digest(resumed->system, resumed->generator,
                           resumed->controller),
            session_digest(rig->system, rig->generator, rig->controller));
}

TEST(DigestRoundTrip, EveryPresetAndWidthRestoresExactly) {
  // The matrix that surfaced the serialization bugs: every session mix,
  // at the measured width and a narrow one, saved mid-stream and
  // restored into a fresh rig.
  const auto presets = workload::session_presets();
  for (std::uint32_t n_ces : {8u, 4u}) {
    os::SystemConfig config;
    config.machine.cluster.n_ces = n_ces;
    for (std::size_t m = 0; m < presets.size(); ++m) {
      Rig rig(presets[m], config, tiny_sampling(), 0x1000 + m);
      rig.controller.advance(3000);
      (void)rig.controller.run_session(1);

      const std::uint64_t before =
          session_digest(rig.system, rig.generator, rig.controller);
      const auto sealed =
          save_session(rig.system, rig.generator, rig.controller);
      Rig fresh(presets[m], config, tiny_sampling(), 0xF000 + m);
      load_session(sealed, fresh.system, fresh.generator, fresh.controller);
      EXPECT_EQ(session_digest(fresh.system, fresh.generator,
                               fresh.controller),
                before)
          << "mix " << presets[m].name << " width " << n_ces;
    }
  }
}

TEST(DigestRoundTrip, MultiClusterWidthsRestoreExactly) {
  // The topology matrix: three mixes at every multi-cluster preset
  // width, saved mid-stream and restored byte-identically (the restored
  // rig re-seals to the very bytes it was loaded from).
  const auto presets = workload::session_presets();
  for (const std::uint32_t width : {16u, 32u, 64u}) {
    os::SystemConfig config;
    config.machine = width == 16   ? fx8::MachineConfig::fx16()
                     : width == 32 ? fx8::MachineConfig::fx32()
                                   : fx8::MachineConfig::fx64();
    for (std::size_t m = 0; m < 3; ++m) {
      Rig rig(presets[m], config, tiny_sampling(), 0x2000 + m);
      rig.controller.advance(3000);
      (void)rig.controller.run_session(1);

      const std::uint64_t before =
          session_digest(rig.system, rig.generator, rig.controller);
      const auto sealed =
          save_session(rig.system, rig.generator, rig.controller);
      Rig fresh(presets[m], config, tiny_sampling(), 0xE000 + m);
      load_session(sealed, fresh.system, fresh.generator, fresh.controller);
      EXPECT_EQ(session_digest(fresh.system, fresh.generator,
                               fresh.controller),
                before)
          << "mix " << presets[m].name << " width " << width;
      EXPECT_EQ(save_session(fresh.system, fresh.generator,
                             fresh.controller),
                sealed)
          << "mix " << presets[m].name << " width " << width;
    }
  }
}

TEST(DigestRoundTrip, DigestsDiscriminateStates) {
  auto a = warm_rig(2, 0x1234);
  auto b = warm_rig(2, 0x1235);
  EXPECT_NE(session_digest(a->system, a->generator, a->controller),
            session_digest(b->system, b->generator, b->controller));

  const std::uint64_t now = session_digest(a->system, a->generator,
                                           a->controller);
  a->controller.advance(1000);
  EXPECT_NE(session_digest(a->system, a->generator, a->controller), now);
}

}  // namespace
}  // namespace repro::core
