#include "core/study.hpp"

#include <algorithm>
#include <future>
#include <memory>
#include <utility>

#include "base/expect.hpp"
#include "base/rng.hpp"
#include "base/thread_pool.hpp"
#include "core/checkpoint.hpp"

namespace repro::core {

namespace {

/// Replicate count a config resolves to (always >= 1, never more than
/// one replicate per sample).
std::uint32_t resolve_replicates(const StudyConfig& config) {
  const std::uint32_t requested = std::max(1u, config.replicates_per_session);
  return std::min(requested, std::max(1u, config.samples_per_session));
}

/// Seed for replicate `r` of a session. Replicate 0 consumes the session
/// seed unchanged, so replicates_per_session=1 reproduces the classic
/// single-system session stream bit-for-bit.
std::uint64_t replicate_seed(std::uint64_t session_seed,
                             std::uint32_t replicate) {
  return replicate == 0
             ? session_seed
             : mix64(session_seed ^ (0xFA57F00DULL + replicate));
}

/// Samples replicate `r` takes: an even split, earlier replicates taking
/// the remainder.
std::uint32_t replicate_samples(const StudyConfig& config,
                                std::uint32_t replicate,
                                std::uint32_t replicates) {
  return config.samples_per_session / replicates +
         (replicate < config.samples_per_session % replicates ? 1 : 0);
}

/// One replicate's complete measurement rig. Members are declared in
/// construction-dependency order: the controller holds references to the
/// system and the generator.
struct SessionRig {
  os::System system;
  workload::WorkloadGenerator generator;
  instr::SessionController controller;

  SessionRig(const workload::WorkloadMix& mix, const StudyConfig& config,
             const instr::SamplingConfig& sampling, std::uint64_t seed)
      : system(config.system),
        generator(mix, mix64(seed ^ 0xABCD)),
        controller(system, generator, sampling, mix64(seed ^ 0x5A5A)) {}
};

/// Run replicate `replicate` of a session: its own system, generator,
/// and controller, warmed up and sampled — one study part. A pure
/// function of its arguments. With checkpoint sharding on, the rig is
/// capsuled, destroyed, rebuilt, and restored at every shard boundary —
/// digest-checked bit-identity with the uninterrupted run, so the sample
/// stream is unchanged.
StudyPart run_replicate(const workload::WorkloadMix& mix,
                        const StudyConfig& config, std::uint64_t session_seed,
                        std::uint32_t replicate, std::uint32_t replicates) {
  const std::uint64_t seed = replicate_seed(session_seed, replicate);
  const std::uint32_t n_samples =
      replicate_samples(config, replicate, replicates);
  instr::SamplingConfig sampling = config.sampling;
  sampling.fast_forward = sampling.fast_forward && config.fast_forward;
  auto rig = std::make_unique<SessionRig>(mix, config, sampling, seed);

  // Warm up: let the workload reach steady state before sampling.
  rig->controller.advance(config.warmup_cycles);

  StudyPart part;
  part.width = rig->system.machine().total_ces();
  part.samples.reserve(n_samples);
  const std::uint32_t shard = config.checkpoint_every_samples;
  std::uint32_t taken = 0;
  while (taken < n_samples) {
    const std::uint32_t batch =
        shard == 0 ? n_samples - taken : std::min(shard, n_samples - taken);
    const auto records = rig->controller.run_session(batch);
    for (const instr::SampleRecord& record : records) {
      part.samples.push_back(analyze(record, part.width));
      part.totals.merge(record.hw);
    }
    taken += batch;
    if (shard != 0 && taken < n_samples) {
      // Shard boundary: round-trip the whole rig through a capsule and
      // assert the restored copy is bit-identical to the one torn down.
      const std::uint64_t before =
          session_digest(rig->system, rig->generator, rig->controller);
      const auto sealed =
          save_session(rig->system, rig->generator, rig->controller);
      rig = std::make_unique<SessionRig>(mix, config, sampling, seed);
      load_session(sealed, rig->system, rig->generator, rig->controller);
      REPRO_ENSURE(session_digest(rig->system, rig->generator,
                                  rig->controller) == before,
                   "checkpoint restore diverged from the saved session");
    }
  }
  part.ff = rig->controller.ff_stats();
  return part;
}

/// Fold a session's replicate parts, in replicate order, into the
/// SessionResult — the same arithmetic whether the parts were computed
/// serially or on the pool.
SessionResult merge_parts(const workload::WorkloadMix& mix,
                          std::vector<StudyPart> parts) {
  SessionResult result;
  result.name = mix.name;
  std::uint32_t width = kMaxCes;
  std::size_t total = 0;
  for (const StudyPart& part : parts) {
    total += part.samples.size();
  }
  result.samples.reserve(total);
  for (StudyPart& part : parts) {
    width = part.width;
    result.samples.insert(result.samples.end(),
                          std::make_move_iterator(part.samples.begin()),
                          std::make_move_iterator(part.samples.end()));
    result.totals.merge(part.totals);
    result.ff.skipped_cycles += part.ff.skipped_cycles;
    result.ff.naive_cycles += part.ff.naive_cycles;
    result.ff.block_cycles += part.ff.block_cycles;
    result.ff.jumps += part.ff.jumps;
  }
  result.overall = ConcurrencyMeasures::from_counts(
      std::span(result.totals.num).first(width + 1));
  return result;
}

}  // namespace

std::vector<AnalyzedSample> StudyResult::all_samples() const {
  std::size_t total = 0;
  for (const SessionResult& session : sessions) {
    total += session.samples.size();
  }
  std::vector<AnalyzedSample> all;
  all.reserve(total);
  for (const SessionResult& session : sessions) {
    all.insert(all.end(), session.samples.begin(), session.samples.end());
  }
  return all;
}

std::uint32_t resolve_threads(const StudyConfig& config) {
  return static_cast<std::uint32_t>(
      base::ThreadPool::resolve_workers(config.threads));
}

SessionResult run_session(const workload::WorkloadMix& mix,
                          const StudyConfig& config,
                          std::uint64_t session_seed) {
  const std::uint32_t replicates = resolve_replicates(config);
  std::vector<StudyPart> parts;
  parts.reserve(replicates);
  for (std::uint32_t r = 0; r < replicates; ++r) {
    parts.push_back(run_replicate(mix, config, session_seed, r, replicates));
  }
  return merge_parts(mix, std::move(parts));
}

StudyPlan::StudyPlan(std::span<const workload::WorkloadMix> mixes,
                     const StudyConfig& config)
    : mixes_(mixes.begin(), mixes.end()),
      config_(config),
      replicates_(resolve_replicates(config)),
      parts_(mixes.size() * replicates_) {
  std::uint64_t seed_state = config.seed;
  seeds_.reserve(mixes.size());
  for (std::size_t i = 0; i < mixes.size(); ++i) {
    seeds_.push_back(splitmix64(seed_state));
  }
}

void StudyPlan::run_part(std::size_t part) {
  REPRO_EXPECT(part < parts_.size(), "study part out of range");
  const std::size_t mix = part / replicates_;
  parts_[part] =
      run_replicate(mixes_[mix], config_, seeds_[mix],
                    static_cast<std::uint32_t>(part % replicates_),
                    replicates_);
}

StudyResult StudyPlan::assemble() {
  StudyResult study;
  study.sessions.reserve(mixes_.size());
  for (std::size_t i = 0; i < mixes_.size(); ++i) {
    std::vector<StudyPart> parts;
    parts.reserve(replicates_);
    for (std::uint32_t r = 0; r < replicates_; ++r) {
      std::optional<StudyPart>& part = parts_[i * replicates_ + r];
      REPRO_EXPECT(part.has_value(), "study part not run before assembly");
      parts.push_back(std::move(*part));
      part.reset();
    }
    study.sessions.push_back(merge_parts(mixes_[i], std::move(parts)));
  }
  for (const SessionResult& session : study.sessions) {
    study.totals.merge(session.totals);
    study.ff.skipped_cycles += session.ff.skipped_cycles;
    study.ff.naive_cycles += session.ff.naive_cycles;
    study.ff.block_cycles += session.ff.block_cycles;
    study.ff.jumps += session.ff.jumps;
  }
  const std::uint32_t width =
      study.sessions.empty() ? kMaxCes
                             : study.sessions.front().overall.width;
  study.overall = ConcurrencyMeasures::from_counts(
      std::span(study.totals.num).first(width + 1));
  return study;
}

StudyResult run_study(std::span<const workload::WorkloadMix> mixes,
                      const StudyConfig& config) {
  StudyPlan plan(mixes, config);
  // Each part owns its replicate's independent os::System; the only
  // shared state is the plan's read-only mixes, config and seeds. A pool
  // of 0 workers runs the parts inline, in order.
  const std::size_t tasks = plan.parts();
  const std::size_t threads = resolve_threads(config);
  base::ThreadPool pool(threads <= 1 || tasks <= 1 ? 0
                                                   : std::min(threads, tasks));
  std::vector<std::future<void>> futures;
  futures.reserve(tasks);
  for (std::size_t part = 0; part < tasks; ++part) {
    futures.push_back(pool.submit([&plan, part] { plan.run_part(part); }));
  }
  for (std::future<void>& future : futures) {
    future.get();
  }
  return plan.assemble();
}

StudyResult run_default_study(const StudyConfig& config) {
  const auto mixes = workload::session_presets();
  return run_study(mixes, config);
}

void serialize_config(capsule::Io& io, StudyConfig& config) {
  os::serialize_config(io, config.system);
  instr::serialize_config(io, config.sampling);
  io.u32(config.samples_per_session);
  io.u64(config.warmup_cycles);
  io.u64(config.seed);
  io.u32(config.threads);
  io.boolean(config.fast_forward);
  io.u32(config.replicates_per_session);
  io.u32(config.checkpoint_every_samples);
}

void SessionResult::serialize(capsule::Io& io) {
  io.str(name);
  static const std::uint64_t kSampleBytes =
      capsule::encoded_size<AnalyzedSample>();
  auto count = io.extent(samples.size(), kSampleBytes);
  samples.resize(count);
  for (AnalyzedSample& sample : samples) {
    sample.serialize(io);
  }
  totals.serialize(io);
  overall.serialize(io);
  ff.serialize(io);
}

void StudyResult::serialize(capsule::Io& io) {
  auto count = io.extent(sessions.size());
  sessions.resize(count);
  for (SessionResult& session : sessions) {
    session.serialize(io);
  }
  totals.serialize(io);
  overall.serialize(io);
  ff.serialize(io);
}

}  // namespace repro::core
