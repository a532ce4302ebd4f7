// Determinism contract of the parallel study engine: a study run with N
// worker threads is bit-identical to the serial run — same totals, same
// per-session measures, same regression coefficients (see
// docs/parallel_execution.md).
#include "core/study.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <numeric>
#include <random>
#include <thread>
#include <vector>

#include "base/capsule.hpp"
#include "base/expect.hpp"
#include "core/regression_models.hpp"

namespace repro::core {
namespace {

StudyConfig quick_config(std::uint32_t threads) {
  StudyConfig config;
  config.samples_per_session = 2;
  config.sampling.interval_cycles = 15000;
  config.warmup_cycles = 3000;
  config.threads = threads;
  return config;
}

void expect_identical(const StudyResult& serial, const StudyResult& pooled,
                      bool compare_models = true) {
  ASSERT_EQ(serial.sessions.size(), pooled.sessions.size());
  EXPECT_EQ(serial.totals.num, pooled.totals.num);
  EXPECT_EQ(serial.totals.proc, pooled.totals.proc);
  EXPECT_EQ(serial.totals.ceop, pooled.totals.ceop);
  EXPECT_EQ(serial.totals.membop, pooled.totals.membop);
  EXPECT_EQ(serial.totals.records, pooled.totals.records);
  EXPECT_EQ(serial.overall.cw, pooled.overall.cw);
  EXPECT_EQ(serial.overall.pc, pooled.overall.pc);
  for (std::size_t s = 0; s < serial.sessions.size(); ++s) {
    const SessionResult& a = serial.sessions[s];
    const SessionResult& b = pooled.sessions[s];
    EXPECT_EQ(a.name, b.name);
    EXPECT_EQ(a.totals.num, b.totals.num);
    EXPECT_EQ(a.overall.cw, b.overall.cw);
    EXPECT_EQ(a.overall.pc, b.overall.pc);
    ASSERT_EQ(a.samples.size(), b.samples.size());
    for (std::size_t i = 0; i < a.samples.size(); ++i) {
      EXPECT_EQ(a.samples[i].measures.cw, b.samples[i].measures.cw);
      EXPECT_EQ(a.samples[i].miss_rate, b.samples[i].miss_rate);
      EXPECT_EQ(a.samples[i].bus_busy, b.samples[i].bus_busy);
    }
  }
  // The Table 3/4 regressions derive from the samples; coefficients must
  // match to the last bit. (Needs enough samples to occupy three median
  // bins, so the truncated-mix tests skip it.)
  if (!compare_models) {
    return;
  }
  const auto models_a = fit_all_models(serial.all_samples());
  const auto models_b = fit_all_models(pooled.all_samples());
  ASSERT_EQ(models_a.size(), models_b.size());
  for (std::size_t m = 0; m < models_a.size(); ++m) {
    ASSERT_EQ(models_a[m].fit.has_value(), models_b[m].fit.has_value());
    if (models_a[m].fit) {
      EXPECT_EQ(models_a[m].fit->coeffs, models_b[m].fit->coeffs);
      EXPECT_EQ(models_a[m].fit->r_squared, models_b[m].fit->r_squared);
    }
  }
}

TEST(StudyParallel, EightThreadsBitIdenticalToSerial) {
  const auto mixes = workload::session_presets();
  const StudyResult serial = run_study(mixes, quick_config(1));
  const StudyResult pooled = run_study(mixes, quick_config(8));
  expect_identical(serial, pooled);
}

TEST(StudyParallel, TwoThreadsBitIdenticalToSerial) {
  const auto mixes = workload::session_presets();
  std::vector<workload::WorkloadMix> three(mixes.begin(), mixes.begin() + 3);
  const StudyResult serial = run_study(three, quick_config(1));
  const StudyResult pooled = run_study(three, quick_config(2));
  expect_identical(serial, pooled, /*compare_models=*/false);
}

TEST(StudyParallel, MoreThreadsThanSessionsIsFine) {
  const auto mixes = workload::session_presets();
  std::vector<workload::WorkloadMix> two(mixes.begin(), mixes.begin() + 2);
  const StudyResult serial = run_study(two, quick_config(1));
  const StudyResult pooled = run_study(two, quick_config(16));
  expect_identical(serial, pooled, /*compare_models=*/false);
}

TEST(StudyParallel, ResolveThreadsPrefersConfigThenEnv) {
  EXPECT_EQ(resolve_threads(quick_config(4)), 4u);
  ASSERT_EQ(setenv("FX8_THREADS", "6", 1), 0);
  EXPECT_EQ(resolve_threads(quick_config(0)), 6u);
  EXPECT_EQ(resolve_threads(quick_config(4)), 4u);
  ASSERT_EQ(unsetenv("FX8_THREADS"), 0);
  EXPECT_GE(resolve_threads(quick_config(0)), 1u);
}

std::uint64_t digest_of(const StudyResult& study) {
  capsule::Io io = capsule::Io::digester();
  StudyResult copy = study;
  copy.serialize(io);
  return io.digest();
}

// The study plan is run_study's only engine; the report DAG runs its
// parts as graph tasks in whatever order its executors reach them. Any
// order, on any threads, must assemble to the same study.
TEST(StudyPlan, PartsInAnyOrderAssembleToRunStudy) {
  const auto mixes = workload::session_presets();
  StudyConfig config = quick_config(1);
  config.replicates_per_session = 2;  // Parts are (session, replicate).
  const std::uint64_t serial = digest_of(run_study(mixes, config));
  config.threads = 2;
  EXPECT_EQ(digest_of(run_study(mixes, config)), serial);

  StudyPlan reversed(mixes, config);
  ASSERT_EQ(reversed.parts(), mixes.size() * 2);
  for (std::size_t part = reversed.parts(); part-- > 0;) {
    reversed.run_part(part);
  }
  EXPECT_EQ(digest_of(reversed.assemble()), serial);

  // Shuffled, and dealt alternately to two threads running at once.
  StudyPlan shuffled(mixes, config);
  std::vector<std::size_t> order(shuffled.parts());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::shuffle(order.begin(), order.end(), std::mt19937(1987));
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < 2; ++t) {
    threads.emplace_back([&shuffled, &order, t] {
      for (std::size_t i = t; i < order.size(); i += 2) {
        shuffled.run_part(order[i]);
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(digest_of(shuffled.assemble()), serial);
}

TEST(StudyPlan, AssemblingWithAPartMissingThrows) {
  const auto mixes = workload::session_presets();
  StudyPlan plan(mixes, quick_config(1));
  for (std::size_t part = 1; part < plan.parts(); ++part) {
    plan.run_part(part);
  }
  EXPECT_THROW((void)plan.assemble(), ContractViolation);
}

}  // namespace
}  // namespace repro::core
