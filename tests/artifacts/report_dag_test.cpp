// The report DAG (artifacts/runner.hpp): concurrent renders against one
// shared Inputs must reproduce the serial report exactly, run every
// shared experiment at most once, honour each artifact's declared
// needs, keep solo artifacts alone, and leave an all-hit run threadless.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "artifacts/registry.hpp"
#include "artifacts/runner.hpp"

namespace repro::artifacts {
namespace {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

ArtifactDef stub(const std::string& id, std::function<void(Context&)> render,
                 Needs needs = {}) {
  ArtifactDef def;
  def.id = id;
  def.paper_ref = "Figure 0";
  def.title = "STUB — " + id;
  def.paper_claim = "synthetic";
  def.render = std::move(render);
  def.needs = needs;
  return def;
}

std::vector<const ArtifactDef*> whole_catalog() {
  std::vector<const ArtifactDef*> defs;
  for (const ArtifactDef& def : catalog()) {
    defs.push_back(&def);
  }
  return defs;
}

bool wall_clock_name(const std::string& name) {
  for (const std::string suffix : {"_per_sec", "_speedup"}) {
    if (name.size() >= suffix.size() &&
        name.compare(name.size() - suffix.size(), suffix.size(), suffix) ==
            0) {
      return true;
    }
  }
  return false;
}

/// The report minus what describes the run rather than the results:
/// wall times, cache counters, and the values perf_simulator measures
/// off its own clock.
std::string normalised(const RunReport& report, const Inputs& inputs) {
  const core::Json doc =
      build_report_json(report, inputs, inputs.study_if_run());
  core::Json out = core::Json::object();
  for (const auto& [key, value] : doc.items()) {
    if (key == "cache") {
      continue;
    }
    if (key == "summary") {
      core::Json summary = core::Json::object();
      for (const auto& [field, body] : value.items()) {
        if (field != "total_seconds") {
          summary.set(field, body);
        }
      }
      out.set(key, summary);
    } else if (key == "artifacts") {
      core::Json list = core::Json::array();
      for (const auto& item : value.items()) {
        core::Json entry = core::Json::object();
        for (const auto& [field, body] : item.second.items()) {
          if (field == "seconds") {
            continue;
          }
          if (field == "metrics") {
            core::Json metrics = core::Json::object();
            for (const auto& [name, metric] : body.items()) {
              if (!wall_clock_name(name)) {
                metrics.set(name, metric);
              }
            }
            entry.set(field, metrics);
          } else if (field == "checks") {
            core::Json checks = core::Json::array();
            for (const auto& check : body.items()) {
              if (!wall_clock_name(check.second.find("name")->as_string())) {
                checks.push_back(check.second);
              }
            }
            entry.set(field, checks);
          } else {
            entry.set(field, body);
          }
        }
        list.push_back(entry);
      }
      out.set(key, list);
    } else {
      out.set(key, value);
    }
  }
  return out.dump(1);
}

class ReportDag : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::path(::testing::TempDir()) /
           ("report_dag_" +
            std::string(::testing::UnitTest::GetInstance()
                            ->current_test_info()
                            ->name()));
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  fs::path dir_;
};

TEST_F(ReportDag, HammeredInputsRunEachExperimentOnce) {
  Inputs inputs(/*quick=*/true);
  constexpr int kThreads = 6;
  constexpr int kNotes = 250;
  std::atomic<int> arrived{0};
  std::vector<const void*> seen(kThreads * 3, nullptr);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      arrived.fetch_add(1);
      while (arrived.load() < kThreads) {
        std::this_thread::yield();
      }
      // Each thread asks in a different order, so every memo is raced.
      for (int step = 0; step < 3; ++step) {
        switch ((t + step) % 3) {
          case 0:
            seen[static_cast<std::size_t>(t * 3)] = &inputs.study();
            break;
          case 1:
            seen[static_cast<std::size_t>(t * 3 + 1)] = &inputs.transition();
            break;
          case 2:
            seen[static_cast<std::size_t>(t * 3 + 2)] = &inputs.models();
            break;
        }
      }
      for (int i = 0; i < kNotes; ++i) {
        inputs.note_private_run();
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  const RunCounts counts = inputs.run_counts();
  EXPECT_EQ(counts.study_runs, 1);
  EXPECT_EQ(counts.transition_runs, 1);
  EXPECT_EQ(counts.private_runs, kThreads * kNotes);
  for (int t = 1; t < kThreads; ++t) {
    for (int k = 0; k < 3; ++k) {
      EXPECT_EQ(seen[static_cast<std::size_t>(t * 3 + k)],
                seen[static_cast<std::size_t>(k)]);
    }
  }
  EXPECT_EQ(inputs.study_if_run(), &inputs.study());
  EXPECT_EQ(inputs.transition_if_run(), &inputs.transition());
}

TEST_F(ReportDag, QuickCatalogIsIdenticalAtOneAndThreeExecutors) {
  const std::vector<const ArtifactDef*> defs = whole_catalog();
  Inputs serial_inputs(/*quick=*/true);
  const RunReport serial = run_artifacts(defs, serial_inputs, {}, 1);
  Inputs pooled_inputs(/*quick=*/true);
  const RunReport pooled = run_artifacts(defs, pooled_inputs, {}, 3);

  EXPECT_EQ(serial.executors, 1u);
  EXPECT_EQ(pooled.executors, 3u);
  EXPECT_EQ(serial.ok, static_cast<int>(defs.size()));
  ASSERT_EQ(serial.results.size(), pooled.results.size());
  for (std::size_t i = 0; i < defs.size(); ++i) {
    EXPECT_EQ(serial.results[i].id, defs[i]->id);
    EXPECT_EQ(pooled.results[i].id, defs[i]->id);
    EXPECT_EQ(serial.results[i].text, pooled.results[i].text)
        << defs[i]->id;
  }
  EXPECT_EQ(serial.run_counts.study_runs, 1);
  EXPECT_EQ(serial.run_counts.transition_runs, 1);
  EXPECT_EQ(pooled.run_counts.study_runs, serial.run_counts.study_runs);
  EXPECT_EQ(pooled.run_counts.transition_runs,
            serial.run_counts.transition_runs);
  EXPECT_EQ(pooled.run_counts.private_runs, serial.run_counts.private_runs);
  EXPECT_EQ(normalised(serial, serial_inputs),
            normalised(pooled, pooled_inputs));
}

TEST_F(ReportDag, NeedsDeclarationsMatchWhatRendersForce) {
  // Seed a store with the shared experiments, so forcing one is a cheap
  // decode rather than a run; the memo is filled either way.
  {
    Inputs seed(/*quick=*/true, dir_.string());
    (void)seed.study();
    (void)seed.transition();
  }
  for (const ArtifactDef& def : catalog()) {
    Inputs inputs(/*quick=*/true, dir_.string());
    const ArtifactResult result = run_artifact(def, inputs);
    EXPECT_EQ(result.status, ArtifactStatus::kOk) << def.id;
    EXPECT_EQ(inputs.study_if_run() != nullptr, def.needs.study) << def.id;
    EXPECT_EQ(inputs.transition_if_run() != nullptr, def.needs.transition)
        << def.id;
    EXPECT_EQ(inputs.run_counts().study_runs, 0) << def.id;
    EXPECT_EQ(inputs.run_counts().transition_runs, 0) << def.id;
  }
}

TEST_F(ReportDag, OnlyPerfSimulatorRendersSolo) {
  for (const ArtifactDef& def : catalog()) {
    EXPECT_EQ(def.needs.solo, def.id == "perf_simulator") << def.id;
  }
}

TEST_F(ReportDag, SoloStartsAfterEveryPooledArtifactFinished) {
  std::mutex mutex;
  std::vector<Clock::time_point> pooled_ends;
  Clock::time_point solo_start;
  const auto pooled = [&](int sleep_ms) {
    return [&, sleep_ms](Context& ctx) {
      std::this_thread::sleep_for(std::chrono::milliseconds(sleep_ms));
      ctx.printf("pooled\n");
      const std::lock_guard<std::mutex> lock(mutex);
      pooled_ends.push_back(Clock::now());
    };
  };
  const ArtifactDef solo = stub(
      "solo",
      [&](Context&) {
        const std::lock_guard<std::mutex> lock(mutex);
        solo_start = Clock::now();
      },
      {.solo = true});
  const ArtifactDef a = stub("a", pooled(40));
  const ArtifactDef b = stub("b", pooled(10));
  const ArtifactDef c = stub("c", pooled(25));
  Inputs inputs(/*quick=*/true);
  // Solo listed first: it is still rendered last, but reported first.
  const RunReport report = run_artifacts({&solo, &a, &b, &c}, inputs, {}, 3);
  ASSERT_EQ(pooled_ends.size(), 3u);
  EXPECT_GE(solo_start,
            *std::max_element(pooled_ends.begin(), pooled_ends.end()));
  ASSERT_EQ(report.results.size(), 4u);
  EXPECT_EQ(report.results[0].id, "solo");
  EXPECT_EQ(report.results[1].id, "a");
  EXPECT_EQ(report.results[3].id, "c");
  // Nothing declared the shared inputs, so no root ran.
  EXPECT_EQ(inputs.study_if_run(), nullptr);
  EXPECT_EQ(inputs.transition_if_run(), nullptr);
}

TEST_F(ReportDag, CallbackStreamsInSelectionOrder) {
  // `slow` finishes last on its own executor, yet is delivered first.
  const ArtifactDef slow = stub("slow", [](Context&) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  });
  const ArtifactDef fast1 = stub("fast1", [](Context&) {});
  const ArtifactDef fast2 = stub("fast2", [](Context&) {});
  Inputs inputs(/*quick=*/true);
  std::vector<std::string> delivered;
  const RunReport report = run_artifacts(
      {&slow, &fast1, &fast2}, inputs,
      [&](const ArtifactResult& result) { delivered.push_back(result.id); },
      2);
  EXPECT_EQ(delivered, (std::vector<std::string>{"slow", "fast1", "fast2"}));
  EXPECT_EQ(report.executors, 2u);
}

TEST_F(ReportDag, AllHitRunCreatesNoPool) {
  const ArtifactDef a = stub(
      "hit_a", [](Context& ctx) { ctx.printf("a\n"); }, {.study = true});
  const ArtifactDef b = stub(
      "hit_b", [](Context& ctx) { ctx.printf("b\n"); }, {.transition = true});
  {
    Inputs cold(/*quick=*/true, dir_.string());
    const RunReport report = run_artifacts({&a, &b}, cold, {}, 3);
    EXPECT_EQ(report.executors, 3u);  // Two roots plus two renders.
    EXPECT_EQ(report.ok, 2);
  }
  Inputs warm(/*quick=*/true, dir_.string());
  std::vector<std::string> delivered;
  const RunReport report = run_artifacts(
      {&a, &b}, warm,
      [&](const ArtifactResult& result) { delivered.push_back(result.id); },
      3);
  EXPECT_EQ(report.executors, 0u);
  EXPECT_EQ(report.ok, 2);
  EXPECT_EQ(report.results[0].text, "a\n");
  EXPECT_EQ(delivered, (std::vector<std::string>{"hit_a", "hit_b"}));
  // The declared roots were never forced: nothing was pending.
  EXPECT_EQ(warm.study_if_run(), nullptr);
  EXPECT_EQ(warm.transition_if_run(), nullptr);
  const RunCounts counts = warm.run_counts();
  EXPECT_EQ(counts.study_runs + counts.transition_runs + counts.private_runs,
            0);
  EXPECT_EQ(warm.store()->stats().misses, 0u);
}

}  // namespace
}  // namespace repro::artifacts
