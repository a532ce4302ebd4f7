// The report DAG (artifacts/runner.hpp): concurrent renders against one
// shared Inputs must reproduce the serial report exactly, run every
// shared experiment at most once (the study as its session parts),
// honour each artifact's declared needs, and leave an all-hit run
// threadless.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "artifacts/registry.hpp"
#include "artifacts/runner.hpp"
#include "base/capsule.hpp"
#include "core/presets.hpp"

namespace repro::artifacts {
namespace {

namespace fs = std::filesystem;

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

std::uint64_t digest_of(const core::StudyResult& study) {
  capsule::Io io = capsule::Io::digester();
  core::StudyResult copy = study;
  copy.serialize(io);
  return io.digest();
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

  // Both assembled the study from parts; it is the serial engine's.
  core::StudyConfig config = core::presets::quick_study();
  config.threads = 1;
  const std::uint64_t expected = digest_of(core::run_default_study(config));
  ASSERT_NE(serial_inputs.study_if_run(), nullptr);
  ASSERT_NE(pooled_inputs.study_if_run(), nullptr);
  EXPECT_EQ(digest_of(*serial_inputs.study_if_run()), expected);
  EXPECT_EQ(digest_of(*pooled_inputs.study_if_run()), expected);
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

TEST_F(ReportDag, StoredStudyQueuesNoParts) {
  {
    Inputs seed(/*quick=*/true, dir_.string());
    (void)seed.study();
  }
  const ArtifactDef reader = stub(
      "reader",
      [](Context& ctx) {
        ctx.printf("%zu sessions\n", ctx.in().study().sessions.size());
      },
      {.study = true});
  Inputs inputs(/*quick=*/true, dir_.string());
  const RunReport report = run_artifacts({&reader}, inputs, {}, 3);
  EXPECT_EQ(report.ok, 1);
  EXPECT_EQ(report.results[0].text, "9 sessions\n");
  EXPECT_EQ(report.run_counts.study_runs, 0);
  // The render was the graph's only task: no parts, no assembly.
  EXPECT_EQ(report.executors, 1u);
}

TEST_F(ReportDag, ThrowingStudyPartFailsItsDependents) {
  // No snapshots per sample: every part's session controller throws.
  core::StudyConfig broken = core::presets::quick_study();
  broken.sampling.snapshots_per_sample = 0;
  Inputs inputs(broken, core::presets::quick_transition(), /*quick=*/true);
  const ArtifactDef reader = stub(
      "reader", [](Context& ctx) { (void)ctx.in().samples(); },
      {.study = true});
  const ArtifactDef bystander =
      stub("bystander", [](Context& ctx) { ctx.printf("fine\n"); });
  const RunReport report =
      run_artifacts({&reader, &bystander}, inputs, {}, 2);
  ASSERT_EQ(report.results.size(), 2u);
  EXPECT_EQ(report.results[0].status, ArtifactStatus::kError);
  EXPECT_NE(report.results[0].error.find("snapshot"), std::string::npos)
      << report.results[0].error;
  EXPECT_EQ(report.results[1].status, ArtifactStatus::kOk);
  EXPECT_EQ(report.errors, 1);
  EXPECT_EQ(report.exit_code(), 2);
  EXPECT_EQ(inputs.study_if_run(), nullptr);
}

TEST_F(ReportDag, StudyOnlySelectionSharesTheStudyAcrossExecutors) {
  const ArtifactDef* table3 = find_artifact("table3");
  ASSERT_NE(table3, nullptr);
  ASSERT_TRUE(table3->needs.study);
  Inputs serial_inputs(/*quick=*/true);
  const RunReport serial = run_artifacts({table3}, serial_inputs, {}, 1);
  Inputs pooled_inputs(/*quick=*/true);
  const RunReport pooled = run_artifacts({table3}, pooled_inputs, {}, 2);
  // Nine parts, the assembly and the render: both executors take parts.
  EXPECT_EQ(pooled.executors, 2u);
  EXPECT_EQ(pooled.ok, 1);
  EXPECT_EQ(pooled.run_counts.study_runs, 1);
  EXPECT_EQ(pooled.results[0].text, serial.results[0].text);
}

TEST_F(ReportDag, BusySecondsFitTheExecutors) {
  const auto sleeper = [](Context& ctx) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    ctx.printf("slept\n");
  };
  const ArtifactDef a = stub("busy_a", sleeper);
  const ArtifactDef b = stub("busy_b", sleeper);
  const ArtifactDef c = stub("busy_c", sleeper);
  {
    Inputs cold(/*quick=*/true, dir_.string());
    const RunReport report = run_artifacts({&a, &b, &c}, cold, {}, 2);
    EXPECT_EQ(report.executors, 2u);
    EXPECT_GT(report.busy_seconds, 0.0);
    EXPECT_LE(report.busy_seconds,
              static_cast<double>(report.executors) * report.total_seconds);
  }
  Inputs warm(/*quick=*/true, dir_.string());
  const RunReport report = run_artifacts({&a, &b, &c}, warm, {}, 2);
  EXPECT_EQ(report.executors, 0u);
  EXPECT_EQ(report.busy_seconds, 0.0);
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
    EXPECT_EQ(report.executors, 3u);  // Parts, transition, two renders.
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
