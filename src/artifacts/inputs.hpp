// The shared study cache behind the artifact pipeline.
//
// Sixteen of the paper's artifacts read the same nine-session
// random-sampling study and two read the same triggered transition
// study; the old one-shot bench binaries re-ran them once each (~20
// study runs per full reproduction). Inputs memoizes each experiment
// the first time an artifact asks for it and hands every later artifact
// the cached result — the experiments run *at most once* per fx8bench
// invocation, which `run_counts()` makes auditable in the JSON report.
//
// Derived views (the flattened sample population, the Pc-defined subset,
// the six fitted regression models) are memoized too, since half the
// artifacts recompute them from the same study.
//
// Every memo is once-per-key and safe to call from many threads: the
// first caller computes under the memo's own mutex, concurrent callers
// wait for it, and later callers read the stored value. The run
// counters are atomic. The report DAG (artifacts/runner.hpp) relies on
// both: its executors render artifacts concurrently against one Inputs.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "artifacts/result_store.hpp"
#include "core/presets.hpp"
#include "core/regression_models.hpp"
#include "core/sample.hpp"
#include "core/study.hpp"
#include "core/transition.hpp"

namespace repro::artifacts {

struct RunCounts {
  int study_runs = 0;       ///< Shared nine-session studies executed.
  int transition_runs = 0;  ///< Shared transition studies executed.
  int private_runs = 0;     ///< Artifact-private simulations executed.
};

/// A value computed at most once, by whichever caller asks first. A
/// throwing computation stores nothing, so the next caller retries.
template <typename T>
class Memo {
 public:
  template <typename Make>
  const T& get(const Make& make) {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (!value_) {
      value_.emplace(make());
    }
    return *value_;
  }

  /// The value if it was computed, else nullptr. Never computes.
  [[nodiscard]] const T* peek() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return value_ ? &*value_ : nullptr;
  }

 private:
  mutable std::mutex mutex_;
  std::optional<T> value_;
};

class Inputs {
 public:
  /// `quick` swaps the paper-scale populations for the CI-scale presets
  /// (core::presets::quick_*) and tells artifact-private simulations to
  /// shrink via scaled().
  ///
  /// A non-empty `cache_dir` opens (creating if needed) the persistent
  /// result store there: study() and transition() consult it before
  /// running and write back after, and the runner caches whole rendered
  /// artifacts through store(). Empty = in-process memoization only,
  /// exactly the pre-cache behaviour.
  explicit Inputs(bool quick = false, const std::string& cache_dir = {});

  /// Inputs over explicit shared-experiment configs instead of the
  /// presets `quick` picks; `quick` still scales the private runs.
  Inputs(const core::StudyConfig& study,
         const core::TransitionConfig& transition, bool quick,
         const std::string& cache_dir = {});

  [[nodiscard]] bool quick() const { return quick_; }
  [[nodiscard]] const core::StudyConfig& study_config() const {
    return study_config_;
  }
  [[nodiscard]] const core::TransitionConfig& transition_config() const {
    return transition_config_;
  }

  /// The shared nine-session study (memoized; runs on first call).
  const core::StudyResult& study();

  /// The shared study as parts for the report DAG to schedule, or
  /// nullptr when the memo or the store already holds it (a store hit
  /// fills the memo). Never simulates.
  [[nodiscard]] std::unique_ptr<core::StudyPlan> study_plan();

  /// study(), with the simulation done by `plan`'s parts: assembles
  /// them into the memo and writes the study back to the store. Counts
  /// as the one study run.
  const core::StudyResult& assemble_study(core::StudyPlan& plan);

  /// study().all_samples(), flattened once.
  const std::vector<core::AnalyzedSample>& samples();

  /// The Pc-defined subset of samples(), filtered once.
  const std::vector<core::AnalyzedSample>& samples_with_pc();

  /// The six Table 3/4 median models over samples(), fitted once.
  const std::vector<core::MedianModel>& models();

  /// One fitted model out of models().
  const core::MedianModel& model(core::SystemMeasure measure,
                                 core::Regressor regressor);

  /// The shared 8-active -> lower transition study (memoized).
  const core::TransitionResult& transition();

  /// The cached study if some artifact already forced it, else nullptr
  /// (for reporting — never triggers a run).
  [[nodiscard]] const core::StudyResult* study_if_run() const {
    return study_.peek();
  }

  /// The cached transition study if some artifact already forced it,
  /// else nullptr. Never triggers a run.
  [[nodiscard]] const core::TransitionResult* transition_if_run() const {
    return transition_.peek();
  }

  /// study_if_run(), except a warm store may satisfy it without a run:
  /// on a fully cached invocation the report's `study_engine` section
  /// still matches the cold run's byte for byte. Never simulates.
  [[nodiscard]] const core::StudyResult* study_for_report();

  /// The persistent store, or nullptr when caching is disabled.
  [[nodiscard]] ResultStore* store() { return store_.get(); }
  [[nodiscard]] const ResultStore* store() const { return store_.get(); }

  /// Key of one rendered artifact under this Inputs' configs.
  [[nodiscard]] std::uint64_t artifact_key(const std::string& id) const {
    return artifact_cache_key(id, study_config_, transition_config_, quick_);
  }

  /// Scale an artifact-private population: `full` normally, `quick`
  /// under --quick. Call note_private_run() next to the simulation so
  /// the run accounting stays honest.
  [[nodiscard]] std::uint32_t scaled(std::uint32_t full,
                                     std::uint32_t quick) const {
    return quick_ ? quick : full;
  }

  /// Worker count for the engines a render starts: a private study, a
  /// bootstrap, and the shared study when study() runs it whole. 0 =
  /// auto (FX8_THREADS, else the core count). The report DAG sets 1
  /// while several renders run at once, so concurrent renders do not
  /// each start a pool (it runs the shared study as its own parts);
  /// results never depend on it. Set only while no render is running.
  [[nodiscard]] std::uint32_t engine_threads() const {
    return engine_threads_;
  }
  void set_engine_threads(std::uint32_t threads) { engine_threads_ = threads; }

  void note_private_run() {
    private_runs_.fetch_add(1, std::memory_order_relaxed);
  }

  /// A snapshot of the run counters.
  [[nodiscard]] RunCounts run_counts() const;

 private:
  bool quick_;
  core::StudyConfig study_config_;
  core::TransitionConfig transition_config_;
  std::unique_ptr<ResultStore> store_;
  std::uint32_t engine_threads_ = 0;
  Memo<core::StudyResult> study_;
  Memo<std::vector<core::AnalyzedSample>> samples_;
  Memo<std::vector<core::AnalyzedSample>> samples_with_pc_;
  Memo<std::vector<core::MedianModel>> models_;
  Memo<core::TransitionResult> transition_;
  std::atomic<int> study_runs_{0};
  std::atomic<int> transition_runs_{0};
  std::atomic<int> private_runs_{0};
};

}  // namespace repro::artifacts
