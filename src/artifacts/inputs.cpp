#include "artifacts/inputs.hpp"

#include <optional>

#include "base/expect.hpp"
#include "workload/presets.hpp"

namespace repro::artifacts {

namespace {

/// The stored result under `key`, or nullopt on a miss of any kind:
/// absent, truncated, tampered, stale salt, or a blob that unseals but
/// fails the result walk.
template <typename T>
std::optional<T> stored_result(ResultStore* store, std::uint64_t key) {
  if (store != nullptr) {
    if (auto payload = store->get(key)) {
      try {
        return decode_result<T>(std::move(*payload));
      } catch (const capsule::CapsuleError&) {
        // Walk-shape mismatch after a clean unseal: a miss.
      }
    }
  }
  return std::nullopt;
}

/// Run the experiment and write it back to the store.
template <typename T, typename Run>
T store_run(ResultStore* store, std::uint64_t key, const Run& run) {
  T result = run();
  if (store != nullptr) {
    store->put(key, encode_result(result));
  }
  return result;
}

/// Fetch-or-compute through the store: a hit deserializes the cold run's
/// result, a miss runs the experiment and writes back.
template <typename T, typename Run>
T cached_result(ResultStore* store, std::uint64_t key, const Run& run) {
  if (std::optional<T> hit = stored_result<T>(store, key)) {
    return std::move(*hit);
  }
  return store_run<T>(store, key, run);
}

}  // namespace

Inputs::Inputs(bool quick, const std::string& cache_dir)
    : Inputs(quick ? core::presets::quick_study()
                   : core::presets::bench_study(),
             quick ? core::presets::quick_transition()
                   : core::presets::bench_transition(),
             quick, cache_dir) {}

Inputs::Inputs(const core::StudyConfig& study,
               const core::TransitionConfig& transition, bool quick,
               const std::string& cache_dir)
    : quick_(quick), study_config_(study), transition_config_(transition) {
  if (!cache_dir.empty()) {
    store_ = std::make_unique<ResultStore>(cache_dir);
  }
}

const core::StudyResult& Inputs::study() {
  return study_.get([this] {
    return cached_result<core::StudyResult>(
        store_.get(), study_cache_key(study_config_), [this] {
          study_runs_.fetch_add(1, std::memory_order_relaxed);
          // Keyed by study_config_ above: the worker count never
          // changes the result.
          core::StudyConfig config = study_config_;
          config.threads = engine_threads_;
          return core::run_default_study(config);
        });
  });
}

std::unique_ptr<core::StudyPlan> Inputs::study_plan() {
  if (study_for_report() != nullptr) {
    return nullptr;
  }
  return std::make_unique<core::StudyPlan>(workload::session_presets(),
                                           study_config_);
}

const core::StudyResult& Inputs::assemble_study(core::StudyPlan& plan) {
  // study_plan() already missed the store: no second lookup.
  return study_.get([this, &plan] {
    return store_run<core::StudyResult>(
        store_.get(), study_cache_key(study_config_), [this, &plan] {
          study_runs_.fetch_add(1, std::memory_order_relaxed);
          return plan.assemble();
        });
  });
}

const std::vector<core::AnalyzedSample>& Inputs::samples() {
  return samples_.get([this] { return study().all_samples(); });
}

const std::vector<core::AnalyzedSample>& Inputs::samples_with_pc() {
  return samples_with_pc_.get(
      [this] { return core::with_defined_pc(samples()); });
}

const std::vector<core::MedianModel>& Inputs::models() {
  return models_.get([this] { return core::fit_all_models(samples()); });
}

const core::MedianModel& Inputs::model(core::SystemMeasure measure,
                                       core::Regressor regressor) {
  for (const core::MedianModel& model : models()) {
    if (model.measure == measure && model.regressor == regressor) {
      return model;
    }
  }
  REPRO_EXPECT(false, "no fitted model for the requested measure/regressor");
}

const core::TransitionResult& Inputs::transition() {
  return transition_.get([this] {
    return cached_result<core::TransitionResult>(
        store_.get(), transition_cache_key(transition_config_), [this] {
          transition_runs_.fetch_add(1, std::memory_order_relaxed);
          return core::run_transition_study(
              workload::high_concurrency_mix(), transition_config_,
              instr::TriggerMode::kTransitionFromFull);
        });
  });
}

const core::StudyResult* Inputs::study_for_report() {
  if (const core::StudyResult* study = study_.peek()) {
    return study;
  }
  std::optional<core::StudyResult> stored = stored_result<core::StudyResult>(
      store_.get(), study_cache_key(study_config_));
  if (!stored) {
    return nullptr;
  }
  return &study_.get([&stored] { return std::move(*stored); });
}

RunCounts Inputs::run_counts() const {
  RunCounts counts;
  counts.study_runs = study_runs_.load(std::memory_order_relaxed);
  counts.transition_runs = transition_runs_.load(std::memory_order_relaxed);
  counts.private_runs = private_runs_.load(std::memory_order_relaxed);
  return counts;
}

}  // namespace repro::artifacts
