#include "artifacts/inputs.hpp"

#include "base/expect.hpp"
#include "workload/presets.hpp"

namespace repro::artifacts {

namespace {

/// Fetch-or-compute through the store: a hit deserializes the cold run's
/// result, a miss (of any kind — absent, truncated, tampered, stale
/// salt) runs the experiment and writes back. A blob that unseals but
/// fails the result walk is also just a miss.
template <typename T, typename Run>
T cached_result(ResultStore* store, std::uint64_t key, const Run& run) {
  if (store != nullptr) {
    if (auto payload = store->get(key)) {
      try {
        return decode_result<T>(std::move(*payload));
      } catch (const capsule::CapsuleError&) {
        // Walk-shape mismatch after a clean unseal: recompute below.
      }
    }
  }
  T result = run();
  if (store != nullptr) {
    store->put(key, encode_result(result));
  }
  return result;
}

}  // namespace

Inputs::Inputs(bool quick, const std::string& cache_dir)
    : quick_(quick),
      study_config_(quick ? core::presets::quick_study()
                          : core::presets::bench_study()),
      transition_config_(quick ? core::presets::quick_transition()
                               : core::presets::bench_transition()) {
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
  if (store_ == nullptr) {
    return nullptr;
  }
  auto payload = store_->get(study_cache_key(study_config_));
  if (!payload) {
    return nullptr;
  }
  try {
    core::StudyResult decoded =
        decode_result<core::StudyResult>(std::move(*payload));
    return &study_.get([&decoded] { return std::move(decoded); });
  } catch (const capsule::CapsuleError&) {
    return nullptr;
  }
}

RunCounts Inputs::run_counts() const {
  RunCounts counts;
  counts.study_runs = study_runs_.load(std::memory_order_relaxed);
  counts.transition_runs = transition_runs_.load(std::memory_order_relaxed);
  counts.private_runs = private_runs_.load(std::memory_order_relaxed);
  return counts;
}

}  // namespace repro::artifacts
