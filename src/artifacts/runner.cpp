#include "artifacts/runner.hpp"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <exception>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <utility>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "artifacts/registry.hpp"
#include "base/thread_pool.hpp"
#include "core/study.hpp"

namespace repro::artifacts {

namespace {

constexpr const char* kRule =
    "=============================================================";

double seconds_since(std::chrono::steady_clock::time_point start) {
  const auto elapsed = std::chrono::steady_clock::now() - start;
  return std::chrono::duration<double>(elapsed).count();
}

core::Json check_json(const Check& check) {
  core::Json object = core::Json::object();
  object.set("name", check.name);
  object.set("measured", check.measured);
  object.set("paper", check.paper);
  object.set("lo", check.lo);
  object.set("hi", check.hi);
  object.set("pass", check.pass);
  object.set("enforced", check.enforced);
  return object;
}

core::Json result_json(const ArtifactResult& result,
                       const ArtifactDef* def) {
  core::Json object = core::Json::object();
  object.set("id", result.id);
  if (def != nullptr) {
    object.set("kind", to_string(def->kind));
    object.set("paper_ref", def->paper_ref);
    object.set("title", def->title);
    object.set("paper_claim", def->paper_claim);
  }
  object.set("status", to_string(result.status));
  if (!result.error.empty()) {
    object.set("error", result.error);
  }
  object.set("seconds", result.seconds);
  core::Json metrics = core::Json::object();
  for (const Metric& metric : result.metrics) {
    metrics.set(metric.name, metric.value);
  }
  object.set("metrics", metrics);
  core::Json checks = core::Json::array();
  for (const Check& check : result.checks) {
    checks.push_back(check_json(check));
  }
  object.set("checks", checks);
  return object;
}

}  // namespace

int RunReport::exit_code() const {
  if (errors > 0) {
    return 2;
  }
  return tolerance_failed > 0 ? 1 : 0;
}

std::string render_header(const ArtifactDef& def) {
  std::string header;
  header += kRule;
  header += '\n';
  header += def.title;
  header += "\nPaper: ";
  header += def.paper_claim;
  header += '\n';
  header += kRule;
  header += "\n\n";
  return header;
}

namespace {

/// The warm half of run_artifact: the artifact restored whole from the
/// store (text, metrics, checks), or nullopt on any kind of miss. A
/// corrupt or stale blob is a miss and falls through to the render.
std::optional<ArtifactResult> lookup_artifact(const ArtifactDef& def,
                                              Inputs& inputs) {
  ResultStore* store = inputs.store();
  if (store == nullptr) {
    return std::nullopt;
  }
  if (auto payload = store->get(inputs.artifact_key(def.id))) {
    try {
      ArtifactResult cached =
          decode_result<ArtifactResult>(std::move(*payload));
      if (cached.id == def.id) {
        return cached;
      }
    } catch (const capsule::CapsuleError&) {
    }
  }
  return std::nullopt;
}

/// The cold half: render, time, and cache the result.
ArtifactResult render_artifact(const ArtifactDef& def, Inputs& inputs) {
  const auto start = std::chrono::steady_clock::now();
  Context ctx(inputs);
  try {
    def.render(ctx);
  } catch (const std::exception& error) {
    ctx.fail(error.what());
  } catch (...) {
    ctx.fail("unknown exception");
  }
  ArtifactResult result = ctx.take();
  result.id = def.id;
  result.seconds = seconds_since(start);
  // Only clean renders are cached: a tolerance failure or error is cheap
  // to reproduce and should never be served from disk once fixed.
  ResultStore* store = inputs.store();
  if (store != nullptr && result.status == ArtifactStatus::kOk) {
    store->put(inputs.artifact_key(def.id), encode_result(result));
  }
  return result;
}

/// Hand the heap a pooled render freed back to the OS. Concurrent
/// renders allocate from separate glibc arenas, and the slack each one
/// keeps would otherwise stack up in the process's peak RSS.
void return_free_memory() {
#if defined(__GLIBC__)
  malloc_trim(0);
#endif
}

/// One run of the report DAG over the store misses of a selection.
///
/// Tasks are the shared study's parts and their assembly, the shared
/// transition, and the pending artifacts. The transition is queued only
/// when some pending artifact declares it, the study parts only when one
/// declares the study and neither the memo nor the store holds it. The
/// queue starts with the transition, then the artifacts that need no
/// shared input (the private runs), then the study parts, which fill the
/// executors' tail. The last part to finish queues the assembly at the
/// front; the assembly and the transition each release the artifacts
/// waiting on them. Executors pull from the one queue until every task
/// is done. A failed part or transition is swallowed: its dependents
/// force the input again and report the failure as their own render
/// error, as a serial run would.
class ReportDag {
 public:
  ReportDag(const std::vector<const ArtifactDef*>& defs, Inputs& inputs,
            std::vector<std::optional<ArtifactResult>>& results,
            const ResultCallback& on_result,
            std::vector<std::size_t> pending)
      : defs_(defs),
        inputs_(inputs),
        on_result_(on_result),
        pending_(std::move(pending)),
        results_(results),
        inputs_left_(defs.size(), 0) {
    Needs declared;  // The shared inputs some pending artifact reads.
    for (const std::size_t slot : pending_) {
      declared.study = declared.study || defs_[slot]->needs.study;
      declared.transition =
          declared.transition || defs_[slot]->needs.transition;
    }
    if (declared.study) {
      plan_ = inputs_.study_plan();
    }
    if (declared.transition) {
      ready_.push_back({Task::kTransition, 0});
    }
    for (const std::size_t slot : pending_) {
      const Needs& needs = defs_[slot]->needs;
      inputs_left_[slot] =
          (needs.study && plan_ ? 1 : 0) + (needs.transition ? 1 : 0);
      if (inputs_left_[slot] == 0) {
        ready_.push_back({Task::kArtifact, slot});
      }
    }
    unfinished_ = pending_.size() + (declared.transition ? 1 : 0);
    if (plan_) {
      parts_left_ = plan_->parts();
      for (std::size_t part = 0; part < parts_left_; ++part) {
        ready_.push_back({Task::kPart, part});
      }
      unfinished_ += parts_left_ + 1;  // The parts and their assembly.
    }
  }

  /// Tasks for the executors: parts, assembly, transition, artifacts.
  [[nodiscard]] std::size_t tasks() const { return unfinished_; }

  /// Summed task wall time over every executor that has returned.
  [[nodiscard]] double busy_seconds() const { return busy_seconds_; }

  /// One executor: run tasks until the graph is drained.
  void work() {
    double busy = 0.0;
    for (;;) {
      Task task{};
      {
        std::unique_lock<std::mutex> lock(mutex_);
        cv_.wait(lock,
                 [this] { return !ready_.empty() || unfinished_ == 0; });
        if (ready_.empty()) {
          busy_seconds_ += busy;
          return;
        }
        task = ready_.front();
        ready_.pop_front();
      }
      const auto start = std::chrono::steady_clock::now();
      finish(task, run(task));
      busy += seconds_since(start);
      deliver();
    }
  }

  /// Hand the caller every leading result that is done and not yet
  /// delivered. A filled slot is never written again, so the callback
  /// reads it outside the graph's lock.
  void deliver() {
    const std::lock_guard<std::mutex> delivering(deliver_mutex_);
    for (;;) {
      const ArtifactResult* next = nullptr;
      {
        const std::lock_guard<std::mutex> lock(mutex_);
        if (next_ < results_.size() && results_[next_].has_value()) {
          next = &*results_[next_];
        }
      }
      if (next == nullptr) {
        return;
      }
      if (on_result_) {
        on_result_(*next);
      }
      ++next_;
    }
  }

 private:
  struct Task {
    enum Kind { kPart, kAssemble, kTransition, kArtifact } kind;
    std::size_t index;  ///< The part, or the artifact's slot.
  };

  std::optional<ArtifactResult> run(const Task& task) {
    try {
      switch (task.kind) {
        case Task::kPart:
          plan_->run_part(task.index);
          return std::nullopt;
        case Task::kAssemble:
          (void)inputs_.assemble_study(*plan_);
          return std::nullopt;
        case Task::kTransition:
          (void)inputs_.transition();
          return std::nullopt;
        case Task::kArtifact:
          break;
      }
    } catch (...) {
      return std::nullopt;  // Dependents retry and report it.
    }
    ArtifactResult result = render_artifact(*defs_[task.index], inputs_);
    return_free_memory();
    return result;
  }

  /// Record a finished task: store an artifact's result, queue the
  /// assembly after the last part, or release the artifacts that were
  /// waiting on a shared input.
  void finish(const Task& task, std::optional<ArtifactResult> result) {
    const std::lock_guard<std::mutex> lock(mutex_);
    switch (task.kind) {
      case Task::kArtifact:
        results_[task.index] = std::move(result);
        break;
      case Task::kPart:
        if (--parts_left_ == 0) {
          ready_.push_front({Task::kAssemble, 0});
        }
        break;
      case Task::kAssemble:
      case Task::kTransition: {
        const bool study = task.kind == Task::kAssemble;
        for (const std::size_t slot : pending_) {
          const Needs& needs = defs_[slot]->needs;
          if ((study ? needs.study : needs.transition) &&
              --inputs_left_[slot] == 0) {
            ready_.push_back({Task::kArtifact, slot});
          }
        }
        break;
      }
    }
    --unfinished_;
    cv_.notify_all();
  }

  const std::vector<const ArtifactDef*>& defs_;
  Inputs& inputs_;
  const ResultCallback& on_result_;
  const std::vector<std::size_t> pending_;
  std::unique_ptr<core::StudyPlan> plan_;  ///< Null: no study to run.
  std::mutex mutex_;
  std::condition_variable cv_;
  std::vector<std::optional<ArtifactResult>>& results_;  ///< By mutex_.
  std::vector<int> inputs_left_;  ///< Per slot: shared inputs not done.
  std::deque<Task> ready_;
  std::size_t parts_left_ = 0;  ///< Study parts not yet finished.
  std::size_t unfinished_ = 0;  ///< Graph tasks not yet finished.
  double busy_seconds_ = 0.0;   ///< Returned executors' task time.
  std::mutex deliver_mutex_;    ///< Serializes on_result_ calls.
  std::size_t next_ = 0;        ///< First undelivered slot; deliver_mutex_.
};

}  // namespace

ArtifactResult run_artifact(const ArtifactDef& def, Inputs& inputs) {
  const auto start = std::chrono::steady_clock::now();
  if (std::optional<ArtifactResult> cached = lookup_artifact(def, inputs)) {
    cached->seconds = seconds_since(start);
    return std::move(*cached);
  }
  return render_artifact(def, inputs);
}

RunReport run_artifacts(const std::vector<const ArtifactDef*>& defs,
                        Inputs& inputs, const ResultCallback& on_result,
                        std::size_t executors) {
  RunReport report;
  const auto start = std::chrono::steady_clock::now();

  // Store lookups first, serially: an all-hit run never starts a thread.
  std::vector<std::optional<ArtifactResult>> results(defs.size());
  std::vector<std::size_t> pending;
  for (std::size_t slot = 0; slot < defs.size(); ++slot) {
    const auto lookup_start = std::chrono::steady_clock::now();
    results[slot] = lookup_artifact(*defs[slot], inputs);
    if (results[slot]) {
      results[slot]->seconds = seconds_since(lookup_start);
    } else {
      pending.push_back(slot);
    }
  }

  ReportDag dag(defs, inputs, results, on_result, std::move(pending));
  dag.deliver();
  if (dag.tasks() > 0) {
    report.executors = std::min(base::ThreadPool::resolve_workers(executors),
                                dag.tasks());
    // Several renders at once run their engines serially: the process
    // then never holds more simulation threads than executors.
    inputs.set_engine_threads(report.executors > 1 ? 1 : 0);
    {
      base::ThreadPool helpers(report.executors - 1);
      std::vector<std::future<void>> joined;
      for (std::size_t i = 1; i < report.executors; ++i) {
        joined.push_back(helpers.submit([&dag] { dag.work(); }));
      }
      dag.work();
      for (std::future<void>& helper : joined) {
        helper.get();
      }
    }
    inputs.set_engine_threads(0);
    report.busy_seconds = dag.busy_seconds();
  }

  for (std::optional<ArtifactResult>& result : results) {
    switch (result->status) {
      case ArtifactStatus::kOk:
        ++report.ok;
        break;
      case ArtifactStatus::kToleranceFailed:
        ++report.tolerance_failed;
        break;
      case ArtifactStatus::kError:
        ++report.errors;
        break;
    }
    report.results.push_back(std::move(*result));
  }
  report.run_counts = inputs.run_counts();
  report.total_seconds = seconds_since(start);
  return report;
}

core::Json build_report_json(const RunReport& report, const Inputs& inputs,
                             const core::StudyResult* study) {
  core::Json root = core::Json::object();
  root.set("schema", "fx8bench-report/1");
  root.set("paper",
           "McGuire 1987, A Measurement-Based Study of Concurrency in a "
           "Multiprocessor");
  root.set("quick", inputs.quick());

  core::Json config = core::Json::object();
  {
    const core::StudyConfig& sc = inputs.study_config();
    core::Json study_config = core::Json::object();
    study_config.set("samples_per_session",
                     static_cast<std::uint64_t>(sc.samples_per_session));
    study_config.set("interval_cycles",
                     static_cast<std::uint64_t>(sc.sampling.interval_cycles));
    study_config.set("warmup_cycles",
                     static_cast<std::uint64_t>(sc.warmup_cycles));
    study_config.set("seed", static_cast<std::uint64_t>(sc.seed));
    config.set("study", study_config);

    const core::TransitionConfig& tc = inputs.transition_config();
    core::Json transition_config = core::Json::object();
    transition_config.set("captures",
                          static_cast<std::uint64_t>(tc.captures));
    transition_config.set(
        "capture_timeout",
        static_cast<std::uint64_t>(tc.capture_timeout));
    transition_config.set("seed", static_cast<std::uint64_t>(tc.seed));
    config.set("transition", transition_config);
  }
  root.set("config", config);

  core::Json runs = core::Json::object();
  runs.set("study_runs", report.run_counts.study_runs);
  runs.set("transition_runs", report.run_counts.transition_runs);
  runs.set("private_runs", report.run_counts.private_runs);
  root.set("experiment_runs", runs);

  // Hit/miss accounting for the persistent result cache. Timing-like and
  // run-dependent by nature (a cold run puts, a warm run hits), so
  // scripts/report_diff.py excludes it — like `seconds` — when checking
  // cold-vs-warm report identity.
  if (const ResultStore* store = inputs.store()) {
    const CacheStats stats = store->stats();
    core::Json cache = core::Json::object();
    cache.set("enabled", true);
    cache.set("dir", store->dir());
    cache.set("hits", stats.hits);
    cache.set("misses", stats.misses);
    cache.set("bloom_skips", stats.bloom_skips);
    cache.set("corrupt_misses", stats.corrupt_misses);
    cache.set("puts", stats.puts);
    cache.set("put_errors", stats.put_errors);
    cache.set("bloom_save_errors", stats.bloom_save_errors);
    cache.set("bytes_read", stats.bytes_read);
    cache.set("bytes_written", stats.bytes_written);
    root.set("cache", cache);
  }

  if (study != nullptr) {
    core::Json engine = core::Json::object();
    engine.set("threads",
               static_cast<std::uint64_t>(
                   core::resolve_threads(inputs.study_config())));
    engine.set("ff_skipped_cycles",
               static_cast<std::uint64_t>(study->ff.skipped_cycles));
    engine.set("ff_naive_cycles",
               static_cast<std::uint64_t>(study->ff.naive_cycles));
    engine.set("ff_block_cycles",
               static_cast<std::uint64_t>(study->ff.block_cycles));
    engine.set("ff_jumps", static_cast<std::uint64_t>(study->ff.jumps));
    const double total = static_cast<double>(study->ff.skipped_cycles +
                                             study->ff.naive_cycles +
                                             study->ff.block_cycles);
    engine.set("ff_skipped_share",
               total > 0.0
                   ? static_cast<double>(study->ff.skipped_cycles) / total
                   : 0.0);
    root.set("study_engine", engine);
  }

  core::Json summary = core::Json::object();
  summary.set("artifacts", static_cast<std::uint64_t>(report.results.size()));
  summary.set("ok", report.ok);
  summary.set("tolerance_failed", report.tolerance_failed);
  summary.set("errors", report.errors);
  summary.set("total_seconds", report.total_seconds);
  summary.set("exit_code", report.exit_code());
  root.set("summary", summary);

  core::Json artifacts = core::Json::array();
  for (const ArtifactResult& result : report.results) {
    artifacts.push_back(result_json(result, find_artifact(result.id)));
  }
  root.set("artifacts", artifacts);
  return root;
}

}  // namespace repro::artifacts
