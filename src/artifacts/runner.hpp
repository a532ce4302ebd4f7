// The artifact runner: executes a selection of the catalog against one
// shared input cache, times each render, and assembles the structured
// JSON report fx8bench emits.
//
// run_artifacts renders the selection as a dependency-ordered task
// graph (docs/parallel_execution.md, "Report DAG"): store lookups run
// first and serially; only the misses are rendered, concurrently. The
// shared transition and the shared study's (session, replicate) parts
// run as tasks of the same graph, and each artifact starts once the
// shared inputs it declares are done. Results come back in selection
// order whatever order they finished in, so the report's bytes do not
// depend on the schedule.
#pragma once

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "artifacts/artifact.hpp"
#include "artifacts/inputs.hpp"
#include "core/json.hpp"

namespace repro::artifacts {

struct RunReport {
  std::vector<ArtifactResult> results;
  RunCounts run_counts;
  double total_seconds = 0.0;
  /// Threads that rendered store misses: 0 when every artifact was a
  /// hit (no thread is started), else the calling thread plus helpers.
  std::size_t executors = 0;
  /// Task wall time summed over the executors: busy / (executors *
  /// total_seconds) is how well the graph kept them busy. 0 when every
  /// artifact was a hit. Describes the run, so it stays out of the JSON.
  double busy_seconds = 0.0;
  int ok = 0;
  int tolerance_failed = 0;
  int errors = 0;

  /// 0 when every artifact is kOk; 1 on any tolerance failure; 2 on any
  /// render error.
  [[nodiscard]] int exit_code() const;
};

/// The ===== header the old one-shot benches printed, off the def.
[[nodiscard]] std::string render_header(const ArtifactDef& def);

/// Render one artifact: wall-time the render, convert exceptions into
/// kError results.
[[nodiscard]] ArtifactResult run_artifact(const ArtifactDef& def,
                                          Inputs& inputs);

/// Receives each result of run_artifacts, in selection order, as soon
/// as it and every result before it are done. Calls never overlap.
using ResultCallback = std::function<void(const ArtifactResult&)>;

/// Run the given defs against one shared cache. Misses render on
/// ThreadPool::resolve_workers(executors) threads, the calling thread
/// among them; the results (and `on_result` calls) keep `defs` order.
[[nodiscard]] RunReport run_artifacts(
    const std::vector<const ArtifactDef*>& defs, Inputs& inputs,
    const ResultCallback& on_result = {}, std::size_t executors = 0);

/// The fx8bench JSON document (schema: docs/benchmarks.md).
[[nodiscard]] core::Json build_report_json(const RunReport& report,
                                           const Inputs& inputs,
                                           const core::StudyResult* study);

}  // namespace repro::artifacts
