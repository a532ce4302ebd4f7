// perfbench driver: the in-process half of the repository benchmark.
//
// perfbench/run.py builds this binary against the simulator's libraries
// and runs it in one of these modes. Every mode prints JSON lines on
// stdout; run.py checks them against perfbench/reference.json and
// aggregates them into the benchmark's result line.
//
//   run     --workload W --seed N --seconds S --dir D
//           Repeats the workload's operation (one study, one cold report,
//           or one warm replay) until S seconds have passed. One line per
//           operation: wall and CPU seconds plus the output digest. A
//           study run cycles through the seed's family of kFamily studies.
//   setup   --workload W --seed N --dir D
//           One set-up probe: does everything the workload does before
//           its first timed call, then prints the monotonic clock so the
//           launcher can time process start to first timed call.
//   prepare --dir D
//           Writes the result store a warm replay reads (a cold report).
//   trace   --seed N --dir D
//           The per-layer run: serial calls into each module's public
//           functions, timed from outside with nested spans.
//   digest  --workload W --seed N --threads T --dir D
//           The digests of the seed's study family at a given worker
//           count (references, recorded or computed for a new seed).
//   calib   The host-capacity spin at one and two threads.
//
// Thread counts are explicit everywhere (never auto): the pooled study
// and both report workloads use 2 workers, through FX8_THREADS for the
// artifact pipeline, whose presets ask for auto.
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "artifacts/inputs.hpp"
#include "artifacts/registry.hpp"
#include "artifacts/result_store.hpp"
#include "artifacts/runner.hpp"
#include "base/fnv1a.hpp"
#include "base/rng.hpp"
#include "core/presets.hpp"
#include "core/regression_models.hpp"
#include "core/sample.hpp"
#include "core/study.hpp"
#include "core/transition.hpp"
#include "fx8/machine.hpp"
#include "fx8/mmu.hpp"
#include "instr/session_controller.hpp"
#include "isa/program.hpp"
#include "os/system.hpp"
#include "stats/bootstrap.hpp"
#include "workload/generator.hpp"
#include "workload/kernels.hpp"
#include "workload/presets.hpp"

namespace {

using namespace repro;
namespace fs = std::filesystem;

constexpr std::uint32_t kThreads = 2;
constexpr std::uint32_t kPooledReplicates = 4;
/// Studies per seed. A study run cycles through them, so its median does
/// not hang on how busy one draw of nine sessions happens to be.
constexpr std::uint64_t kFamily = 4;

// --- Clocks -------------------------------------------------------------

double wall_now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double cpu_now() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

/// Peak resident set of this process image in MiB: VmHWM, which starts
/// afresh at exec (getrusage's ru_maxrss would carry the launcher's).
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MiB
    }
  }
  return 0.0;
}

template <typename F>
double seconds_of(F&& f) {
  const double start = wall_now();
  f();
  return wall_now() - start;
}

std::string hex(std::uint64_t value) {
  char buffer[17];
  std::snprintf(buffer, sizeof buffer, "%016" PRIx64, value);
  return buffer;
}

// --- Workloads ----------------------------------------------------------

enum class Workload {
  kStudyFx8Pooled,
  kStudyFx64Serial,
  kReportCold,
  kReportWarm,
};

bool is_study(Workload workload) {
  return workload == Workload::kStudyFx8Pooled ||
         workload == Workload::kStudyFx64Serial;
}

std::optional<Workload> parse_workload(const std::string& name) {
  if (name == "study-fx8-pooled") return Workload::kStudyFx8Pooled;
  if (name == "study-fx64-serial") return Workload::kStudyFx64Serial;
  if (name == "report-cold") return Workload::kReportCold;
  if (name == "report-warm") return Workload::kReportWarm;
  return std::nullopt;
}

/// Member `member` of seed `seed`'s family: the nine-session study at
/// bench_study() populations. Study 0 (seed 0, member 0) is the paper
/// study itself; every other study derives its seed from the paper's.
/// Only workload parameters are set: seed, topology, threads, replicates.
core::StudyConfig study_config(Workload workload, std::uint64_t seed,
                               std::uint64_t member) {
  core::StudyConfig config = core::presets::bench_study();
  const std::uint64_t index = kFamily * seed + member;
  if (index != 0) {
    config.seed = mix64(config.seed ^ index);
  }
  if (workload == Workload::kStudyFx64Serial) {
    config.system.machine = fx8::MachineConfig::fx64();  // 8x8 CEs
    config.threads = 1;
    config.replicates_per_session = 1;
  } else {
    config.threads = kThreads;
    config.replicates_per_session = kPooledReplicates;
  }
  return config;
}

std::uint64_t study_digest(const core::StudyResult& study) {
  capsule::Io io = capsule::Io::digester();
  core::StudyResult copy = study;
  copy.serialize(io);
  return io.digest();
}

/// Structural gate on one study: nine sessions of the configured sample
/// count whose per-session counts add up to the study's. Empty when it
/// passes; the launcher also compares the digest with a reference.
std::string study_problem(const core::StudyResult& study,
                          const core::StudyConfig& config,
                          std::size_t sessions) {
  if (study.sessions.size() != sessions) {
    return "study has " + std::to_string(study.sessions.size()) +
           " sessions";
  }
  instr::EventCounts sum;
  for (const core::SessionResult& session : study.sessions) {
    if (session.samples.size() != config.samples_per_session) {
      return "session " + session.name + " has " +
             std::to_string(session.samples.size()) + " samples";
    }
    sum.merge(session.totals);
  }
  if (sum.num != study.totals.num || sum.records != study.totals.records) {
    return "session counts do not add up to the study totals";
  }
  return {};
}

const std::vector<const artifacts::ArtifactDef*>& all_artifacts() {
  static const std::vector<const artifacts::ArtifactDef*> defs = [] {
    std::vector<const artifacts::ArtifactDef*> out;
    for (const artifacts::ArtifactDef& def : artifacts::catalog()) {
      out.push_back(&def);
    }
    return out;
  }();
  return defs;
}

// --- Report digest ------------------------------------------------------

/// Values derived from the render's own wall clock (perf_simulator's
/// cycles/sec and speed-up): they differ on every cold render.
bool wall_clock_name(const std::string& name) {
  const auto ends_with = [&](const std::string& suffix) {
    return name.size() >= suffix.size() &&
           name.compare(name.size() - suffix.size(), suffix.size(),
                        suffix) == 0;
  };
  return ends_with("_per_sec") || ends_with("_speedup");
}

core::Json copy_without(const core::Json& object,
                        const std::function<bool(const std::string&)>& drop) {
  core::Json out = core::Json::object();
  for (const auto& [key, value] : object.items()) {
    if (!drop(key)) {
      out.set(key, value);
    }
  }
  return out;
}

/// The report with the fields scripts/report_diff.py strips (run counts,
/// cache counters, seconds) and the wall-clock-derived metrics removed,
/// dumped and hashed together with every artifact's text body.
std::uint64_t report_digest(const core::Json& doc,
                            const artifacts::RunReport& report) {
  core::Json out = core::Json::object();
  for (const auto& [key, value] : doc.items()) {
    if (key == "experiment_runs" || key == "cache") {
      continue;
    }
    if (key == "summary") {
      out.set(key, copy_without(value, [](const std::string& k) {
                return k == "total_seconds";
              }));
    } else if (key == "artifacts") {
      core::Json list = core::Json::array();
      for (const auto& item : value.items()) {
        const core::Json& artifact = item.second;
        core::Json entry = core::Json::object();
        for (const auto& [field, body] : artifact.items()) {
          if (field == "seconds") {
            continue;
          }
          if (field == "metrics") {
            entry.set(field, copy_without(body, wall_clock_name));
          } else if (field == "checks") {
            core::Json checks = core::Json::array();
            for (const auto& entry_check : body.items()) {
              const core::Json& check = entry_check.second;
              const core::Json* name = check.find("name");
              if (name == nullptr || !wall_clock_name(name->as_string())) {
                checks.push_back(check);
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
  const auto fold = [](const std::string& bytes, std::uint64_t acc) {
    return base::fnv1a(reinterpret_cast<const std::uint8_t*>(bytes.data()),
                       bytes.size(), acc);
  };
  std::uint64_t digest = fold(out.dump(), base::kFnv1aOffset);
  for (const artifacts::ArtifactResult& result : report.results) {
    digest = fold(result.text, digest);
  }
  return digest;
}

/// One full reproduction against the store at `dir` — what
/// `fx8bench --all --cache-dir dir --json` computes.
struct ReportRun {
  artifacts::RunReport report;
  core::Json doc;
  artifacts::CacheStats cache;
};

ReportRun run_report(const std::string& dir) {
  artifacts::Inputs inputs(/*quick=*/false, dir);
  ReportRun run;
  run.report = artifacts::run_artifacts(all_artifacts(), inputs);
  run.doc = artifacts::build_report_json(run.report, inputs,
                                         inputs.study_for_report());
  run.cache = inputs.store()->stats();
  return run;
}

/// Structural gate on one report. Empty when it passes; the launcher
/// also compares the digest with the reference.
std::string report_problem(const ReportRun& run, bool warm) {
  const artifacts::RunReport& report = run.report;
  if (report.results.size() != all_artifacts().size() ||
      report.ok != static_cast<int>(report.results.size())) {
    return "not every artifact is ok (" + std::to_string(report.ok) + "/" +
           std::to_string(report.results.size()) + ")";
  }
  const artifacts::RunCounts& runs = report.run_counts;
  const int want_study = warm ? 0 : 1;
  const int want_transition = warm ? 0 : 1;
  const int want_private = warm ? 0 : 65;
  if (runs.study_runs != want_study ||
      runs.transition_runs != want_transition ||
      runs.private_runs != want_private) {
    return "run-count audit " + std::to_string(runs.study_runs) + "/" +
           std::to_string(runs.transition_runs) + "/" +
           std::to_string(runs.private_runs);
  }
  if (warm && (run.cache.misses != 0 || run.cache.corrupt_misses != 0)) {
    return "warm replay missed the store (" +
           std::to_string(run.cache.misses) + " misses, " +
           std::to_string(run.cache.corrupt_misses) + " corrupt)";
  }
  return {};
}

void fix_threads() {
  setenv("FX8_THREADS", std::to_string(kThreads).c_str(), 1);
}

// --- run / setup / prepare ----------------------------------------------

struct Options {
  std::string mode;
  std::optional<Workload> workload;
  std::string workload_name;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  std::uint32_t threads = kThreads;
  std::string dir;
};

void print_op(int index, std::uint64_t member, double wall, double cpu,
              std::uint64_t digest, const std::string& problem) {
  std::printf("{\"op\": %d, \"member\": %" PRIu64 ", \"wall_s\": %.9f, "
              "\"cpu_s\": %.9f, \"digest\": \"%s\", \"problem\": \"%s\"}\n",
              index, member, wall, cpu, hex(digest).c_str(), problem.c_str());
}

int run_mode(const Options& options) {
  const Workload workload = *options.workload;
  std::vector<core::StudyConfig> family;
  for (std::uint64_t member = 0; member < kFamily; ++member) {
    family.push_back(study_config(workload, options.seed, member));
  }
  const auto mixes = workload::session_presets();
  if (!is_study(workload)) {
    all_artifacts();
  }
  const fs::path dir(options.dir);

  const double deadline = wall_now() + options.seconds;
  int ops = 0;
  while (wall_now() < deadline) {
    std::uint64_t digest = 0;
    std::string problem;
    double wall = 0.0;
    double cpu = 0.0;
    const std::uint64_t member = static_cast<std::uint64_t>(ops) % kFamily;
    if (is_study(workload)) {
      const core::StudyConfig& config = family[member];
      const double cpu0 = cpu_now();
      const double wall0 = wall_now();
      const core::StudyResult study = core::run_study(mixes, config);
      wall = wall_now() - wall0;
      cpu = cpu_now() - cpu0;
      digest = study_digest(study);
      problem = study_problem(study, config, mixes.size());
    } else {
      const bool warm = workload == Workload::kReportWarm;
      const fs::path store =
          warm ? dir / "store" : dir / ("cold-" + std::to_string(ops));
      const double cpu0 = cpu_now();
      const double wall0 = wall_now();
      const ReportRun run = run_report(store.string());
      wall = wall_now() - wall0;
      cpu = cpu_now() - cpu0;
      digest = report_digest(run.doc, run.report);
      problem = report_problem(run, warm);
      if (!warm) {
        fs::remove_all(store);
      }
    }
    print_op(ops++, is_study(workload) ? member : 0, wall, cpu, digest,
             problem);
  }
  std::printf("{\"ops\": %d, \"peak_rss_mb\": %.6f}\n", ops, peak_rss_mb());
  return 0;
}

int setup_mode(const Options& options) {
  const Workload workload = *options.workload;
  if (is_study(workload)) {
    for (std::uint64_t member = 0; member < kFamily; ++member) {
      (void)study_config(workload, options.seed, member);
    }
    (void)workload::session_presets();
  } else {
    all_artifacts();
    const fs::path store =
        fs::path(options.dir) /
        (workload == Workload::kReportWarm ? "store" : "cold-setup");
    const artifacts::Inputs inputs(/*quick=*/false, store.string());
  }
  std::printf("{\"setup_end_s\": %.9f}\n", wall_now());
  return 0;
}

int prepare_mode(const Options& options) {
  const ReportRun run =
      run_report((fs::path(options.dir) / "store").string());
  const std::string problem = report_problem(run, /*warm=*/false);
  std::printf("{\"digest\": \"%s\", \"problem\": \"%s\"}\n",
              hex(report_digest(run.doc, run.report)).c_str(),
              problem.c_str());
  return 0;  // A bad store fails every replay's gate; it is not a crash.
}

/// The digests of the seed's study family with the worker count
/// overridden. A seed without recorded digests is checked against the
/// other thread count (serial against pooled), which the engine promises
/// is bit-identical.
int digest_mode(const Options& options) {
  const auto mixes = workload::session_presets();
  std::string digests;
  std::string problem;
  for (std::uint64_t member = 0; member < kFamily; ++member) {
    core::StudyConfig config =
        study_config(*options.workload, options.seed, member);
    config.threads = options.threads;
    const core::StudyResult study = core::run_study(mixes, config);
    digests += (member == 0 ? "\"" : ", \"") + hex(study_digest(study)) + "\"";
    if (problem.empty()) {
      problem = study_problem(study, config, mixes.size());
    }
  }
  std::printf("{\"digests\": [%s], \"problem\": \"%s\"}\n",
              digests.c_str(), problem.c_str());
  return 0;
}

/// A fixed integer spin: the host-capacity diagnostic. Never a divisor.
double calib_spin(unsigned threads) {
  const auto spin = [] {
    volatile std::uint64_t x = 1;
    for (std::uint64_t i = 0; i < 160'000'000; ++i) {
      x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    }
  };
  return seconds_of([&] {
    std::vector<std::thread> pool;
    for (unsigned t = 0; t < threads; ++t) {
      pool.emplace_back(spin);
    }
    for (std::thread& thread : pool) {
      thread.join();
    }
  });
}

int calib_mode() {
  const double t1 = calib_spin(1);
  const double t2 = calib_spin(2);
  std::printf("{\"calib_spin_s.t1\": %.6f, \"calib_spin_s.t2\": %.6f}\n",
              t1, t2);
  return 0;
}

// --- trace --------------------------------------------------------------

/// Nested wall-clock spans around calls into the simulator's modules.
/// A span's self time is its duration minus its children's.
class Tracer {
 public:
  Tracer() { open("trace"); }

  void open(const std::string& name) {
    const int parent = stack_.empty() ? -1 : stack_.back();
    spans_.push_back(Span{name, wall_now(), 0.0, parent, 0.0});
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
  }

  double close() {
    Span& span = spans_[static_cast<std::size_t>(stack_.back())];
    stack_.pop_back();
    span.end = wall_now();
    const double duration = span.end - span.start;
    if (span.parent >= 0) {
      spans_[static_cast<std::size_t>(span.parent)].child_s += duration;
    }
    return duration;
  }

  template <typename F>
  double time(const std::string& name, F&& f) {
    open(name);
    f();
    return close();
  }

  /// 1 - (sum of every span's self time below the root) / root duration.
  double unattributed_share() {
    const double total = close();
    double attributed = 0.0;
    for (std::size_t i = 1; i < spans_.size(); ++i) {
      attributed += (spans_[i].end - spans_[i].start) - spans_[i].child_s;
    }
    return 1.0 - attributed / total;
  }

 private:
  struct Span {
    std::string name;
    double start;
    double end;
    int parent;
    double child_s;
  };
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

void emit(const std::string& name, double value) {
  std::printf("{\"metric\": \"%s\", \"value\": %.9g}\n", name.c_str(),
              value);
}

double median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/// A machine with every cluster mid concurrent loop (the saturated state
/// concurrency-heavy sessions spend their cycles in), or an idle one.
struct KernelRig {
  fx8::NoFaultMmu mmu;
  fx8::Machine machine;
  std::vector<isa::Program> programs;

  KernelRig(const fx8::MachineConfig& config, bool saturated)
      : machine(config, mmu) {
    if (!saturated) {
      return;
    }
    workload::KernelTuning tuning;
    for (std::uint32_t i = 0; i < machine.n_clusters(); ++i) {
      isa::ConcurrentLoopPhase loop;
      loop.body = workload::matmul_row_body(tuning);
      loop.trip_count = 1u << 20;
      programs.push_back(isa::ProgramBuilder("perfbench")
                             .data_base(0x01000000 + Addr{i} * 0x02000000)
                             .concurrent_loop(loop)
                             .build());
    }
    for (std::uint32_t i = 0; i < machine.n_clusters(); ++i) {
      machine.cluster(i).load(&programs[i], i + 1);
    }
    machine.run(2000);  // past dispatch ramp-up
  }
};

/// ns per simulated cycle of `cycles` cycles through tick_block (block
/// 4096) or single tick(), median of five fresh machines.
double kernel_ns_per_cycle(Tracer& tracer, const std::string& name,
                           const fx8::MachineConfig& config, bool saturated,
                           bool single, Cycle cycles) {
  std::vector<double> samples;
  for (int rep = 0; rep < 5; ++rep) {
    KernelRig rig(config, saturated);
    const double seconds = tracer.time(name, [&] {
      if (single) {
        for (Cycle c = 0; c < cycles; ++c) {
          rig.machine.tick();
        }
      } else {
        Cycle done = 0;
        while (done < cycles) {
          done +=
              rig.machine.tick_block(std::min<Cycle>(4096, cycles - done));
        }
      }
    });
    samples.push_back(1e9 * seconds / static_cast<double>(cycles));
  }
  return median(samples);
}

// The study engine's seed derivation, mirrored so each replicate can be
// rebuilt and timed from outside (core/study.cpp). The traced run checks
// the mirror: the replicates' counts must sum to the study's.
std::vector<std::uint64_t> session_seeds(const core::StudyConfig& config,
                                         std::size_t sessions) {
  std::uint64_t state = config.seed;
  std::vector<std::uint64_t> seeds;
  for (std::size_t i = 0; i < sessions; ++i) {
    seeds.push_back(splitmix64(state));
  }
  return seeds;
}

std::uint64_t replicate_seed(std::uint64_t session_seed, std::uint32_t r) {
  return r == 0 ? session_seed : mix64(session_seed ^ (0xFA57F00DULL + r));
}

/// One replicate's rig built and driven through the public controller
/// entry points: advance() over the warm-up, take_sample() per sample.
struct ReplicateTiming {
  double warmup_s = 0.0;
  double sample_s = 0.0;
  double build_s = 0.0;
  Cycle sampled_cycles = 0;
  double os_run_s = 0.0;
  Cycle os_run_cycles = 0;
  instr::EventCounts totals;
  std::vector<instr::SampleRecord> records;
};

ReplicateTiming run_replicate(Tracer& tracer,
                              const workload::WorkloadMix& mix,
                              const core::StudyConfig& config,
                              std::uint64_t seed, std::uint32_t samples,
                              Cycle os_run_cycles) {
  ReplicateTiming out;
  tracer.open("instr.replicate");
  std::unique_ptr<os::System> system;
  std::unique_ptr<workload::WorkloadGenerator> generator;
  std::unique_ptr<instr::SessionController> controller;
  out.build_s = tracer.time("os.build", [&] {
    system = std::make_unique<os::System>(config.system);
    generator = std::make_unique<workload::WorkloadGenerator>(
        mix, mix64(seed ^ 0xABCD));
    controller = std::make_unique<instr::SessionController>(
        *system, *generator, config.sampling, mix64(seed ^ 0x5A5A));
  });
  out.warmup_s = tracer.time(
      "instr.warmup", [&] { controller->advance(config.warmup_cycles); });
  for (std::uint32_t s = 0; s < samples; ++s) {
    out.sample_s += tracer.time("instr.sample", [&] {
      out.records.push_back(controller->take_sample());
    });
    out.totals.merge(out.records.back().hw);
    out.sampled_cycles += config.sampling.interval_cycles;
  }
  if (os_run_cycles > 0) {
    out.os_run_s =
        tracer.time("os.run", [&] { system->run(os_run_cycles); });
    out.os_run_cycles = os_run_cycles;
  }
  out.build_s += tracer.time("os.teardown", [&] {
    controller.reset();
    generator.reset();
    system.reset();
  });
  tracer.close();
  return out;
}

bool same_counts(const instr::EventCounts& a, const instr::EventCounts& b) {
  return a.num == b.num && a.proc == b.proc && a.ceop == b.ceop &&
         a.membop == b.membop && a.records == b.records &&
         a.ce_bus_cycles == b.ce_bus_cycles;
}

int trace_mode(const Options& options) {
  Tracer tracer;
  const fs::path dir(options.dir);
  const auto mixes = workload::session_presets();

  // host: the same spin on one and on two threads, side by side.
  emit("host.calib_spin_s.t1",
       tracer.time("host.calib.t1", [] { calib_spin(1); }));
  emit("host.calib_spin_s.t2",
       tracer.time("host.calib.t2", [] { calib_spin(2); }));

  // fx8: the per-cycle kernel on saturated and idle machines.
  const auto kernel = [&](const char* name, const fx8::MachineConfig& config,
                          bool saturated, bool single, Cycle cycles) {
    return kernel_ns_per_cycle(tracer, name, config, saturated, single,
                               cycles);
  };
  emit("fx8.tick_block_ns_per_cycle.w8",
       kernel("fx8.tick_block.w8", fx8::MachineConfig::fx8(), true, false,
              400'000));
  emit("fx8.tick_block_ns_per_cycle.w16",
       kernel("fx8.tick_block.w16", fx8::MachineConfig::fx16(), true, false,
              200'000));
  emit("fx8.tick_block_ns_per_cycle.w64",
       kernel("fx8.tick_block.w64", fx8::MachineConfig::fx64(), true, false,
              50'000));
  emit("fx8.tick_ns_per_cycle.w8",
       kernel("fx8.tick.w8", fx8::MachineConfig::fx8(), true, true, 400'000));
  fx8::MachineConfig idle = fx8::MachineConfig::fx8();
  idle.ip.duty = 0.0;
  emit("fx8.idle_ns_per_cycle",
       kernel("fx8.idle", idle, false, false, 2'000'000));

  // instr/os/base: the pooled study's replicates rebuilt one at a time
  // (the per-replicate task decomposition), then the study itself.
  const core::StudyConfig pooled =
      study_config(Workload::kStudyFx8Pooled, options.seed, 0);
  const auto pooled_seeds = session_seeds(pooled, mixes.size());
  const std::uint32_t samples_per_rep =
      pooled.samples_per_session / kPooledReplicates;
  double warmup_s = 0.0;
  double sample_s = 0.0;
  double task_sum_s = 0.0;
  double critical_task_s = 0.0;
  double os_run_s = 0.0;
  Cycle os_run_cycles = 0;
  Cycle sampled_cycles = 0;
  instr::EventCounts replicate_totals;
  std::vector<instr::SampleRecord> records;
  for (std::size_t i = 0; i < mixes.size(); ++i) {
    for (std::uint32_t r = 0; r < kPooledReplicates; ++r) {
      const ReplicateTiming rep = run_replicate(
          tracer, mixes[i], pooled, replicate_seed(pooled_seeds[i], r),
          samples_per_rep, r == 0 ? 20'000 : 0);
      warmup_s += rep.warmup_s;
      sample_s += rep.sample_s;
      const double task = rep.build_s + rep.warmup_s + rep.sample_s;
      task_sum_s += task;
      critical_task_s = std::max(critical_task_s, task);
      os_run_s += rep.os_run_s;
      os_run_cycles += rep.os_run_cycles;
      sampled_cycles += rep.sampled_cycles;
      replicate_totals.merge(rep.totals);
      records.insert(records.end(), rep.records.begin(), rep.records.end());
    }
  }
  const double os_ns = 1e9 * os_run_s / static_cast<double>(os_run_cycles);
  emit("instr.warmup_s", warmup_s);
  emit("instr.sample_s", sample_s);
  emit("os.run_ns_per_cycle.study-fx8-pooled", os_ns);
  emit("instr.measure_overhead_share",
       (sample_s - 1e-9 * os_ns * static_cast<double>(sampled_cycles)) /
           sample_s);

  std::vector<double> pooled_wall;
  std::vector<double> pooled_cpu;
  core::StudyResult study;
  for (int rep = 0; rep < 3; ++rep) {
    const double cpu0 = cpu_now();
    pooled_wall.push_back(tracer.time("core.run_study.pooled", [&] {
      study = core::run_study(mixes, pooled);
    }));
    pooled_cpu.push_back(cpu_now() - cpu0);
  }
  const double wall = median(pooled_wall);
  const double cpu = median(pooled_cpu);
  emit("instr.decomposition_exact",
       same_counts(replicate_totals, study.totals) ? 1 : 0);
  const instr::FastForwardStats& ff = study.ff;
  const auto sim_cycles = static_cast<double>(
      ff.skipped_cycles + ff.naive_cycles + ff.block_cycles);
  emit("instr.ff_skipped_share",
       static_cast<double>(ff.skipped_cycles) / sim_cycles);
  emit("instr.ff_jumps", static_cast<double>(ff.jumps));
  emit("instr.ff_block_cycles", static_cast<double>(ff.block_cycles));
  emit("instr.ff_naive_cycles", static_cast<double>(ff.naive_cycles));
  emit("instr.sim_cycles", sim_cycles);
  emit("core.sim_mcycles_per_s", 1e-6 * sim_cycles / wall);
  emit("core.cw", study.overall.cw);
  emit("core.pc", study.overall.pc);
  emit("cache.shared_miss_rate", study.totals.miss_rate());
  emit("mem.bus_busy_share", study.totals.mem_bus_busy());
  emit("base.pool.efficiency.cpu", cpu / (kThreads * wall));
  emit("base.pool.efficiency.tasks", task_sum_s / (kThreads * wall));
  emit("base.pool.critical_task_s", critical_task_s);
  emit("host.cpu_util", cpu / wall);

  // core: each session of the pooled study through the public entry.
  std::vector<double> session_s;
  for (std::size_t i = 0; i < mixes.size(); ++i) {
    core::StudyConfig serial = pooled;
    serial.threads = 1;
    session_s.push_back(tracer.time("core.run_session", [&] {
      (void)core::run_session(mixes[i], serial, pooled_seeds[i]);
    }));
    emit("core.session_s." + mixes[i].name, session_s.back());
  }
  double session_sum = 0.0;
  for (double s : session_s) {
    session_sum += s;
  }
  emit("core.session_imbalance",
       *std::max_element(session_s.begin(), session_s.end()) /
           (session_sum / static_cast<double>(session_s.size())));

  std::vector<double> analyze_s;
  for (int rep = 0; rep < 5; ++rep) {
    analyze_s.push_back(tracer.time("core.analyze", [&] {
      for (const instr::SampleRecord& record : records) {
        (void)core::analyze(record, kMaxCes);
      }
    }));
  }
  emit("core.analyze_s", median(analyze_s));
  const auto samples = study.all_samples();
  emit("core.fit_all_models_s", tracer.time("core.fit_all_models", [&] {
         (void)core::fit_all_models(samples);
       }));
  emit("core.run_transition_s", tracer.time("core.run_transition", [] {
    (void)core::run_transition_study(workload::high_concurrency_mix(),
                                     core::presets::bench_transition());
  }));
  emit("stats.bootstrap_s", tracer.time("stats.bootstrap", [&] {
    Rng rng(0x7AB1E2);
    (void)stats::bootstrap_mean_ci(core::column_cw(samples), rng);
    (void)stats::bootstrap_mean_ci(core::column_pc(samples), rng);
  }));

  // base: the capsule walk that stores and restores a StudyResult.
  std::vector<std::uint8_t> payload;
  std::vector<double> encode_s;
  std::vector<double> decode_s;
  for (int rep = 0; rep < 9; ++rep) {
    encode_s.push_back(tracer.time("base.capsule.encode", [&] {
      payload = artifacts::encode_result(study);
    }));
    decode_s.push_back(tracer.time("base.capsule.decode", [&] {
      (void)artifacts::decode_result<core::StudyResult>(payload);
    }));
  }
  emit("base.capsule.encode_s", median(encode_s));
  emit("base.capsule.decode_s", median(decode_s));

  // os/trace: the serial width-64 study, each session once traced
  // replicate by replicate and once untraced through run_session,
  // interleaved so host drift hits both alike; the ratio is the tracing
  // overhead.
  const core::StudyConfig wide =
      study_config(Workload::kStudyFx64Serial, options.seed, 0);
  const auto wide_seeds = session_seeds(wide, mixes.size());
  double traced_wide_s = 0.0;
  double untraced_wide_s = 0.0;
  double wide_os_s = 0.0;
  Cycle wide_os_cycles = 0;
  for (std::size_t i = 0; i < mixes.size(); ++i) {
    const ReplicateTiming rep =
        run_replicate(tracer, mixes[i], wide, wide_seeds[i],
                      wide.samples_per_session, 5'000);
    traced_wide_s += rep.build_s + rep.warmup_s + rep.sample_s;
    wide_os_s += rep.os_run_s;
    wide_os_cycles += rep.os_run_cycles;
    tracer.time("core.run_session.wide", [&] {
      untraced_wide_s += seconds_of([&] {
        (void)core::run_session(mixes[i], wide, wide_seeds[i]);
      });
    });
  }
  emit("os.run_ns_per_cycle.study-fx64-serial",
       1e9 * wide_os_s / static_cast<double>(wide_os_cycles));
  emit("trace.overhead_share", traced_wide_s / untraced_wide_s - 1.0);

  // artifacts: one cold report at 2 workers with the shared inputs forced
  // first, each render timed, then the store it wrote read back.
  const fs::path cold_dir = dir / "trace-store";
  fs::remove_all(cold_dir);
  artifacts::RunCounts counts;
  {
    std::optional<artifacts::Inputs> inputs;
    tracer.time("artifacts.inputs.open",
                [&] { inputs.emplace(false, cold_dir.string()); });
    emit("artifacts.inputs.study_s", tracer.time("artifacts.inputs.study", [&] {
           (void)inputs->study();
         }));
    emit("artifacts.inputs.transition_s",
         tracer.time("artifacts.inputs.transition",
                     [&] { (void)inputs->transition(); }));
    emit("artifacts.inputs.models_s",
         tracer.time("artifacts.inputs.models",
                     [&] { (void)inputs->models(); }));
    for (const artifacts::ArtifactDef* def : all_artifacts()) {
      emit("artifacts.render_s." + def->id,
           tracer.time("artifacts.render", [&] {
             (void)artifacts::run_artifact(*def, *inputs);
           }));
    }
    counts = inputs->run_counts();
  }
  emit("artifacts.private_runs", counts.private_runs);
  emit("artifacts.study_runs", counts.study_runs);
  emit("artifacts.transition_runs", counts.transition_runs);

  // Result store: open, get every key a warm replay gets, and put the
  // same payloads into an empty store.
  const artifacts::Inputs keys(false);
  std::vector<std::uint64_t> all_keys{
      artifacts::study_cache_key(keys.study_config()),
      artifacts::transition_cache_key(keys.transition_config())};
  for (const artifacts::ArtifactDef* def : all_artifacts()) {
    all_keys.push_back(keys.artifact_key(def->id));
  }
  std::optional<artifacts::ResultStore> store;
  emit("artifacts.result_store.open_s",
       tracer.time("artifacts.result_store.open",
                   [&] { store.emplace(cold_dir.string()); }));
  std::vector<std::pair<std::uint64_t, std::vector<std::uint8_t>>> blobs;
  emit("artifacts.result_store.get_s",
       tracer.time("artifacts.result_store.get", [&] {
         for (std::uint64_t key : all_keys) {
           if (auto blob = store->get(key)) {
             blobs.emplace_back(key, std::move(*blob));
           }
         }
       }));
  const artifacts::CacheStats read = store->stats();
  const fs::path put_dir = dir / "trace-put";
  fs::remove_all(put_dir);
  artifacts::ResultStore fresh(put_dir.string());
  emit("artifacts.result_store.put_s",
       tracer.time("artifacts.result_store.put", [&] {
         for (const auto& [key, blob] : blobs) {
           fresh.put(key, blob);
         }
       }));
  emit("artifacts.result_store.hits", static_cast<double>(read.hits));
  emit("artifacts.result_store.misses", static_cast<double>(read.misses));
  emit("artifacts.result_store.corrupt_misses",
       static_cast<double>(read.corrupt_misses));
  emit("artifacts.result_store.bytes_read",
       static_cast<double>(read.bytes_read));
  emit("artifacts.result_store.bytes_written",
       static_cast<double>(fresh.stats().bytes_written));
  fs::remove_all(cold_dir);
  fs::remove_all(put_dir);

  emit("trace.unattributed_share", tracer.unattributed_share());
  return 0;
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench_driver run|setup|prepare|trace|digest|calib "
               "[--workload W] [--seed N] [--seconds S] [--threads T] "
               "--dir D\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    return usage();
  }
  Options options;
  options.mode = argv[1];
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      options.workload_name = value;
      options.workload = parse_workload(value);
    } else if (flag == "--seed") {
      options.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      options.seconds = std::stod(value);
    } else if (flag == "--threads") {
      options.threads = static_cast<std::uint32_t>(std::stoul(value));
    } else if (flag == "--dir") {
      options.dir = value;
    } else {
      return usage();
    }
  }
  fix_threads();
  if (options.mode == "calib") return calib_mode();
  if (options.dir.empty()) {
    return usage();
  }
  if (options.mode == "prepare") return prepare_mode(options);
  if (options.mode == "trace") return trace_mode(options);
  if (!options.workload) {
    std::fprintf(stderr, "perfbench_driver: unknown workload '%s'\n",
                 options.workload_name.c_str());
    return 2;
  }
  if (options.mode == "run") return run_mode(options);
  if (options.mode == "setup") return setup_mode(options);
  if (options.mode == "digest") return digest_mode(options);
  return usage();
}
