// perfbench — the repository's benchmark: runs one named workload for one
// seed, checks the program's outputs against a second path, and prints its
// end-to-end metrics (or, with --trace 1, its per-layer metrics) ending in
// one JSON line. perfbench/README.md lists the workloads and metrics;
// perfbench/run.py builds this binary and is the entry point.
//
// Every layer is timed from outside: spans wrap the benchmark's own calls
// into the layers' public functions, never code inside src/.

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sched.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <arpa/inet.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "adversary/randomized_adversary.hpp"
#include "adversary/sequence_adversary.hpp"
#include "algorithms/gathering.hpp"
#include "algorithms/waiting_greedy.hpp"
#include "analysis/convergecast.hpp"
#include "core/engine.hpp"
#include "dynagraph/meet_time_index.hpp"
#include "dynagraph/oracles.hpp"
#include "dynagraph/trace_io.hpp"
#include "metrics.hpp"
#include "server/json.hpp"
#include "server/protocol.hpp"
#include "server/service.hpp"
#include "sim/experiment.hpp"
#include "sim/parallel.hpp"
#include "sim/trace_replay.hpp"
#include "util/stats.hpp"

namespace {

using doda::core::Time;
using doda::server::Json;
using perfbench::JobTally;
using perfbench::Span;
using perfbench::SpanLog;

constexpr std::uint64_t kDefaultSeed = 1;

// ------------------------------------------------------------------ basics

std::int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double toSeconds(std::int64_t ns) { return static_cast<double>(ns) * 1e-9; }

/// splitmix64 of (seed, stream): batch, warm-up and store seeds all derive
/// from the one --seed.
std::uint64_t mix(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed + 0x9E3779B97F4A7C15ull * (stream + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

constexpr std::uint64_t kWarmStream = 1u << 20;
constexpr std::uint64_t kStoreStream = 1u << 21;
constexpr std::uint64_t kJobSeedStream = 1u << 22;

/// CPUs this process may run on (what `nproc` prints).
std::size_t nprocCount() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    const int count = CPU_COUNT(&set);
    if (count > 0) return static_cast<std::size_t>(count);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

/// Resets the kernel's peak-RSS mark of this process, so that the next
/// peakRssMb() reads the peak of one job alone. Linux only; elsewhere the
/// reading stays the process peak.
void resetPeakRss() {
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
}

/// Peak resident set of this process since start or the last reset (MB).
double peakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

std::string formatNumber(double value) {
  if (!std::isfinite(value)) return "0";
  char buffer[64];
  const auto end = std::to_chars(buffer, buffer + sizeof(buffer), value).ptr;
  return std::string(buffer, end);
}

// ----------------------------------------------------------------- options

struct Options {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  bool trace = false;
  std::string dodad;
  std::string work_dir = ".";
  std::string commit = "unknown";
};

Options parseOptions(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") options.workload = value;
    else if (flag == "--seed") options.seed = std::stoull(value);
    else if (flag == "--seconds") options.seconds = std::stod(value);
    else if (flag == "--trace") options.trace = value == "1";
    else if (flag == "--dodad") options.dodad = value;
    else if (flag == "--work-dir") options.work_dir = value;
    else if (flag == "--commit") options.commit = value;
    else throw std::invalid_argument("unknown flag " + flag);
  }
  if (options.seconds <= 0.0) throw std::invalid_argument("--seconds must be > 0");
  return options;
}

// ------------------------------------------------------------------ report

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Report {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> notes;

  void metric(const std::string& name, double value, const std::string& unit,
              const std::string& note = "") {
    metrics.push_back({name, value, unit});
    notes.push_back(name + " = " + formatNumber(value) + " " + unit +
                    (note.empty() ? "" : "  (" + note + ")"));
  }
  void check(bool ok, const std::string& what) {
    if (!ok) correct = false;
    notes.push_back(std::string("check ") + (ok ? "ok: " : "FAILED: ") + what);
  }
};

// ---------------------------------------------------- result comparisons

bool sameStats(const doda::util::RunningStats& a,
               const doda::util::RunningStats& b) {
  return a.count() == b.count() && a.mean() == b.mean() &&
         a.stddev() == b.stddev() && a.min() == b.min() && a.max() == b.max();
}

bool sameResult(const doda::sim::MeasureResult& a,
                const doda::sim::MeasureResult& b) {
  return sameStats(a.interactions, b.interactions) &&
         sameStats(a.cost, b.cost) && a.failed_trials == b.failed_trials;
}

std::string hexSummary(const doda::sim::MeasureResult& r) {
  return "mean " + doda::server::hexDouble(r.interactions.mean()) +
         " stddev " + doda::server::hexDouble(r.interactions.stddev()) +
         " failed " + std::to_string(r.failed_trials);
}

/// Hexfloat goldens of batch 0 at the default seed (--seed 1): the
/// statistics this commit folds, pinned so a later change that moves them
/// is caught even when both of its own paths agree.
struct Golden {
  const char* workload;
  const char* mean_hex;
  const char* stddev_hex;
  std::size_t failed;
};
constexpr Golden kGoldens[] = {
    {"wg_lazy_n1024", "0x1.4e93400000000p+16", "0x1.102d7fb553c59p+9", 0},
    {"gathering_huge_n4096", "0x1.b7c1880000000p+22", "0x0p+0", 0},
};

void checkGolden(Report& report, const std::string& workload,
                 std::uint64_t seed, const doda::sim::MeasureResult& batch0) {
  if (seed != kDefaultSeed) return;
  for (const Golden& golden : kGoldens) {
    if (workload != golden.workload) continue;
    const bool ok =
        doda::server::hexDouble(batch0.interactions.mean()) ==
            golden.mean_hex &&
        doda::server::hexDouble(batch0.interactions.stddev()) ==
            golden.stddev_hex &&
        batch0.failed_trials == golden.failed;
    report.check(ok, "batch 0 matches the pinned hexfloat golden (" +
                         hexSummary(batch0) + ")");
  }
}

// ------------------------------------------------------ timed job loops

/// One timed call into sim (a batch of trials, or one replay pass).
struct Job {
  double seconds = 0.0;
  /// `seconds` scaled to a job of the workload's expected work; equal to
  /// it except on gathering_huge_n4096.
  double scaled_seconds = 0.0;
  double peak_mb = 0.0;
  doda::sim::MeasureResult result;
};

/// Runs `run(job_index)` back to back until `budget_s` has elapsed (at
/// least once), timing each call and reading the peak RSS of each.
template <class Run>
std::vector<Job> timedJobs(double budget_s, Run&& run) {
  std::vector<Job> jobs;
  const std::int64_t start = nowNs();
  while (jobs.empty() || toSeconds(nowNs() - start) < budget_s) {
    resetPeakRss();
    Job job;
    const std::int64_t t0 = nowNs();
    job.result = run(jobs.size());
    job.seconds = toSeconds(nowNs() - t0);
    job.scaled_seconds = job.seconds;
    job.peak_mb = peakRssMb();
    jobs.push_back(std::move(job));
  }
  return jobs;
}

/// Trials per job over the median (scaled) job time.
double trialRate(const std::vector<Job>& jobs, std::size_t trials_per_job) {
  std::vector<double> seconds;
  for (const Job& job : jobs) seconds.push_back(job.scaled_seconds);
  return static_cast<double>(trials_per_job) / perfbench::median(seconds);
}

/// Prints job_latency_p99_ms under the tail rule: p99 when at least ten
/// samples lie beyond it, else the highest percentile that has ten beyond.
/// Printed only: on a shared host the tail is too unsteady to gate on.
void noteLatencyTail(Report& report, const std::vector<double>& latencies_ms,
                     const std::string& count) {
  const auto tail = perfbench::supportedTail(latencies_ms, 0.99);
  const bool exact = perfbench::tailSupported(latencies_ms.size(), 0.99);
  report.notes.push_back(
      "job_latency_p99_ms = " + formatNumber(tail.value) + " ms  (" +
      (exact ? std::string("p99")
             : "p" + formatNumber(std::round(tail.quantile * 1e3) / 10) +
                   ", the highest percentile with 10 samples beyond") +
      ", " + count + "; not gated)");
}

/// The end-to-end metrics of an offline workload whose jobs each fold
/// `trials_per_job` trials.
void reportOfflineJobs(Report& report, const std::vector<Job>& jobs,
                       std::size_t trials_per_job, const std::string& note) {
  std::vector<double> latencies;
  double total = 0.0;
  double peak_total = 0.0;
  for (const Job& job : jobs) {
    latencies.push_back(job.scaled_seconds * 1e3);
    total += job.scaled_seconds;
    peak_total += job.peak_mb;
  }
  const double count_jobs = static_cast<double>(jobs.size());
  const std::string count = std::to_string(jobs.size()) + " jobs of " +
                            std::to_string(trials_per_job) + " trials";
  report.metric("trials_per_s", trialRate(jobs, trials_per_job), "1/s",
                "trials per job over the median job time, " + count + note);
  report.metric("jobs_per_s", count_jobs / total, "1/s", count);
  report.metric("job_latency_p50_ms", perfbench::median(latencies), "ms",
                count);
  noteLatencyTail(report, latencies, count);
  report.metric("peak_rss_mb", peak_total / count_jobs, "MB",
                "mean over jobs of the peak RSS while each ran, " + count);
}

void reportSetup(Report& report, std::vector<double> setups,
                 const std::string& what) {
  report.metric("setup_s", perfbench::median(setups), "s",
                "median of " + std::to_string(setups.size()) + " set-ups: " +
                    what);
}

/// Counts a job's trials toward attempted/failed: failed trials, plus every
/// trial of a job whose statistics mismatched the second path.
void tallyTrials(Report& report, const doda::sim::MeasureResult& result,
                 std::size_t trials, bool mismatched) {
  report.attempted += trials;
  report.failed += mismatched ? trials : result.failed_trials;
}

// ------------------------------------------------------------ tracing

/// MeetTimeOracle handed to WaitingGreedy in traced trials: forwards to the
/// index, counting queries and summing the time spent inside them.
class CountingMeetTimeOracle final : public doda::dynagraph::MeetTimeOracle {
 public:
  explicit CountingMeetTimeOracle(doda::dynagraph::MeetTimeIndex& index)
      : index_(index) {}

  Time meetTime(doda::core::NodeId u, Time t) override {
    const std::int64_t t0 = nowNs();
    const Time answer = index_.meetTime(u, t);
    ns += nowNs() - t0;
    ++queries;
    return answer;
  }

  std::int64_t ns = 0;
  std::uint64_t queries = 0;

 private:
  doda::dynagraph::MeetTimeIndex& index_;
};

/// Records the many meetTime calls of one engine run as one aggregate span
/// under the engine span: it starts with the engine and lasts as long as
/// the calls took together, so self-time subtraction charges them once.
void addMeetTimeSpan(SpanLog& log, std::int64_t engine_span,
                     std::uint64_t id, const CountingMeetTimeOracle& oracle) {
  const Span& engine = log.spans()[static_cast<std::size_t>(engine_span)];
  log.add({"dynagraph.meet_time", id, engine.start_ns,
           engine.start_ns + oracle.ns, engine_span, oracle.queries});
}

/// Collects per-task span logs from worker threads; merged once a batch
/// ends, under a `sim.batch` span.
struct TraceSink {
  SpanLog log;
  std::mutex mutex;
  std::vector<SpanLog> pending;

  void submit(SpanLog&& task) {
    const std::lock_guard<std::mutex> lock(mutex);
    pending.push_back(std::move(task));
  }
  void closeBatch(std::uint64_t batch, std::int64_t start, std::int64_t end,
                  std::size_t threads) {
    const std::int64_t parent =
        log.add({"sim.batch", batch, start, end, -1, threads});
    for (const SpanLog& task : pending) log.append(task, parent);
    pending.clear();
  }
};

/// timedJobs for a traced phase: each job's task spans close under one
/// sim.batch span.
template <class Run>
std::vector<Job> tracedJobs(TraceSink& sink, double budget_s,
                            std::size_t threads, Run&& run) {
  return timedJobs(budget_s, [&](std::size_t job) {
    const std::int64_t start = nowNs();
    auto result = run(job);
    sink.closeBatch(job, start, nowNs(), threads);
    return result;
  });
}

/// Checks that every traced job folds what its untraced twin folded
/// (`expected(j)` is null when the traced phase ran past the untraced
/// jobs) and counts its trials toward attempted/failed.
template <class Expected>
void checkTracedJobs(Report& report, const std::vector<Job>& traced,
                     std::size_t trials_per_job, Expected&& expected) {
  bool all_same = true;
  for (std::size_t j = 0; j < traced.size(); ++j) {
    const doda::sim::MeasureResult* want = expected(j);
    const bool same = want == nullptr || sameResult(traced[j].result, *want);
    all_same = all_same && same;
    tallyTrials(report, traced[j].result, trials_per_job, !same);
  }
  report.check(all_same, "every traced job folds the untraced statistics");
}

/// The sampling and engine metrics of a staged (lazy-workload) trace.
void stagedMetrics(std::map<std::string, double>& values,
                   const std::map<std::string, perfbench::SpanTotals>& t) {
  const auto& staged = t.at("trace.staged");
  const auto& sample = t.at("dynagraph.sample");
  const auto& engine = t.at("core.engine");
  values["dynagraph.sample.interactions_per_s"] =
      static_cast<double>(sample.count) / sample.seconds;
  values["dynagraph.sample.share"] = sample.self_seconds / staged.seconds;
  values["dynagraph.sample.generated_per_dispatched"] =
      static_cast<double>(sample.count) /
      static_cast<double>(t.at("sim.trial").count);
  values["core.engine.interactions_per_s"] =
      static_cast<double>(engine.count) / engine.self_seconds;
  values["core.engine.share"] = engine.self_seconds / staged.seconds;
}

std::uint64_t traceId(std::size_t batch, std::size_t trial) {
  return (static_cast<std::uint64_t>(batch) << 32) | trial;
}

bool sameExecution(const doda::core::ExecutionResult& a,
                   const doda::core::ExecutionResult& b) {
  return a.terminated == b.terminated &&
         a.interactions_to_terminate == b.interactions_to_terminate &&
         a.last_transmission_time == b.last_transmission_time;
}

doda::sim::TrialOutcome outcomeOf(const doda::core::ExecutionResult& result) {
  if (!result.terminated) return doda::sim::TrialOutcome::failure();
  doda::sim::TrialOutcome outcome;
  outcome.success = true;
  outcome.interactions = static_cast<double>(result.interactions_to_terminate);
  return outcome;
}

doda::core::RunOptions measurementOptions(Time max_interactions) {
  doda::core::RunOptions options;
  options.max_interactions = max_interactions;
  options.capture_schedule = false;
  return options;
}

/// The per-layer metric set every traced run prints; layers a workload does
/// not run read 0 (listed as "not exercised").
const std::vector<std::pair<std::string, std::string>>& perLayerMetrics() {
  static const std::vector<std::pair<std::string, std::string>> metrics = {
      {"dynagraph.sample.interactions_per_s", "1/s"},
      {"dynagraph.sample.share", "share"},
      {"dynagraph.sample.generated_per_dispatched", "ratio"},
      {"dynagraph.meet_time.queries_per_trial", "count"},
      {"dynagraph.meet_time.share", "share"},
      {"dynagraph.decode.interactions_per_s", "1/s"},
      {"dynagraph.decode.share", "share"},
      {"dynagraph.decode.bytes_per_interaction", "B"},
      {"dynagraph.record.interactions_per_s", "1/s"},
      {"core.engine.interactions_per_s", "1/s"},
      {"core.engine.share", "share"},
      {"core.engine.blocked_speedup", "ratio"},
      {"analysis.frontier.share", "share"},
      {"sim.executor.busy_share", "share"},
      {"sim.executor.trial_p50_ms", "ms"},
      {"sim.executor.trial_max_ms", "ms"},
      {"server.handle_us_p50", "us"},
      {"server.first_frame_ms_p50", "ms"},
      {"server.frames_per_job", "count"},
      {"server.bytes_per_job", "B"},
      {"server.ping_rtt_us_p50", "us"},
      {"trace.overhead_share", "share"},
  };
  return metrics;
}

/// Emits every per-layer metric, taking values from `values` and 0 for
/// the layers this workload does not exercise.
void reportLayers(Report& report, const std::map<std::string, double>& values,
                  const std::map<std::string, std::string>& notes) {
  std::string idle;
  for (const auto& [name, unit] : perLayerMetrics()) {
    const auto found = values.find(name);
    if (found == values.end()) {
      report.metrics.push_back({name, 0.0, unit});
      idle += (idle.empty() ? "" : ", ") + name;
      continue;
    }
    const auto note = notes.find(name);
    report.metric(name, found->second, unit,
                  note == notes.end() ? "" : note->second);
  }
  if (!idle.empty()) report.notes.push_back("not exercised (reported 0): " + idle);
}

/// sim.executor.* from the batch, task and trial spans.
void executorMetrics(std::map<std::string, double>& values,
                     const std::map<std::string, perfbench::SpanTotals>& t) {
  // A run's sim.batch spans all carry the same thread count as their
  // count, so threads x wall summed over batches is seconds x count / spans.
  const auto& batches = t.at("sim.batch");
  const double capacity = batches.seconds *
                          static_cast<double>(batches.count) /
                          static_cast<double>(batches.spans);
  values["sim.executor.busy_share"] = t.at("sim.task").seconds / capacity;
  values["sim.executor.trial_p50_ms"] =
      perfbench::median(t.at("sim.trial").durations_ms);
  values["sim.executor.trial_max_ms"] =
      *std::max_element(t.at("sim.trial").durations_ms.begin(),
                        t.at("sim.trial").durations_ms.end());
}

void writeTrace(Report& report, const SpanLog& log, const Options& options) {
  const std::string path = options.work_dir + "/trace-" + options.workload +
                           "-" + std::to_string(options.seed) + ".jsonl";
  const std::vector<std::int64_t> self = log.selfTimes();
  std::ofstream out(path);
  for (std::size_t i = 0; i < log.size(); ++i) {
    const Span& s = log.spans()[i];
    out << "{\"span\":" << i << ",\"name\":\"" << s.name << "\",\"id\":" << s.id
        << ",\"parent\":" << s.parent << ",\"start_ns\":" << s.start_ns
        << ",\"end_ns\":" << s.end_ns << ",\"self_ns\":" << self[i]
        << ",\"count\":" << s.count << "}\n";
  }
  report.notes.push_back("trace: " + std::to_string(log.size()) +
                         " spans written to " + path);
}

// ======================================================== wg_lazy_n1024

constexpr std::size_t kWgNodes = 1024;
constexpr std::size_t kWgBatch = 16;

Time waitingGreedyTau(std::size_t n) {
  return static_cast<Time>(
      std::ceil(doda::util::closed_form::waitingGreedyTau(n)));
}

doda::sim::AlgorithmFactory waitingGreedyFactory(Time tau) {
  return [tau](doda::sim::TrialContext& context)
             -> std::unique_ptr<doda::core::DodaAlgorithm> {
    return std::make_unique<doda::algorithms::WaitingGreedy>(
        context.meet_time, tau);
  };
}

doda::sim::AlgorithmFactory gatheringFactory() {
  return [](doda::sim::TrialContext&)
             -> std::unique_ptr<doda::core::DodaAlgorithm> {
    return std::make_unique<doda::algorithms::Gathering>();
  };
}

doda::sim::MeasureConfig randomizedConfig(std::size_t n, std::size_t trials,
                                          std::uint64_t seed,
                                          std::size_t threads) {
  doda::sim::MeasureConfig config;
  config.node_count = n;
  config.trials = trials;
  config.seed = seed;
  config.threads = threads;
  config.seed_format = doda::dynagraph::traces::SeedFormat::v2;
  return config;
}

/// One traced WaitingGreedy trial: the program's trial as measureRandomized
/// runs it (sim.trial), then a staged re-execution on the same seed with
/// the sequence pre-generated up to the first pass's generatedLength()
/// (dynagraph.sample), so that the engine run (core.engine) and its
/// meetTime calls (dynagraph.meet_time) are timed apart from sampling.
doda::sim::TrialOutcome tracedWaitingGreedyTrial(
    std::uint64_t id, std::uint64_t seed, Time tau,
    doda::core::Engine::Scratch& scratch, TraceSink& sink) {
  const doda::core::SystemInfo info{kWgNodes, 0};
  doda::core::Engine engine(info, doda::core::AggregationFunction::count());
  const auto options = measurementOptions(Time{1} << 32);
  const std::int64_t t0 = nowNs();
  doda::core::ExecutionResult program;
  Time generated = 0;
  {
    doda::adversary::RandomizedAdversary adversary(kWgNodes, seed);
    auto index = adversary.makeMeetTimeIndex(info.sink);
    doda::algorithms::WaitingGreedy algorithm(index, tau);
    program = engine.runInto(scratch, algorithm, adversary, options);
    generated = adversary.lazySequence().generatedLength();
  }
  const std::int64_t t1 = nowNs();

  doda::adversary::RandomizedAdversary adversary(kWgNodes, seed);
  const std::int64_t s0 = nowNs();
  if (generated > 0) adversary.lazySequence().ensure(generated - 1);
  const std::int64_t s1 = nowNs();
  auto index = adversary.makeMeetTimeIndex(info.sink);
  CountingMeetTimeOracle oracle(index);
  doda::algorithms::WaitingGreedy algorithm(oracle, tau);
  const std::int64_t e0 = nowNs();
  const auto staged = engine.runInto(scratch, algorithm, adversary, options);
  const std::int64_t e1 = nowNs();
  if (!sameExecution(program, staged) ||
      adversary.lazySequence().generatedLength() != generated)
    throw std::runtime_error("staged WaitingGreedy re-execution diverged");

  SpanLog log;
  const std::int64_t task = log.add({"sim.task", id, t0, e1, -1, 0});
  log.add({"sim.trial", id, t0, t1, task, program.interactions_dispatched});
  const std::int64_t stage = log.add({"trace.staged", id, s0, e1, task, 0});
  log.add({"dynagraph.sample", id, s0, s1, stage, generated});
  const std::int64_t engine_span = log.add(
      {"core.engine", id, e0, e1, stage, staged.interactions_dispatched});
  addMeetTimeSpan(log, engine_span, id, oracle);
  sink.submit(std::move(log));
  return outcomeOf(program);
}

Report runWaitingGreedyLazy(const Options& options) {
  Report report;
  const std::size_t threads = nprocCount();
  const Time tau = waitingGreedyTau(kWgNodes);
  const auto factory = waitingGreedyFactory(tau);
  auto batchConfig = [&](std::size_t batch, std::size_t batch_threads) {
    return randomizedConfig(kWgNodes, kWgBatch, mix(options.seed, batch),
                            batch_threads);
  };

  // Set-up: one untimed warm-up trial per worker thread, five times.
  std::vector<double> setups;
  for (std::size_t i = 0; i < 5; ++i) {
    const std::int64_t t0 = nowNs();
    doda::sim::measureRandomized(
        randomizedConfig(kWgNodes, threads, mix(options.seed, kWarmStream + i),
                         threads),
        factory);
    setups.push_back(toSeconds(nowNs() - t0));
  }

  const double budget = options.trace ? options.seconds / 2 : options.seconds;
  const auto jobs = timedJobs(budget, [&](std::size_t batch) {
    return doda::sim::measureRandomized(batchConfig(batch, threads), factory);
  });

  const auto serial =
      doda::sim::measureRandomized(batchConfig(0, 1), factory);
  const bool serial_ok = sameResult(serial, jobs[0].result);
  report.check(serial_ok, "batch 0 at threads=" + std::to_string(threads) +
                              " is bit-identical to threads=1 (" +
                              hexSummary(serial) + ")");
  checkGolden(report, options.workload, options.seed, jobs[0].result);
  for (std::size_t b = 0; b < jobs.size(); ++b)
    tallyTrials(report, jobs[b].result, kWgBatch, b == 0 && !serial_ok);

  if (!options.trace) {
    reportOfflineJobs(report, jobs, kWgBatch, "");
    reportSetup(report, setups, "one untimed warm-up trial per worker");
    return report;
  }

  // Traced phase: the same batches through runTrials with a traced body.
  TraceSink sink;
  const auto traced = tracedJobs(sink, budget, std::min(threads, kWgBatch),
                                 [&](std::size_t batch) {
    return doda::sim::runTrials(
        kWgBatch, mix(options.seed, batch), threads,
        [&](std::size_t trial, std::uint64_t seed,
            doda::core::Engine::Scratch& scratch) {
          return tracedWaitingGreedyTrial(traceId(batch, trial), seed, tau,
                                          scratch, sink);
        });
  });
  checkTracedJobs(report, traced, kWgBatch, [&](std::size_t j) {
    return j < jobs.size() ? &jobs[j].result : nullptr;
  });
  report.notes.push_back(
      "every staged re-execution folded the identical outcome (a divergence "
      "aborts the run)");

  const auto t = perfbench::totalsByName(sink.log);
  const auto& meet = t.at("dynagraph.meet_time");
  std::map<std::string, double> values;
  stagedMetrics(values, t);
  values["dynagraph.meet_time.queries_per_trial"] =
      static_cast<double>(meet.count) /
      static_cast<double>(t.at("sim.trial").spans);
  values["dynagraph.meet_time.share"] =
      meet.self_seconds / t.at("trace.staged").seconds;
  executorMetrics(values, t);
  values["trace.overhead_share"] =
      trialRate(traced, kWgBatch) / trialRate(jobs, kWgBatch);
  reportLayers(report, values,
               {{"dynagraph.sample.share", "of staged trial time"},
                {"dynagraph.meet_time.share", "of staged trial time"},
                {"core.engine.share", "self time, of staged trial time"},
                {"trace.overhead_share",
                 "traced over untraced trials_per_s; the traced trial runs "
                 "twice"}});
  writeTrace(report, sink.log, options);
  return report;
}

// ================================================= gathering_huge_n4096

constexpr std::size_t kGaNodes = 4096;

/// One traced Gathering trial: the program's blocked run over the lazy
/// sequence (sim.trial); the sequence pre-generated to the same length
/// (dynagraph.sample); the blocked engine over that committed sequence
/// (core.engine); and the serial engine over it (core.engine.serial), for
/// the blocked speedup.
doda::sim::TrialOutcome tracedGatheringTrial(
    std::uint64_t id, std::uint64_t seed, std::size_t workers,
    doda::core::Engine::Scratch& scratch, TraceSink& sink) {
  const doda::core::SystemInfo info{kGaNodes, 0};
  doda::core::Engine engine(info, doda::core::AggregationFunction::count());
  const auto options = measurementOptions(Time{1} << 32);
  doda::core::IntraTrialOptions intra;
  intra.workers = workers;
  const std::int64_t t0 = nowNs();
  doda::core::ExecutionResult program;
  Time generated = 0;
  {
    doda::adversary::RandomizedAdversary adversary(kGaNodes, seed);
    doda::algorithms::Gathering algorithm;
    program = engine.runBlocked(scratch, algorithm, adversary.lazySequence(),
                                options, intra);
    generated = adversary.lazySequence().generatedLength();
  }
  const std::int64_t t1 = nowNs();

  doda::adversary::RandomizedAdversary adversary(kGaNodes, seed);
  const std::int64_t s0 = nowNs();
  if (generated > 0) adversary.lazySequence().ensure(generated - 1);
  const std::int64_t s1 = nowNs();
  const doda::dynagraph::InteractionSequenceView view(
      adversary.lazySequence().committed());
  doda::algorithms::Gathering blocked_algorithm;
  const std::int64_t e0 = nowNs();
  const auto blocked =
      engine.runBlocked(scratch, blocked_algorithm, view, options, intra);
  const std::int64_t e1 = nowNs();
  doda::adversary::SequenceViewAdversary replay(view);
  doda::algorithms::Gathering serial_algorithm;
  const auto serial = engine.runInto(scratch, serial_algorithm, replay, options);
  const std::int64_t e2 = nowNs();
  if (!sameExecution(program, blocked) || !sameExecution(program, serial))
    throw std::runtime_error("staged Gathering re-execution diverged");

  SpanLog log;
  const std::int64_t task = log.add({"sim.task", id, t0, e2, -1, 0});
  log.add({"sim.trial", id, t0, t1, task, program.interactions_dispatched});
  const std::int64_t stage = log.add({"trace.staged", id, s0, e1, task, 0});
  log.add({"dynagraph.sample", id, s0, s1, stage, generated});
  log.add({"core.engine", id, e0, e1, stage, blocked.interactions_dispatched});
  log.add({"core.engine.serial", id, e1, e2, task,
           serial.interactions_dispatched});
  sink.submit(std::move(log));
  return outcomeOf(program);
}

Report runGatheringHuge(const Options& options) {
  Report report;
  const std::size_t workers = nprocCount();
  const auto factory = gatheringFactory();
  const double expected =
      doda::util::closed_form::gatheringExpected(kGaNodes);
  auto trialConfig = [&](std::uint64_t seed, std::size_t intra_workers) {
    auto config = randomizedConfig(kGaNodes, 1, seed, 1);
    config.intra_trial_workers = intra_workers;
    return config;
  };

  // Set-up: one untimed warm-up trial, three times; like every timing of
  // this workload, scaled to a trial of the expected length (see below).
  std::vector<double> setups;
  for (std::size_t i = 0; i < 3; ++i) {
    const std::int64_t t0 = nowNs();
    const auto warm = doda::sim::measureRandomized(
        trialConfig(mix(options.seed, kWarmStream + i), workers), factory);
    setups.push_back(toSeconds(nowNs() - t0) * expected /
                     warm.interactions.mean());
  }

  const double budget = options.trace ? options.seconds / 2 : options.seconds;
  // A Gathering trial's length has a coefficient of variation near 0.5
  // (paper Thm 9), so each job's time is scaled to a trial of the expected
  // length E[X_G]: trials_per_s is then the long-run trial rate.
  auto scaleToExpected = [expected](std::vector<Job> jobs) {
    for (Job& job : jobs)
      job.scaled_seconds *= expected / job.result.interactions.mean();
    return jobs;
  };
  const auto jobs = scaleToExpected(timedJobs(budget, [&](std::size_t batch) {
    return doda::sim::measureRandomized(
        trialConfig(mix(options.seed, batch), workers), factory);
  }));

  const auto serial = doda::sim::measureRandomized(
      trialConfig(mix(options.seed, 0), 1), factory);
  const bool serial_ok = sameResult(serial, jobs[0].result);
  report.check(serial_ok,
               "batch 0 on the blocked engine (" + std::to_string(workers) +
                   " workers) is bit-identical to the serial engine (" +
                   hexSummary(serial) + ")");
  checkGolden(report, options.workload, options.seed, jobs[0].result);
  for (std::size_t b = 0; b < jobs.size(); ++b)
    tallyTrials(report, jobs[b].result, 1, b == 0 && !serial_ok);

  if (!options.trace) {
    reportOfflineJobs(report, jobs, 1,
                      ", each scaled to a trial of E[X_G] = " +
                          formatNumber(expected) + " interactions");
    reportSetup(report, setups,
                "one untimed warm-up trial each, scaled to E[X_G]");
    return report;
  }

  TraceSink sink;
  const auto traced =
      scaleToExpected(tracedJobs(sink, budget, 1, [&](std::size_t batch) {
        return doda::sim::runTrials(
            1, mix(options.seed, batch), 1,
            [&](std::size_t trial, std::uint64_t seed,
                doda::core::Engine::Scratch& scratch) {
              return tracedGatheringTrial(traceId(batch, trial), seed,
                                          workers, scratch, sink);
            });
      }));
  checkTracedJobs(report, traced, 1, [&](std::size_t j) {
    return j < jobs.size() ? &jobs[j].result : nullptr;
  });
  report.notes.push_back(
      "every staged blocked and serial re-execution folded the identical "
      "outcome (a divergence aborts the run)");

  const auto t = perfbench::totalsByName(sink.log);
  std::map<std::string, double> values;
  stagedMetrics(values, t);
  values["core.engine.blocked_speedup"] =
      t.at("core.engine.serial").seconds / t.at("core.engine").seconds;
  executorMetrics(values, t);
  values["trace.overhead_share"] = trialRate(traced, 1) / trialRate(jobs, 1);
  reportLayers(report, values,
               {{"dynagraph.sample.share", "of staged trial time"},
                {"core.engine.share", "blocked engine, of staged trial time"},
                {"core.engine.blocked_speedup",
                 "runInto over runBlocked at " + std::to_string(workers) +
                     " workers, same committed sequence"},
                {"trace.overhead_share",
                 "traced over untraced trials_per_s; the traced trial runs "
                 "three times"}});
  writeTrace(report, sink.log, options);
  return report;
}

// ====================================================== replay_v4_n256

constexpr std::size_t kReplayNodes = 256;
constexpr std::size_t kReplayTrials = 64;
constexpr std::uint32_t kReplayShards = 8;
// WaitingGreedy(tau*) at n = 256 ends near tau* = 9646 in ~98.6% of
// trials; the rest finish as Gathering, whose last phase has mean
// n(n-1)/2 = 32640. 2^19 interactions leave ~16 such means of slack: a
// trial outruns its recorded sequence with probability below 1e-8.
constexpr Time kReplayLength = Time{1} << 19;

doda::sim::MeasureConfig replayStoreConfig(std::uint64_t seed,
                                           std::size_t threads) {
  return randomizedConfig(kReplayNodes, kReplayTrials,
                          mix(seed, kStoreStream), threads);
}

doda::sim::ReplayConfig replayConfig(std::size_t threads) {
  doda::sim::ReplayConfig config;
  config.threads = threads;
  config.compute_cost = true;
  return config;
}

/// One traced replayed trial: decode (readRest), the serial engine with a
/// counting meetTime oracle over the fixed-backed index, and the paper
/// cost through the offline-optimal frontier (costOf).
doda::sim::TrialOutcome tracedReplayTrial(
    std::uint64_t id, Time tau, doda::dynagraph::TraceShardReader& reader,
    doda::core::Engine::Scratch& scratch, TraceSink& sink) {
  const doda::core::SystemInfo info{kReplayNodes, 0};
  doda::core::Engine engine(info, doda::core::AggregationFunction::count());
  SpanLog log;
  const std::int64_t t0 = nowNs();
  const std::uint64_t length = reader.trialLength();
  const doda::dynagraph::InteractionSequence sequence = reader.readRest();
  const std::int64_t d1 = nowNs();
  doda::adversary::SequenceViewAdversary adversary{sequence};
  doda::dynagraph::MeetTimeIndex index(sequence, info.sink, info.node_count);
  CountingMeetTimeOracle oracle(index);
  doda::algorithms::WaitingGreedy algorithm(oracle, tau);
  const std::int64_t e0 = nowNs();
  const auto result = engine.runInto(
      scratch, algorithm, adversary,
      measurementOptions(std::min<Time>(length, Time{1} << 32)));
  const std::int64_t e1 = nowNs();
  doda::sim::TrialOutcome outcome = outcomeOf(result);
  if (result.terminated) {
    outcome.cost = static_cast<double>(doda::analysis::costOf(
        sequence, info.node_count, info.sink, result.last_transmission_time));
    outcome.has_cost = true;
  }
  const std::int64_t t1 = nowNs();

  const std::int64_t task = log.add({"sim.task", id, t0, t1, -1, 0});
  const std::int64_t trial = log.add({"sim.trial", id, t0, t1, task, 0});
  log.add({"dynagraph.decode", id, t0, d1, trial, length});
  const std::int64_t engine_span = log.add(
      {"core.engine", id, e0, e1, trial, result.interactions_dispatched});
  addMeetTimeSpan(log, engine_span, id, oracle);
  log.add({"analysis.frontier", id, e1, t1, trial, 0});
  sink.submit(std::move(log));
  return outcome;
}

/// Reads every shard file once so the timed passes start from a warm page
/// cache.
void warmPageCache(const doda::dynagraph::TraceStore& store) {
  std::vector<char> buffer(1 << 20);
  for (std::size_t shard = 0; shard < store.shardCount(); ++shard) {
    std::ifstream in(store.shardPath(shard), std::ios::binary);
    while (in.read(buffer.data(), static_cast<std::streamsize>(buffer.size())) ||
           in.gcount() > 0) {
    }
  }
}

Report runReplay(const Options& options) {
  Report report;
  const std::size_t threads = nprocCount();
  const Time tau = waitingGreedyTau(kReplayNodes);
  const auto factory = waitingGreedyFactory(tau);
  const auto store_config = replayStoreConfig(options.seed, threads);
  doda::dynagraph::TraceWriterOptions writer;
  writer.format_version = doda::dynagraph::kTraceFormatVersionV4;
  // Flush each shard to disk while recording, so that write-back of the
  // fresh store happens in set-up and not under the timed passes.
  writer.sync_on_close = true;

  // Set-up: record the v4 store, warm the page cache, run one untimed
  // pass — three times, keeping the last store.
  SpanLog setup_log;
  std::vector<double> setups;
  std::string directory;
  std::optional<doda::dynagraph::TraceStore> store;
  for (std::size_t i = 0; i < 3; ++i) {
    if (!directory.empty()) std::filesystem::remove_all(directory);
    directory = options.work_dir + "/store-" + std::to_string(::getpid()) +
                "-" + std::to_string(i);
    std::filesystem::remove_all(directory);
    const std::int64_t t0 = nowNs();
    doda::sim::recordSynthetic(directory, store_config, kReplayLength,
                               kReplayShards, writer);
    const std::int64_t t1 = nowNs();
    store.emplace(doda::dynagraph::TraceStore::open(directory));
    warmPageCache(*store);
    doda::sim::replayTrace(*store, replayConfig(threads), factory);
    setups.push_back(toSeconds(nowNs() - t0));
    setup_log.add({"dynagraph.record", i, t0, t1, -1,
                   kReplayTrials * kReplayLength});
  }

  const double budget = options.trace ? options.seconds / 2 : options.seconds;
  const auto jobs = timedJobs(budget, [&](std::size_t) {
    return doda::sim::replayTrace(*store, replayConfig(threads), factory);
  });

  const auto reference =
      doda::sim::measureWithCost(store_config, kReplayLength, factory, 0);
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    const bool same = sameResult(jobs[j].result, reference);
    if (!same || j == 0)
      report.check(same, "replay pass " + std::to_string(j) +
                             " is bit-identical to measureWithCost on the "
                             "same config and length (" +
                             hexSummary(reference) + ")");
    tallyTrials(report, jobs[j].result, kReplayTrials, !same);
  }

  if (!options.trace) {
    reportOfflineJobs(report, jobs, kReplayTrials, "");
    reportSetup(report, setups,
                "record the v4 store, warm its pages, one untimed pass");
    std::filesystem::remove_all(directory);
    return report;
  }

  TraceSink sink;
  sink.log.append(setup_log);
  const auto traced = tracedJobs(
      sink, budget, std::min(threads, kReplayTrials), [&](std::size_t pass) {
        return doda::sim::replayShards(
            *store, threads,
            [&](std::size_t global, doda::dynagraph::TraceShardReader& reader,
                doda::core::Engine::Scratch& scratch) {
              return tracedReplayTrial(traceId(pass, global), tau, reader,
                                       scratch, sink);
            });
      });
  checkTracedJobs(report, traced, kReplayTrials,
                  [&](std::size_t) { return &reference; });

  const auto t = perfbench::totalsByName(sink.log);
  const auto& trial = t.at("sim.trial");
  const auto& decode = t.at("dynagraph.decode");
  const auto& engine = t.at("core.engine");
  const auto& meet = t.at("dynagraph.meet_time");
  const auto& record = t.at("dynagraph.record");
  std::map<std::string, double> values;
  values["dynagraph.decode.interactions_per_s"] =
      static_cast<double>(decode.count) / decode.seconds;
  values["dynagraph.decode.share"] = decode.self_seconds / trial.seconds;
  values["dynagraph.decode.bytes_per_interaction"] =
      static_cast<double>(store->totalFileBytes()) /
      static_cast<double>(kReplayTrials * kReplayLength);
  values["dynagraph.record.interactions_per_s"] =
      static_cast<double>(record.count) / record.seconds;
  values["dynagraph.meet_time.queries_per_trial"] =
      static_cast<double>(meet.count) / static_cast<double>(trial.spans);
  values["dynagraph.meet_time.share"] = meet.self_seconds / trial.seconds;
  values["core.engine.interactions_per_s"] =
      static_cast<double>(engine.count) / engine.self_seconds;
  values["core.engine.share"] = engine.self_seconds / trial.seconds;
  values["analysis.frontier.share"] =
      t.at("analysis.frontier").self_seconds / trial.seconds;
  executorMetrics(values, t);
  values["trace.overhead_share"] =
      trialRate(traced, kReplayTrials) / trialRate(jobs, kReplayTrials);
  reportLayers(report, values,
               {{"dynagraph.decode.share", "of trial time"},
                {"dynagraph.meet_time.share", "of trial time"},
                {"core.engine.share", "serial engine self time, of trial time"},
                {"analysis.frontier.share", "costOf, of trial time"},
                {"trace.overhead_share", "traced over untraced trials_per_s"}});
  writeTrace(report, sink.log, options);
  std::filesystem::remove_all(directory);
  return report;
}

// ============================================================ served_n64

constexpr std::size_t kServedNodes = 64;
constexpr std::size_t kServedTrials = 256;
constexpr std::size_t kServedWorkers = 2;
constexpr std::size_t kServedSeeds = 16;

/// A dodad child process on an ephemeral port; killed with the benchmark.
class Daemon {
 public:
  Daemon(const std::string& path, std::size_t workers) {
    int out[2];
    if (::pipe2(out, O_CLOEXEC) != 0) throw std::runtime_error("pipe failed");
    const std::string workers_arg = std::to_string(workers);
    pid_ = ::fork();
    if (pid_ < 0) throw std::runtime_error("fork failed");
    if (pid_ == 0) {
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      ::dup2(out[1], STDOUT_FILENO);
      const char* argv[] = {path.c_str(), "--port",  "0",
                            "--workers",  workers_arg.c_str(), nullptr};
      ::execv(path.c_str(), const_cast<char* const*>(argv));
      ::_exit(127);
    }
    ::close(out[1]);
    out_fd_ = out[0];
    // "dodad listening on 127.0.0.1:<port>"
    std::string line;
    char c = 0;
    while (::read(out_fd_, &c, 1) == 1 && c != '\n') line.push_back(c);
    const auto colon = line.rfind(':');
    if (line.rfind("dodad listening on", 0) != 0 || colon == std::string::npos) {
      stop();
      throw std::runtime_error("dodad did not start: '" + line + "'");
    }
    port_ = static_cast<std::uint16_t>(std::stoi(line.substr(colon + 1)));
  }
  ~Daemon() { stop(); }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  std::uint16_t port() const { return port_; }

  /// SIGTERM (dodad drains, then exits) and reap.
  void stop() {
    if (pid_ > 0) {
      ::kill(pid_, SIGTERM);
      int status = 0;
      ::waitpid(pid_, &status, 0);
      pid_ = -1;
    }
    if (out_fd_ >= 0) ::close(out_fd_);
    out_fd_ = -1;
  }

 private:
  pid_t pid_ = -1;
  int out_fd_ = -1;
  std::uint16_t port_ = 0;
};

/// One client connection speaking dodad's line-delimited frames.
class Wire {
 public:
  explicit Wire(std::uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd_ < 0) throw std::runtime_error("socket failed");
    sockaddr_in address{};
    address.sin_family = AF_INET;
    address.sin_port = htons(port);
    address.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&address),
                  sizeof(address)) != 0) {
      ::close(fd_);
      throw std::runtime_error("connect to dodad failed");
    }
    const int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  }
  ~Wire() { ::close(fd_); }
  Wire(const Wire&) = delete;
  Wire& operator=(const Wire&) = delete;

  void send(std::string line) {
    line.push_back('\n');
    std::size_t sent = 0;
    while (sent < line.size()) {
      const ssize_t n = ::send(fd_, line.data() + sent, line.size() - sent,
                               MSG_NOSIGNAL);
      if (n <= 0) throw std::runtime_error("send to dodad failed");
      sent += static_cast<std::size_t>(n);
    }
  }

  std::string readLine() {
    for (;;) {
      const auto newline = buffer_.find('\n', pos_);
      if (newline != std::string::npos) {
        std::string line = buffer_.substr(pos_, newline - pos_);
        pos_ = newline + 1;
        if (pos_ == buffer_.size()) {
          buffer_.clear();
          pos_ = 0;
        }
        return line;
      }
      char chunk[65536];
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n <= 0) throw std::runtime_error("dodad closed the connection");
      bytes_read_ += static_cast<std::uint64_t>(n);
      buffer_.append(chunk, static_cast<std::size_t>(n));
    }
  }

  std::uint64_t bytesRead() const { return bytes_read_; }

 private:
  int fd_ = -1;
  std::string buffer_;
  std::size_t pos_ = 0;
  std::uint64_t bytes_read_ = 0;
};

std::string submitFrame(std::uint64_t id, std::uint64_t seed) {
  return "{\"id\":" + std::to_string(id) +
         ",\"method\":\"job.submit\",\"params\":{\"kind\":\"randomized\","
         "\"algorithm\":\"gathering\",\"n\":" +
         std::to_string(kServedNodes) +
         ",\"trials\":" + std::to_string(kServedTrials) +
         ",\"seed\":" + std::to_string(seed) + ",\"threads\":1}}";
}

std::string jobFrame(std::uint64_t id, const char* method, std::uint64_t job) {
  return "{\"id\":" + std::to_string(id) + ",\"method\":\"" + method +
         "\",\"params\":{\"job\":" + std::to_string(job) + "}}";
}

/// What a client saw of one job.
struct ServedJob {
  std::size_t seed_index = 0;
  int submit_error = 0;
  std::uint64_t job = 0;
  std::string state;
  std::string stats;  // the job.complete stats object, re-serialized
  std::int64_t submit_ns = 0, reply_ns = 0, first_ns = 0, done_ns = 0;
  std::size_t frames = 0;
  std::uint64_t bytes = 0;
  std::int64_t ping_ns = 0;
};

int errorCode(const Json& frame) {
  const Json* error = frame.find("error");
  if (error == nullptr) return 0;
  const Json* code = error->find("code");
  return code != nullptr && code->isInt() ? static_cast<int>(code->asInt()) : -1;
}

/// Submits, subscribes and waits for job.complete; with `ping`, also times
/// one ping round trip after the job.
ServedJob serveOne(Wire& wire, std::uint64_t& next_id, std::size_t seed_index,
                   std::uint64_t seed, bool ping) {
  ServedJob job;
  job.seed_index = seed_index;
  const std::uint64_t bytes0 = wire.bytesRead();
  job.submit_ns = nowNs();
  wire.send(submitFrame(next_id++, seed));
  const Json reply = Json::parse(wire.readLine());
  job.reply_ns = nowNs();
  ++job.frames;
  job.submit_error = errorCode(reply);
  if (job.submit_error != 0) {
    job.done_ns = job.reply_ns;
    job.bytes = wire.bytesRead() - bytes0;
    return job;
  }
  job.job = static_cast<std::uint64_t>(
      reply.find("result")->find("job")->asInt());
  wire.send(jobFrame(next_id++, "job.subscribe", job.job));
  static const std::string kProgress = "{\"method\":\"job.progress\"";
  static const std::string kComplete = "{\"method\":\"job.complete\"";
  for (;;) {
    const std::string line = wire.readLine();
    ++job.frames;
    if (line.compare(0, kProgress.size(), kProgress) == 0) {
      if (job.first_ns == 0) job.first_ns = nowNs();
      continue;
    }
    if (line.compare(0, kComplete.size(), kComplete) == 0) {
      job.done_ns = nowNs();
      if (job.first_ns == 0) job.first_ns = job.done_ns;
      const Json frame = Json::parse(line);
      const Json& params = *frame.find("params");
      job.state = params.find("state")->asString();
      if (const Json* stats = params.find("stats")) job.stats = stats->dump();
      break;
    }
    if (errorCode(Json::parse(line)) != 0) {  // the subscribe reply
      job.state = "subscribe-error";
      job.done_ns = nowNs();
      break;
    }
  }
  job.bytes = wire.bytesRead() - bytes0;
  if (ping) {
    const std::int64_t p0 = nowNs();
    wire.send("{\"id\":" + std::to_string(next_id++) + ",\"method\":\"ping\"}");
    wire.readLine();
    job.ping_ns = nowNs() - p0;
  }
  return job;
}

/// K closed-loop clients, one connection each, submitting until `budget_s`
/// has elapsed; every job submitted before the deadline is waited for.
std::vector<ServedJob> closedLoop(std::vector<std::unique_ptr<Wire>>& wires,
                                  const std::vector<std::uint64_t>& seeds,
                                  double budget_s, bool ping,
                                  std::size_t& rotation) {
  const std::int64_t deadline =
      nowNs() + static_cast<std::int64_t>(budget_s * 1e9);
  std::vector<std::vector<ServedJob>> per_client(wires.size());
  std::vector<std::thread> clients;
  std::mutex error_mutex;
  std::string error;
  const std::size_t first = rotation;
  for (std::size_t k = 0; k < wires.size(); ++k)
    clients.emplace_back([&, k] {
      try {
        std::uint64_t next_id = 1;
        for (std::size_t j = 0; nowNs() < deadline; ++j) {
          const std::size_t index = (first + k + wires.size() * j) % seeds.size();
          per_client[k].push_back(
              serveOne(*wires[k], next_id, index, seeds[index], ping));
        }
      } catch (const std::exception& e) {
        const std::lock_guard<std::mutex> lock(error_mutex);
        error = e.what();
      }
    });
  for (auto& client : clients) client.join();
  if (!error.empty()) throw std::runtime_error("served client: " + error);
  std::vector<ServedJob> jobs;
  for (auto& client_jobs : per_client) {
    rotation += client_jobs.size();
    for (auto& job : client_jobs) jobs.push_back(std::move(job));
  }
  return jobs;
}

/// Times in-process Service::handle for submit, status and result (the
/// job itself runs between the calls and is not timed).
void probeHandle(SpanLog& log, const std::vector<std::uint64_t>& seeds,
                 std::size_t jobs) {
  doda::server::ServiceOptions service_options;
  service_options.queue.workers = 1;
  doda::server::Service service(service_options);
  std::mutex mutex;
  std::condition_variable done_cv;
  std::uint64_t completed = 0;
  const doda::server::StreamSink sink = [&](const Json& frame) {
    const Json* method = frame.find("method");
    if (method != nullptr && method->asString() == "job.complete") {
      const std::lock_guard<std::mutex> lock(mutex);
      ++completed;
      done_cv.notify_all();
    }
    return true;
  };
  auto timed = [&](const char* name, std::uint64_t id, const std::string& line) {
    const std::int64_t t0 = nowNs();
    doda::server::Handled handled = service.handle(line, sink);
    log.add({name, id, t0, nowNs(), -1, 0});
    if (handled.after_reply) handled.after_reply();
    return handled.response;
  };
  for (std::size_t i = 0; i < jobs; ++i) {
    const Json reply = timed("server.handle.submit", i,
                             submitFrame(i, seeds[i % seeds.size()]));
    if (errorCode(reply) != 0) throw std::runtime_error("in-process submit failed");
    const auto job =
        static_cast<std::uint64_t>(reply.find("result")->find("job")->asInt());
    service.handle(jobFrame(i, "job.subscribe", job), sink).after_reply();
    {
      std::unique_lock<std::mutex> lock(mutex);
      done_cv.wait(lock, [&] { return completed > i; });
    }
    timed("server.handle.status", i, jobFrame(i, "job.status", job));
    timed("server.handle.result", i, jobFrame(i, "job.result", job));
  }
  service.drain();
}

Report runServed(const Options& options) {
  Report report;
  // As many closed-loop connections as dodad has workers. With nproc = 4
  // clients on two workers a standing queue formed and amplified the
  // host's load swings into latency (job_latency_p50_ms spread up to 0.23
  // over ten runs, against 0.04 with two clients).
  const std::size_t clients = kServedWorkers;
  std::vector<std::uint64_t> seeds(kServedSeeds);
  for (std::size_t i = 0; i < seeds.size(); ++i)
    seeds[i] = mix(options.seed, kJobSeedStream + i) >> 12;  // JSON-safe ints

  // Set-up: start dodad, ping it, run one untimed job — three times,
  // keeping the last daemon.
  std::vector<double> setups;
  std::unique_ptr<Daemon> daemon;
  for (std::size_t i = 0; i < 3; ++i) {
    daemon.reset();
    const std::int64_t t0 = nowNs();
    daemon = std::make_unique<Daemon>(options.dodad, kServedWorkers);
    Wire wire(daemon->port());
    std::uint64_t next_id = 1;
    wire.send("{\"id\":0,\"method\":\"ping\"}");
    wire.readLine();
    serveOne(wire, next_id, 0, mix(options.seed, kWarmStream + i) >> 12, false);
    setups.push_back(toSeconds(nowNs() - t0));
  }
  std::vector<std::unique_ptr<Wire>> wires;
  for (std::size_t k = 0; k < clients; ++k)
    wires.push_back(std::make_unique<Wire>(daemon->port()));

  const double budget = options.trace ? options.seconds / 2 : options.seconds;
  std::size_t rotation = 0;
  const std::int64_t w0 = nowNs();
  std::vector<ServedJob> jobs = closedLoop(wires, seeds, budget, false, rotation);
  std::int64_t w1 = w0;
  for (const auto& job : jobs) w1 = std::max(w1, job.done_ns);
  const double untraced_jobs_per_s =
      static_cast<double>(jobs.size()) / toSeconds(w1 - w0);

  std::vector<ServedJob> traced_jobs;
  double traced_jobs_per_s = 0.0;
  if (options.trace) {
    const std::int64_t v0 = nowNs();
    traced_jobs = closedLoop(wires, seeds, budget, true, rotation);
    std::int64_t v1 = v0;
    for (const auto& job : traced_jobs) v1 = std::max(v1, job.done_ns);
    traced_jobs_per_s =
        static_cast<double>(traced_jobs.size()) / toSeconds(v1 - v0);
  }
  wires.clear();
  daemon.reset();
  rusage children{};
  getrusage(RUSAGE_CHILDREN, &children);

  // Output check: every job's stats against offline measureRandomized.
  std::vector<std::string> reference(seeds.size());
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    auto config = randomizedConfig(kServedNodes, kServedTrials, seeds[i], 1);
    reference[i] = doda::server::statsJson(
                       doda::sim::measureRandomized(config, gatheringFactory()))
                       .dump();
  }
  JobTally tally;
  auto classify = [&](const ServedJob& job) {
    tally.add(perfbench::classifyJob(job.submit_error, job.state,
                                     job.stats == reference[job.seed_index]));
  };
  for (const auto& job : jobs) classify(job);
  for (const auto& job : traced_jobs) classify(job);
  report.attempted = tally.attempted;
  report.failed = tally.failures();
  const std::size_t completed = tally.attempted - tally.refused - tally.failed;
  report.check(tally.mismatched == 0,
               std::to_string(completed - tally.mismatched) + " of " +
                   std::to_string(completed) +
                   " completed jobs match offline measureRandomized "
                   "bit-for-bit");
  report.notes.push_back(
      "jobs: " + std::to_string(tally.attempted) + " attempted, " +
      std::to_string(tally.refused) + " refused (-32000), " +
      std::to_string(tally.failed) + " failed, " +
      std::to_string(tally.mismatched) + " mismatched");

  if (!options.trace) {
    std::vector<double> latencies;
    for (const auto& job : jobs)
      if (job.submit_error == 0)
        latencies.push_back(toSeconds(job.done_ns - job.submit_ns) * 1e3);
    const std::string count = std::to_string(latencies.size()) + " jobs, " +
                              std::to_string(clients) +
                              " closed-loop connections";
    report.metric("trials_per_s",
                  untraced_jobs_per_s * static_cast<double>(kServedTrials), "1/s",
                  "trials folded by dodad per second");
    report.metric("jobs_per_s", untraced_jobs_per_s, "1/s", count);
    report.metric("job_latency_p50_ms", perfbench::median(latencies), "ms",
                  "submit to job.complete, " + count);
    noteLatencyTail(report, latencies, count);
    report.metric("peak_rss_mb", static_cast<double>(children.ru_maxrss) / 1024.0,
                  "MB", "dodad's peak RSS");
    reportSetup(report, setups, "start dodad, ping, one untimed job");
    return report;
  }

  SpanLog log;
  std::vector<double> pings;
  double frames = 0.0, bytes = 0.0;
  for (const auto& job : traced_jobs) {
    if (job.submit_error != 0) continue;
    const std::int64_t root =
        log.add({"server.job", job.job, job.submit_ns, job.done_ns, -1, 0});
    log.add({"server.submit", job.job, job.submit_ns, job.reply_ns, root, 0});
    log.add({"server.wait", job.job, job.reply_ns, job.first_ns, root, 0});
    log.add({"server.stream", job.job, job.first_ns, job.done_ns, root,
             job.frames});
    log.add({"server.ping", job.job, job.done_ns, job.done_ns + job.ping_ns, -1,
             0});
    pings.push_back(static_cast<double>(job.ping_ns) * 1e-3);
    frames += static_cast<double>(job.frames);
    bytes += static_cast<double>(job.bytes);
  }
  probeHandle(log, seeds, 64);
  const auto t = perfbench::totalsByName(log);
  std::vector<double> handle_us;
  for (const char* name :
       {"server.handle.submit", "server.handle.status", "server.handle.result"})
    for (double ms : t.at(name).durations_ms) handle_us.push_back(ms * 1e3);
  const double served = static_cast<double>(t.at("server.job").spans);
  std::map<std::string, double> values;
  values["server.handle_us_p50"] = perfbench::median(handle_us);
  values["server.first_frame_ms_p50"] =
      perfbench::median(t.at("server.wait").durations_ms);
  values["server.frames_per_job"] = frames / served;
  values["server.bytes_per_job"] = bytes / served;
  values["server.ping_rtt_us_p50"] = perfbench::median(pings);
  values["trace.overhead_share"] = traced_jobs_per_s / untraced_jobs_per_s;
  reportLayers(report, values,
               {{"server.handle_us_p50",
                 "in-process Service::handle, submit/status/result"},
                {"server.first_frame_ms_p50",
                 "submit reply to first job.progress, includes queue wait"},
                {"trace.overhead_share",
                 "traced over untraced jobs_per_s; traced jobs add a ping"}});
  writeTrace(report, log, options);
  return report;
}

// ================================================================= main

std::string environmentLine(const Options& options) {
  const std::string build_type = PERFBENCH_BUILD_TYPE;
#if defined(__clang__)
  const std::string compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  const std::string compiler = std::string("gcc ") + __VERSION__;
#else
  const std::string compiler = "unknown";
#endif
  return "env: workload=" + options.workload +
         " seed=" + std::to_string(options.seed) +
         " nproc=" + std::to_string(nprocCount()) + " hardware_concurrency=" +
         std::to_string(std::thread::hardware_concurrency()) +
         " build_type=" + build_type +
         (build_type == "Release" ? "" : " (NOT Release: timings invalid)") +
         " compiler=\"" + compiler + "\" commit=" + options.commit;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Options options = parseOptions(argc, argv);
    Report report;
    if (options.workload == "wg_lazy_n1024") {
      report = runWaitingGreedyLazy(options);
    } else if (options.workload == "gathering_huge_n4096") {
      report = runGatheringHuge(options);
    } else if (options.workload == "replay_v4_n256") {
      report = runReplay(options);
    } else if (options.workload == "served_n64") {
      if (options.dodad.empty()) throw std::invalid_argument("--dodad is required");
      report = runServed(options);
    } else {
      throw std::invalid_argument("unknown workload '" + options.workload + "'");
    }
    std::cout << environmentLine(options) << "\n";
    for (const auto& note : report.notes) std::cout << note << "\n";
    const double failed_share =
        report.attempted == 0 ? 0.0
                              : static_cast<double>(report.failed) /
                                    static_cast<double>(report.attempted);
    std::cout << "failed_share = " << formatNumber(failed_share) << " share  ("
              << report.failed << " of " << report.attempted << ")\n";
    std::string json = "{\"correct\":" +
                       std::string(report.correct ? "true" : "false") +
                       ",\"attempted\":" + std::to_string(report.attempted) +
                       ",\"failed\":" + std::to_string(report.failed) +
                       ",\"metrics\":{";
    for (std::size_t i = 0; i < report.metrics.size(); ++i) {
      const Metric& metric = report.metrics[i];
      json += (i == 0 ? "\"" : ",\"") + metric.name + "\":{\"value\":" +
              formatNumber(metric.value) + ",\"unit\":\"" + metric.unit + "\"}";
    }
    std::cout << json << "}}" << std::endl;
    return report.correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 2;
  }
}
