#pragma once
// Shared pieces of the perfbench program: run options, the metric report,
// the answer checks against an exact optimum, and the in-memory span
// tracer of the traced run.
//
// Everything here sits OUTSIDE the dp library: the benchmark measures the
// library only by timing calls into its public functions, so nothing in
// src/ is instrumented.

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "access/substrate.hpp"
#include "core/solver.hpp"
#include "graph/graph.hpp"

namespace perfbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Smoke-test instance sizes (seconds-scale runs of every workload).
  bool tiny = false;
  /// Directory for the run's files: the workload edge file, the trace.
  std::string out_dir = ".";
};

/// Metric names and units, in output order. BENCHMARK.json lists the same
/// names; the smoke test keeps the two in step.
struct MetricSpec {
  const char* name;
  const char* unit;
};
extern const std::vector<MetricSpec> kEndToEnd;
extern const std::vector<MetricSpec> kPerLayer;

/// One run's outcome: named metric values plus the operation tally.
class Report {
 public:
  void set(const std::string& name, double value) { values_[name] = value; }
  bool has(const std::string& name) const { return values_.count(name) > 0; }
  double get(const std::string& name) const { return values_.at(name); }

  /// Count one attempted operation. A non-empty `failure` marks it failed
  /// (and is printed to stderr).
  void op(const std::string& failure);

  std::size_t attempted() const noexcept { return attempted_; }
  std::size_t failed() const noexcept { return failed_; }

 private:
  std::map<std::string, double> values_;
  std::size_t attempted_ = 0;
  std::size_t failed_ = 0;
};

// ---- Instances and solver configuration. ----

/// Sub-seed `k` of the workload seed (graph topology, weights, churn...).
std::uint64_t sub_seed(std::uint64_t seed, std::uint64_t k);

/// gnm(n, m) with U[1, 16] weights, drawn from the workload seed.
dp::Graph make_graph(std::size_t n, std::size_t m, std::uint64_t seed);

/// Every workload solves at eps 0.2, p 2, the default round budget and a
/// fixed solver seed: the workload seed changes the inputs only.
dp::core::SolverOptions solver_options(std::size_t threads);

/// FNV-1a over the edge list: printed so a run's inputs are identifiable.
std::uint64_t fingerprint(const dp::Graph& g);

// ---- Answer checks. ----

/// Weight of an exact maximum weight matching (blossom).
double exact_optimum(const dp::Graph& g);

/// "" when the result passes every check, else the first failure: status
/// kComplete, a valid matching weighing exactly `value`, and — when the
/// optimum is given — value <= opt <= dual_bound (1e-9 relative slack).
std::string check_result(const dp::Graph& g,
                         const dp::core::SolverResult& result,
                         std::optional<double> opt);

/// "" when two solves of one instance give bitwise the same answer.
std::string check_same_answer(const dp::core::SolverResult& a,
                              const dp::core::SolverResult& b);

// ---- Statistics and process state. ----

double median(std::vector<double> v);
/// Linear-interpolated quantile, q in [0, 1].
double quantile(std::vector<double> v, double q);
double peak_rss_mb();

/// Single-thread measurements rotate over the CPUs: sample k runs pinned
/// to the k-th CPU the process may use. On a shared virtual machine one
/// CPU can run much slower than the others for seconds at a time, and a
/// thread left where the scheduler put it would carry that into a whole
/// run. unpin() restores the full set; threads inherit the mask they are
/// created under, so multi-threaded work must start unpinned.
void pin_to_cpu(std::size_t k);
void unpin();

using Clock = std::chrono::steady_clock;
inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Wall time of one call, in seconds.
template <typename Fn>
double time_s(Fn&& fn) {
  const auto t0 = Clock::now();
  fn();
  return seconds_since(t0);
}

// ---- Traced run. ----

/// Spans kept in memory and written once at the end as Chrome trace-event
/// JSON. Thread-safe; a span's parent is another span's id (-1 = root).
class Tracer {
 public:
  explicit Tracer(std::uint64_t run_id) : run_id_(run_id) {}

  double now_us() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - origin_)
        .count();
  }

  /// Record a finished span; returns its id.
  int add(const std::string& name, double start_us, double end_us,
          int parent = -1);

  /// Open a span now (children can name it as parent before it closes).
  int open(const std::string& name, int parent = -1) {
    const double now = now_us();
    return add(name, now, now, parent);
  }
  void close(int id);

  /// Run fn inside a span; returns the span's duration in milliseconds.
  template <typename Fn>
  double span_ms(const std::string& name, int parent, Fn&& fn) {
    const double start = now_us();
    fn();
    const double end = now_us();
    add(name, start, end, parent);
    return (end - start) / 1e3;
  }

  /// Durations (ms) of every span with this name.
  std::vector<double> durations_ms(const std::string& name) const;

  void write_chrome(const std::string& path) const;

 private:
  struct Span {
    std::string name;
    double start_us;
    double end_us;
    int parent;
    std::size_t thread;
  };

  std::uint64_t run_id_;
  Clock::time_point origin_ = Clock::now();
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

// ---- Layer probes of the traced run. ----

/// Threads of the multi-threaded solves and probes.
inline constexpr std::size_t kThreads = 4;

/// Time the access layer's public calls on `sub` (bind, a trivial
/// multiplier sweep, t-sparsifier draws) and the offline matching on the
/// drawn union, each inside spans under `parent`. The draws use uniform
/// probabilities sized to n^{1+1/p} expected edges per sparsifier, the
/// scale of a first round.
struct AccessProbe {
  double sweep_ms = 0;
  double draw_ms = 0;
  double offline_ms = 0;
  std::size_t union_edges = 0;
};
AccessProbe probe_access(Tracer& tracer, int parent, const dp::Graph& g,
                         dp::access::Substrate& sub, std::size_t t);

/// Set the core / access / stream-meter / matching / graph layer metrics
/// from a traced solve (its rounds are the "core.round" spans), the
/// access probe, and the untraced 4- and 1-thread solve times (0 = the
/// workload has no thread-scaling pair).
void report_solver_layers(Report& report, const Tracer& tracer,
                          const dp::Graph& g,
                          const dp::core::SolverResult& traced,
                          const AccessProbe& probe, double solve_4t_s,
                          double solve_1t_s);

/// on_checkpoint hook that records one "core.round" span per completed
/// round under `parent`, the first starting at the call.
std::function<bool(const dp::core::RoundCheckpoint&)> round_spans(
    Tracer& tracer, int parent);

// ---- Workloads. ----

bool is_solver_workload(const std::string& name);
void run_solver_workload(const RunOptions& opt, Report& report);
void run_serve_churn(const RunOptions& opt, Report& report);

}  // namespace perfbench
