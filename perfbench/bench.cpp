#include "bench.hpp"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <functional>
#include <thread>

#include "core/weight_levels.hpp"
#include "graph/generators.hpp"
#include "matching/approx.hpp"
#include "matching/blossom_weighted.hpp"
#include "util/hash.hpp"
#include "util/thread_pool.hpp"

namespace perfbench {

void Report::op(const std::string& failure) {
  ++attempted_;
  if (failure.empty()) return;
  ++failed_;
  std::fprintf(stderr, "FAILED: %s\n", failure.c_str());
}

std::uint64_t sub_seed(std::uint64_t seed, std::uint64_t k) {
  return dp::mix_combine(dp::mix64(seed), k);
}

dp::Graph make_graph(std::size_t n, std::size_t m, std::uint64_t seed) {
  dp::Graph g = dp::gen::gnm(n, m, sub_seed(seed, 1));
  dp::gen::weight_uniform(g, 1.0, 16.0, sub_seed(seed, 2));
  return g;
}

dp::core::SolverOptions solver_options(std::size_t threads) {
  dp::core::SolverOptions opt;
  opt.eps = 0.2;
  opt.p = 2.0;
  opt.seed = 42;
  opt.oracle.threads = threads;
  return opt;
}

std::uint64_t fingerprint(const dp::Graph& g) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&h](std::uint64_t word) {
    for (int i = 0; i < 8; ++i) {
      h ^= (word >> (8 * i)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  };
  mix(g.num_vertices());
  for (const dp::Edge& e : g.edges()) {
    std::uint64_t bits = 0;
    static_assert(sizeof(bits) == sizeof(e.w));
    std::memcpy(&bits, &e.w, sizeof(bits));
    mix((std::uint64_t{e.u} << 32) | e.v);
    mix(bits);
  }
  return h;
}

double exact_optimum(const dp::Graph& g) {
  return dp::max_weight_matching(g).weight(g);
}

std::string check_result(const dp::Graph& g,
                         const dp::core::SolverResult& result,
                         std::optional<double> opt) {
  constexpr double kSlack = 1e-9;
  char buf[256];
  if (result.status != dp::core::SolverStatus::kComplete) {
    return "solver status is not kComplete";
  }
  if (!result.matching.is_valid(g)) return "returned matching is invalid";
  const double weight = result.matching.weight(g);
  if (weight != result.value) {
    std::snprintf(buf, sizeof(buf), "matching weighs %.17g, value says %.17g",
                  weight, result.value);
    return buf;
  }
  if (!opt) return "";
  if (result.value > *opt * (1 + kSlack)) {
    std::snprintf(buf, sizeof(buf), "value %.17g exceeds the optimum %.17g",
                  result.value, *opt);
    return buf;
  }
  if (*opt > result.dual_bound * (1 + kSlack)) {
    std::snprintf(buf, sizeof(buf),
                  "optimum %.17g exceeds the dual bound %.17g", *opt,
                  result.dual_bound);
    return buf;
  }
  return "";
}

std::string check_same_answer(const dp::core::SolverResult& a,
                              const dp::core::SolverResult& b) {
  if (a.value == b.value && a.certified_ratio == b.certified_ratio) return "";
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "solves disagree: value %.17g vs %.17g, ratio %.17g vs %.17g",
                a.value, b.value, a.certified_ratio, b.certified_ratio);
  return buf;
}

AccessProbe probe_access(Tracer& tracer, int parent, const dp::Graph& g,
                         dp::access::Substrate& sub, std::size_t t) {
  constexpr int kReps = 5;
  const dp::core::SolverOptions so = solver_options(kThreads);
  const dp::core::LevelGraph lg(g, dp::Capacities::unit(g.num_vertices()),
                                so.eps);
  dp::ThreadPool pool(kThreads);
  tracer.span_ms("access.bind", parent, [&] {
    sub.bind(g, lg, &pool, so.oracle.parallel_grain);
  });
  const std::size_t retained = sub.num_retained();

  std::vector<double> out(retained);
  const dp::access::SweepKernel kernel =
      [&out](std::size_t lo, std::size_t hi,
             const dp::access::RetainedEdge* edges) {
        for (std::size_t i = lo; i < hi; ++i) out[i] = edges[i - lo].w;
      };
  for (int r = 0; r < kReps; ++r) {
    tracer.span_ms("access.sweep", parent,
                   [&] { sub.multiplier_sweep(kernel); });
  }

  const double n = static_cast<double>(g.num_vertices());
  const double per_sparsifier = std::pow(n, 1.0 + 1.0 / so.p);
  const double share = std::min(
      1.0, per_sparsifier /
               static_cast<double>(std::max<std::size_t>(1, retained)));
  const std::vector<double> prob(retained, share);
  const dp::core::SamplingRound* round = nullptr;
  for (int r = 0; r < kReps; ++r) {
    if (round != nullptr) sub.release_stored(round->stored_total());
    tracer.span_ms("access.draw", parent, [&] {
      round = &sub.draw(prob, t, static_cast<std::uint64_t>(r), so.seed);
    });
  }

  AccessProbe probe;
  std::vector<dp::EdgeId> ids;
  std::vector<dp::Edge> edges;
  sub.materialize_union(round->union_support(), ids, edges);
  probe.union_edges = edges.size();
  const dp::Graph stored(g.num_vertices(), std::move(edges));
  for (int r = 0; r < kReps; ++r) {
    tracer.span_ms("matching.offline", parent, [&] {
      (void)dp::approx_weighted_matching(stored, so.offline);
    });
  }
  sub.release_stored(round->stored_total());

  probe.sweep_ms = median(tracer.durations_ms("access.sweep"));
  probe.draw_ms = median(tracer.durations_ms("access.draw"));
  probe.offline_ms = median(tracer.durations_ms("matching.offline"));
  return probe;
}

void report_solver_layers(Report& report, const Tracer& tracer,
                          const dp::Graph& g,
                          const dp::core::SolverResult& traced,
                          const AccessProbe& probe, double solve_4t_s,
                          double solve_1t_s) {
  const dp::ResourceMeter& meter = traced.meter;
  const double round_ms = median(tracer.durations_ms("core.round"));
  report.set("core.outer_rounds", static_cast<double>(traced.outer_rounds));
  report.set("core.inner_iterations",
             static_cast<double>(meter.inner_iterations()));
  report.set("core.oracle_calls", static_cast<double>(traced.oracle_calls));
  report.set("core.lambda_final", traced.lambda);
  report.set("core.round_ms_p50", round_ms);
  report.set("core.inner_self_ms",
             round_ms - probe.sweep_ms - probe.draw_ms - probe.offline_ms);
  report.set("util.parallel_efficiency",
             solve_4t_s > 0 ? solve_1t_s / (kThreads * solve_4t_s) : 0);

  const double t =
      traced.warm != nullptr ? static_cast<double>(traced.warm->sparsifiers)
                             : 1;
  const double n = static_cast<double>(g.num_vertices());
  const double passes = static_cast<double>(meter.passes());
  report.set("access.sweep_ms", probe.sweep_ms);
  report.set("access.draw_ms", probe.draw_ms);
  report.set("access.passes", passes);
  report.set("access.peak_stored_edges",
             static_cast<double>(meter.peak_edges()));
  report.set("access.space_ratio",
             static_cast<double>(meter.peak_edges()) /
                 (t * std::pow(n, 1.0 + 1.0 / solver_options(1).p)));
  report.set("access.peak_resident_edges",
             static_cast<double>(meter.peak_resident_edges()));

  const double fetches =
      static_cast<double>(meter.prefetch_hits() + meter.io_stalls());
  report.set("stream.io_mb_per_pass",
             passes > 0 ? static_cast<double>(meter.io_bytes()) / passes / 1e6
                        : 0);
  report.set("stream.prefetch_hit_rate",
             fetches > 0 ? static_cast<double>(meter.prefetch_hits()) / fetches
                         : 0);
  report.set("matching.offline_ms", probe.offline_ms);
  report.set("matching.union_edges", static_cast<double>(probe.union_edges));
  report.set("graph.max_flows", static_cast<double>(meter.max_flows()));
}

std::function<bool(const dp::core::RoundCheckpoint&)> round_spans(
    Tracer& tracer, int parent) {
  auto last = std::make_shared<double>(tracer.now_us());
  return [&tracer, parent, last](const dp::core::RoundCheckpoint&) {
    const double now = tracer.now_us();
    tracer.add("core.round", *last, now, parent);
    *last = now;
    return true;
  };
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] * (1 - frac) + v[hi] * frac;
}

namespace {

const cpu_set_t& process_cpus() {
  static const cpu_set_t cpus = [] {
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) != 0) CPU_SET(0, &set);
    return set;
  }();
  return cpus;
}

}  // namespace

void pin_to_cpu(std::size_t k) {
  const cpu_set_t& all = process_cpus();
  const auto count = static_cast<std::size_t>(CPU_COUNT(&all));
  std::size_t skip = k % count;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &all) || skip-- != 0) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    sched_setaffinity(0, sizeof(one), &one);
    return;
  }
}

void unpin() {
  sched_setaffinity(0, sizeof(cpu_set_t), &process_cpus());
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

int Tracer::add(const std::string& name, double start_us, double end_us,
                int parent) {
  const std::size_t thread =
      std::hash<std::thread::id>{}(std::this_thread::get_id()) % 1000;
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back({name, start_us, end_us, parent, thread});
  return static_cast<int>(spans_.size() - 1);
}

void Tracer::close(int id) {
  const double now = now_us();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<std::size_t>(id)].end_us = now;
}

std::vector<double> Tracer::durations_ms(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.name == name) out.push_back((s.end_us - s.start_us) / 1e3);
  }
  return out;
}

void Tracer::write_chrome(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write trace %s\n", path.c_str());
    return;
  }
  std::lock_guard<std::mutex> lock(mu_);
  std::fprintf(f, "{\"traceEvents\":[\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,"
                 "\"pid\":%llu,\"tid\":%zu,\"args\":{\"id\":%zu,"
                 "\"parent\":%d}}\n",
                 i == 0 ? "" : ",", s.name.c_str(), s.start_us,
                 s.end_us - s.start_us,
                 static_cast<unsigned long long>(run_id_), s.thread, i,
                 s.parent);
  }
  std::fprintf(f, "]}\n");
  std::fclose(f);
}

}  // namespace perfbench
