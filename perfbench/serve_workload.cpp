// serve_churn: a closed loop against MatchingService (2 workers, solves at
// one solver thread) on gnm(500, 10000).
//
// Set-up builds the graph, starts the service and answers the cold kSolve.
// Then one writer client runs cycles of kApplyDelta (10 removes plus up to
// 10 inserts, drawn from the seed) followed by kResolve, while one reader
// client sends zipfian kProbeEdge 70% / kProbeRatio 30% back to back until
// the writer stops. A single writer keeps the graph sequence independent of thread
// interleaving, so the run can be replayed: afterwards Solver::resolve is
// re-run directly on the same delta sequence and must reproduce every
// resolve answer bit for bit.
//
// The warm resolve runs no MW rounds, so this workload bypasses the round
// loop; its critical path is the dynamic layer plus one offline matching.

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <memory>
#include <thread>
#include <unordered_set>

#include "access/in_memory.hpp"
#include "bench.hpp"
#include "dynamic/dynamic_graph.hpp"
#include "serve/service.hpp"
#include "serve/workload.hpp"
#include "util/rng.hpp"

namespace perfbench {
namespace {

using dp::serve::RequestType;
using dp::serve::Response;
using dp::serve::ResponseStatus;

struct Sizes {
  std::size_t n, m;
  std::size_t min_cycles;  // the writer runs at least this many cycles...
  std::size_t max_cycles;  // ...and at most this many
  std::size_t quality_generation;  // certified_ratio / value_vs_opt here
};
constexpr Sizes kFull{500, 10000, 200, 1000, 200};
constexpr Sizes kTiny{40, 300, 5, 5, 5};
constexpr int kSetupReps = 3;
constexpr std::size_t kBatch = 10;

/// The writer's delta sequence, drawn against a mirror of the live edge
/// set: each batch removes kBatch live edges and inserts up to kBatch
/// absent pairs with U[1, W*) weights. The heaviest edge (weight W*) is
/// never removed, so the level structure holds and every resolve can take
/// the warm path; a scratch fallback would cost a full solve and make the
/// run's length depend on the seed.
std::vector<dp::dyn::EdgeDelta> make_deltas(const dp::Graph& g,
                                            std::size_t count,
                                            std::uint64_t seed) {
  dp::Rng rng(sub_seed(seed, 3));
  const std::uint64_t n = g.num_vertices();
  const auto heaviest = std::max_element(
      g.edges().begin(), g.edges().end(),
      [](const dp::Edge& a, const dp::Edge& b) { return a.w < b.w; });
  std::vector<std::uint64_t> live;
  std::unordered_set<std::uint64_t> present;
  for (auto e = g.edges().begin(); e != g.edges().end(); ++e) {
    const std::uint64_t key = dp::dyn::edge_key(e->u, e->v);
    present.insert(key);
    if (e != heaviest) live.push_back(key);
  }
  std::vector<dp::dyn::EdgeDelta> deltas(count);
  for (dp::dyn::EdgeDelta& d : deltas) {
    for (std::size_t i = 0; i < kBatch && !live.empty(); ++i) {
      const std::size_t j = rng.uniform(live.size());
      const std::uint64_t key = live[j];
      live[j] = live.back();
      live.pop_back();
      present.erase(key);
      d.removes.push_back({static_cast<dp::Vertex>(key >> 32),
                           static_cast<dp::Vertex>(key & 0xffffffffu)});
    }
    for (std::size_t i = 0; i < kBatch; ++i) {
      const auto u = static_cast<dp::Vertex>(rng.uniform(n));
      const auto v = static_cast<dp::Vertex>(rng.uniform(n));
      const double w = rng.uniform_real(1.0, heaviest->w);
      const std::uint64_t key = dp::dyn::edge_key(u, v);
      if (u == v || !present.insert(key).second) continue;
      live.push_back(key);
      d.inserts.push_back({u, v, w});
    }
  }
  return deltas;
}

std::string check_response(const Response& r, bool needs_certificate,
                           const char* what) {
  if (r.status == ResponseStatus::kOk && (r.certified || !needs_certificate)) {
    return "";
  }
  return std::string(what) + " answered " +
         dp::serve::response_status_name(r.status) +
         (r.certified ? "" : " (uncertified)") + ": " + r.detail;
}

struct Service {
  std::unique_ptr<dp::serve::MatchingService> svc;
  std::size_t snapshot = 0;
  Response cold;
};

Service start_service(const dp::Graph& g) {
  dp::serve::ServiceOptions so;
  so.workers = 2;
  so.solver = solver_options(1);
  Service s;
  s.svc = std::make_unique<dp::serve::MatchingService>(so);
  s.snapshot = s.svc->add_snapshot(g);
  dp::serve::Request req;
  req.type = RequestType::kSolve;
  req.snapshot = s.snapshot;
  s.cold = s.svc->submit(req).wait();
  return s;
}

/// Fixed-memory latency histogram, 0.1 us buckets up to 20 ms: the run's
/// peak RSS stays independent of how many probes it completes.
class Histogram {
 public:
  void add(double us) {
    const auto bucket = static_cast<std::size_t>(std::max(0.0, us) * 10);
    ++counts_[std::min(bucket, counts_.size() - 1)];
    ++total_;
  }
  std::size_t count() const noexcept { return total_; }
  double quantile(double q) const {
    const auto rank = static_cast<std::size_t>(
        q * static_cast<double>(total_ == 0 ? 0 : total_ - 1));
    std::size_t seen = 0;
    for (std::size_t b = 0; b < counts_.size(); ++b) {
      seen += counts_[b];
      if (seen > rank) return (static_cast<double>(b) + 0.5) / 10;
    }
    return 0;
  }

 private:
  std::vector<std::uint32_t> counts_ = std::vector<std::uint32_t>(200000);
  std::size_t total_ = 0;
};

/// What the two clients saw.
struct Loop {
  std::vector<Response> resolves;  // one per cycle
  std::vector<double> delta_us, resolve_ms;
  Histogram probe_us, probe_queue_us;
  std::vector<std::string> failures;  // writer requests, "" = passed
  std::vector<std::string> probe_failures;
  double seconds = 0;
};

Loop run_clients(Service& s, const dp::Graph& g,
                 const std::vector<dp::dyn::EdgeDelta>& deltas,
                 const Sizes& sizes, const RunOptions& opt, Tracer* tracer) {
  Loop loop;
  std::atomic<bool> writer_done{false};
  // A request span is named by its class and parented by its client.
  // Probes are sampled 1 in kProbeSpanStride to keep the trace small.
  constexpr std::uint64_t kProbeSpanStride = 64;
  auto timed = [&](const char* name, int client, bool record,
                   dp::serve::Request req) {
    const auto t0 = Clock::now();
    const double start = tracer ? tracer->now_us() : 0;
    Response r = s.svc->submit(std::move(req)).wait();
    const double us =
        std::chrono::duration<double, std::micro>(Clock::now() - t0).count();
    if (tracer && record) tracer->add(name, start, tracer->now_us(), client);
    return std::make_pair(r, us);
  };
  const int writer_span = tracer ? tracer->open("serve.writer") : -1;
  const int reader_span = tracer ? tracer->open("serve.reader") : -1;

  std::thread reader([&] {
    const dp::serve::WorkloadGen gen(sub_seed(opt.seed, 4), g,
                                     dp::serve::WorkloadMix{0.0, 0.7, 0.3});
    for (std::uint64_t op = 0; !writer_done.load(); ++op) {
      dp::serve::Request req;
      req.snapshot = s.snapshot;
      const bool edge = gen.kind(0, op) == dp::serve::OpKind::kProbeEdge;
      req.type = edge ? RequestType::kProbeEdge : RequestType::kProbeRatio;
      if (edge) {
        req.u = gen.vertex(0, op);
        const dp::Vertex v = gen.neighbor_of(req.u, 0, op);
        req.v = v == dp::serve::kNoNeighbor ? req.u : v;
      }
      auto [r, us] = timed(edge ? "serve.probe_edge" : "serve.probe_ratio",
                           reader_span, op % kProbeSpanStride == 0, req);
      std::string failure = check_response(r, true, "probe");
      if (!failure.empty()) loop.probe_failures.push_back(failure);
      loop.probe_us.add(us);
      loop.probe_queue_us.add(static_cast<double>(r.queue_us));
    }
  });

  const auto start = Clock::now();
  try {
    for (std::size_t c = 0; c < sizes.max_cycles; ++c) {
      if (c >= sizes.min_cycles && seconds_since(start) >= opt.seconds) break;
      dp::serve::Request apply;
      apply.type = RequestType::kApplyDelta;
      apply.snapshot = s.snapshot;
      apply.delta = std::make_shared<dp::dyn::EdgeDelta>(deltas[c]);
      auto [ra, us] = timed("serve.apply_delta", writer_span, true, apply);
      loop.failures.push_back(check_response(ra, false, "kApplyDelta"));
      loop.delta_us.push_back(us);

      dp::serve::Request resolve;
      resolve.type = RequestType::kResolve;
      resolve.snapshot = s.snapshot;
      auto [rr, rus] = timed("serve.resolve", writer_span, true, resolve);
      loop.failures.push_back(check_response(rr, true, "kResolve"));
      loop.resolve_ms.push_back(rus / 1e3);
      loop.resolves.push_back(std::move(rr));
    }
  } catch (...) {
    writer_done.store(true);
    reader.join();
    throw;
  }
  writer_done.store(true);
  reader.join();
  loop.seconds = seconds_since(start);
  if (tracer) {
    tracer->close(writer_span);
    tracer->close(reader_span);
  }
  return loop;
}

/// Direct replay of the writer's cycles through DynamicGraph and
/// Solver::resolve at one thread, mirroring the service's warm-handle
/// rule; checks every resolve against the service's answer and the
/// quality generation against the exact optimum.
struct Replay {
  std::vector<double> apply_us, resolve_ms;
  double repaired_rows = 0;
  std::size_t scratch_fallbacks = 0;
  double quality_ratio = 0, quality_vs_opt = 0;
  dp::core::SolverResult cold;
};

Replay replay(const dp::Graph& g, const Service& s, const Loop& loop,
              const std::vector<dp::dyn::EdgeDelta>& deltas,
              const Sizes& sizes, Tracer* tracer, Report& report) {
  Replay out;
  dp::core::SolverOptions so = solver_options(1);
  const int cold_span = tracer ? tracer->open("core.solve") : -1;
  if (tracer) so.on_checkpoint = round_spans(*tracer, cold_span);
  out.cold = dp::core::Solver(g, so).solve();
  if (tracer) tracer->close(cold_span);
  so.on_checkpoint = nullptr;
  std::string failure = check_result(g, out.cold, std::nullopt);
  if (failure.empty() && (out.cold.value != s.cold.value ||
                          out.cold.certified_ratio != s.cold.certified_ratio)) {
    failure = "direct cold solve disagrees with the service's kSolve";
  }
  if (failure.empty() && out.cold.warm == nullptr) {
    failure = "cold solve minted no warm-start handle";
  }
  report.op(failure);
  if (out.cold.warm == nullptr) return out;

  dp::dyn::DynamicGraph dg(g);
  std::shared_ptr<const dp::core::WarmStart> warm = out.cold.warm;
  const int replay_span = tracer ? tracer->open("dynamic.replay") : -1;
  for (std::size_t c = 0; c < loop.resolves.size(); ++c) {
    pin_to_cpu(c);
    const auto t0 = Clock::now();
    dg.apply(deltas[c]);
    const std::shared_ptr<const dp::Graph> graph = dg.materialize();
    const double apply_us =
        std::chrono::duration<double, std::micro>(Clock::now() - t0).count();
    out.apply_us.push_back(apply_us);
    const dp::dyn::EdgeDelta delta = dg.delta_since(warm->graph_generation);
    so.graph_generation = dg.generation();
    const auto t1 = Clock::now();
    const dp::core::SolverResult r =
        dp::core::Solver(*graph, so).resolve(*warm, delta);
    out.resolve_ms.push_back(seconds_since(t1) * 1e3);
    unpin();
    if (tracer) {
      const double end = tracer->now_us();
      const double res_us = out.resolve_ms.back() * 1e3;
      tracer->add("dynamic.apply", end - res_us - apply_us, end - res_us,
                  replay_span);
      tracer->add("dynamic.resolve", end - res_us, end, replay_span);
    }
    out.repaired_rows += static_cast<double>(r.meter.repaired_rows());
    out.scratch_fallbacks += r.warm_resolve ? 0 : 1;

    const bool quality = c + 1 == sizes.quality_generation;
    const double opt = quality ? exact_optimum(*graph) : 0;
    failure = check_result(*graph, r,
                           quality ? std::optional<double>(opt) : std::nullopt);
    const Response& served = loop.resolves[c];
    if (failure.empty() &&
        (r.value != served.value ||
         r.certified_ratio != served.certified_ratio ||
         served.generation != dg.generation())) {
      char buf[200];
      std::snprintf(buf, sizeof(buf),
                    "generation %llu: replayed resolve %.17g/%.17g, service "
                    "answered %.17g/%.17g",
                    static_cast<unsigned long long>(dg.generation()), r.value,
                    r.certified_ratio, served.value, served.certified_ratio);
      failure = buf;
    }
    report.op(failure);
    if (quality) {
      out.quality_ratio = r.certified_ratio;
      out.quality_vs_opt = r.value / opt;
    }
    if (r.warm != nullptr) warm = r.warm;
  }
  if (tracer) tracer->close(replay_span);
  out.repaired_rows /= static_cast<double>(
      std::max<std::size_t>(1, loop.resolves.size()));
  return out;
}

}  // namespace

void run_serve_churn(const RunOptions& opt, Report& report) {
  const Sizes sizes = opt.tiny ? kTiny : kFull;
  std::unique_ptr<Tracer> tracer =
      opt.trace ? std::make_unique<Tracer>(opt.seed) : nullptr;

  std::vector<double> setups;
  dp::Graph g;
  Service s;
  for (int r = 0; r < kSetupReps; ++r) {
    s = Service{};  // joins the previous service's workers
    setups.push_back(time_s([&] {
      g = make_graph(sizes.n, sizes.m, opt.seed);
      s = start_service(g);
    }));
    report.op(check_response(s.cold, true, "cold kSolve"));
  }
  std::printf("input_fingerprint %016llx n=%zu m=%zu\n",
              static_cast<unsigned long long>(fingerprint(g)),
              g.num_vertices(), g.num_edges());
  const std::vector<dp::dyn::EdgeDelta> deltas =
      make_deltas(g, sizes.max_cycles, opt.seed);

  const Loop loop = run_clients(s, g, deltas, sizes, opt, tracer.get());
  for (const std::string& failure : loop.failures) report.op(failure);
  for (const std::string& failure : loop.probe_failures) report.op(failure);
  for (std::size_t i = loop.probe_failures.size(); i < loop.probe_us.count();
       ++i) {
    report.op("");
  }
  const dp::serve::ServiceStats stats = s.svc->stats();
  s.svc->shutdown();
  const Replay rep = replay(g, s, loop, deltas, sizes, tracer.get(), report);
  std::printf("cycles %zu probes %zu\n", loop.resolves.size(),
              loop.probe_us.count());

  report.set("setup_s", median(setups));
  report.set("solve_s", median(rep.resolve_ms) / 1e3);
  report.set("certified_ratio", rep.quality_ratio);
  report.set("value_vs_opt", rep.quality_vs_opt);
  report.set("peak_rss_mb", peak_rss_mb());
  if (!tracer) return;

  // Traced run: per-layer metrics.
  std::vector<double> resolve_queue_ms, resolve_exec_ms;
  for (const Response& r : loop.resolves) {
    resolve_queue_ms.push_back(static_cast<double>(r.queue_us) / 1e3);
    resolve_exec_ms.push_back(static_cast<double>(r.exec_us) / 1e3);
  }
  report.set("serve.throughput_ops_s",
             static_cast<double>(2 * loop.resolves.size() +
                                 loop.probe_us.count()) /
                 loop.seconds);
  report.set("serve.resolve_p50_ms", median(loop.resolve_ms));
  report.set("serve.resolve_p99_ms", quantile(loop.resolve_ms, 0.99));
  report.set("serve.delta_p50_us", median(loop.delta_us));
  report.set("serve.probe_p50_us", loop.probe_us.quantile(0.5));
  report.set("serve.probe_p99_us", loop.probe_us.quantile(0.99));
  report.set("serve.probe_queue_us_p99", loop.probe_queue_us.quantile(0.99));
  report.set("serve.resolve_queue_ms_p50", median(resolve_queue_ms));
  report.set("serve.resolve_exec_ms_p50", median(resolve_exec_ms));
  report.set("serve.shed", static_cast<double>(stats.shed));
  report.set("dynamic.apply_us", median(rep.apply_us));
  report.set("dynamic.resolve_ms", median(rep.resolve_ms));
  report.set("dynamic.repaired_rows", rep.repaired_rows);
  report.set("dynamic.scratch_fallbacks",
             static_cast<double>(rep.scratch_fallbacks));

  // The service's solver runs on its own in-memory substrate; probe that.
  const double plain_s = time_s(
      [&] { (void)dp::core::Solver(g, solver_options(1)).solve(); });
  const double traced_s = median(tracer->durations_ms("core.solve")) / 1e3;
  dp::access::InMemorySubstrate sub;
  const int probe_span = tracer->open("probe");
  const std::size_t t = rep.cold.warm != nullptr ? rep.cold.warm->sparsifiers
                                                 : 8;
  const AccessProbe probe = probe_access(*tracer, probe_span, g, sub, t);
  tracer->close(probe_span);
  report_solver_layers(report, *tracer, g, rep.cold, probe, 0, 0);
  report.set("trace.overhead_s", traced_s - plain_s);
  std::printf("tracing overhead: %+.4f s (traced cold solve %.4f s, "
              "untraced %.4f s)\n",
              traced_s - plain_s, traced_s, plain_s);
  tracer->write_chrome(opt.out_dir + "/trace-" + opt.workload + "-" +
                       std::to_string(opt.seed) + ".json");
}

}  // namespace perfbench
