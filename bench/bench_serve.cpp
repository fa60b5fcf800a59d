// YCSB-style stress driver for the overload-robust matching service: an
// open-loop client replays a zipfian solve/probe mix against a
// MatchingService at underload (0.3x), saturation (1.0x) and overload
// (3.0x) of estimated capacity, across 1/2/8 worker sessions, and reports
// p50/p95/p99 latency, throughput and shed/deadline/degraded rates per
// phase (BENCH_serve.json).
//
// Self-gates (the robustness contract, FATAL on violation):
//  (a) Under overload the service sheds or deadline-degrades but never
//      deadlocks (the driver always drains) and never returns an
//      uncertified answer: every response is either a typed rejection or
//      carries a certified ratio, and every completed full solve is
//      bitwise identical to the direct solver run.
//  (b) A deadline-expired solve re-submitted with its checkpoint finishes
//      in measurably fewer rounds, bitwise identical to the uninterrupted
//      run — and its anytime incumbent equals the uninterrupted run's
//      incumbent at the cut round.
//
// Latency columns: p50/p95/p99 are MACHINE-RELATIVE (normalized by the
// solo solve latency measured in the same process), so CI can gate them
// across runners; the _ms twins are informational absolutes.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/checkpoint.hpp"
#include "core/solver.hpp"
#include "graph/generators.hpp"
#include "serve/service.hpp"
#include "serve/workload.hpp"
#include "util/clock.hpp"
#include "util/timer.hpp"

namespace {

using namespace dp;

int failures = 0;

void gate(bool ok, const std::string& what) {
  if (!ok) {
    std::printf("FATAL: %s\n", what.c_str());
    ++failures;
  }
}

core::SolverOptions solve_options() {
  core::SolverOptions opts;
  opts.eps = 0.25;
  opts.p = 2.0;
  opts.seed = 29;
  opts.max_outer_rounds = 4;
  opts.sparsifiers_per_round = 3;
  return opts;
}

Graph bench_graph() {
  Graph g = gen::gnm(240, 2200, 4181);
  gen::weight_uniform(g, 1.0, 16.0, 4182);
  return g;
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] * (1.0 - frac) + v[hi] * frac;
}

struct PhaseResult {
  std::size_t ops = 0;
  std::size_t ok = 0;
  std::size_t shed = 0;
  std::size_t deadline = 0;
  std::size_t stalled = 0;
  std::size_t degraded = 0;
  std::size_t not_ready = 0;
  double wall_s = 0;
  std::vector<double> latency_ms;  // admitted requests only
};

/// One open-loop phase: `ops` zipfian-mixed requests paced at
/// `rate_per_sec`, all drained before returning (a hung service would hang
/// the driver — gate (a)'s no-deadlock check is that we always return).
PhaseResult run_phase(serve::MatchingService& svc, std::size_t snapshot,
                      const serve::WorkloadGen& gen, std::uint64_t client,
                      std::size_t ops, double rate_per_sec,
                      std::uint64_t solve_deadline_us,
                      const core::SolverResult& expected) {
  const Clock& clock = steady_clock();
  const double interval_us = 1e6 / rate_per_sec;
  std::vector<serve::ResponseTicket> tickets;
  tickets.reserve(ops);

  PhaseResult out;
  out.ops = ops;
  WallTimer wall;
  const std::uint64_t start = clock.now_us();
  for (std::size_t j = 0; j < ops; ++j) {
    const std::uint64_t target =
        start + static_cast<std::uint64_t>(interval_us * j);
    const std::uint64_t now = clock.now_us();
    if (now < target) clock.sleep_us(target - now);

    serve::Request req;
    req.snapshot = snapshot;
    const Vertex u = gen.vertex(client, j);
    switch (gen.kind(client, j)) {
      case serve::OpKind::kSolve:
        req.type = serve::RequestType::kSolve;
        req.deadline_us = solve_deadline_us;
        break;
      case serve::OpKind::kProbeEdge: {
        req.type = serve::RequestType::kProbeEdge;
        req.u = u;
        const Vertex v = gen.neighbor_of(u, client, j);
        req.v = v == serve::kNoNeighbor ? u : v;
        break;
      }
      case serve::OpKind::kProbeRatio:
        req.type = serve::RequestType::kProbeRatio;
        break;
    }
    tickets.push_back(svc.submit(req));
  }

  for (std::size_t j = 0; j < ops; ++j) {
    const serve::Response r = tickets[j].wait();
    switch (r.status) {
      case serve::ResponseStatus::kOk: ++out.ok; break;
      case serve::ResponseStatus::kShed: ++out.shed; break;
      case serve::ResponseStatus::kDeadline: ++out.deadline; break;
      case serve::ResponseStatus::kStalled: ++out.stalled; break;
      case serve::ResponseStatus::kDegraded: ++out.degraded; break;
      case serve::ResponseStatus::kNotReady: ++out.not_ready; break;
      default: break;
    }
    // Gate (a): certified or typed, nothing in between.
    if (r.certified) {
      gate(serve::may_certify(r.status), "certified under a typed status");
      gate(r.certified_ratio > 0,
           "certified response without a positive certified ratio");
    } else {
      gate(r.certified_ratio == 0 && r.value == 0,
           "typed rejection carrying an (uncertified) answer");
    }
    // Completed full solves must reproduce the direct run bitwise.
    if (r.status == serve::ResponseStatus::kOk && r.rounds_executed > 0) {
      gate(r.value == expected.value &&
               r.certified_ratio == expected.certified_ratio,
           "service solve diverged from the direct solver run");
    }
    if (r.status != serve::ResponseStatus::kShed) {
      out.latency_ms.push_back(
          static_cast<double>(r.queue_us + r.exec_us) / 1000.0);
    }
  }
  out.wall_s = wall.seconds();
  return out;
}

/// Gate (b): the deadline -> warm-resume round-trip through the service on
/// a scripted clock. Returns {rounds_at_cut, total_rounds}.
std::pair<std::size_t, std::size_t> resume_experiment(
    const Graph& g, const core::SolverResult& ref) {
  const std::size_t total = ref.outer_rounds;
  for (const std::uint64_t budget_us : {30, 45, 60, 90, 140}) {
    FakeClock clock;
    serve::ServiceOptions sopt;
    sopt.workers = 1;
    sopt.clock = &clock;
    sopt.solver = solve_options();
    serve::MatchingService svc(sopt);
    Graph copy = g;
    const std::size_t snap = svc.add_snapshot(std::move(copy));
    clock.auto_advance_us(1);

    serve::Request timed;
    timed.type = serve::RequestType::kSolve;
    timed.snapshot = snap;
    timed.deadline_us = budget_us;
    const serve::Response cut = svc.submit(timed).wait();
    clock.auto_advance_us(0);
    if (cut.status != serve::ResponseStatus::kDeadline ||
        cut.rounds_executed == 0 || cut.rounds_executed >= total ||
        cut.checkpoint == nullptr) {
      continue;  // budget missed the mid-solve window; try a longer one
    }
    const std::size_t k = cut.rounds_executed;

    // The anytime incumbent equals the uninterrupted run's incumbent at
    // the cut round, bitwise.
    gate(cut.value == ref.history[k - 1].best_value,
         "anytime value differs from the reference incumbent at the cut");
    gate(cut.checkpoint->next_round == k, "checkpoint is not at the cut");

    serve::Request again;
    again.type = serve::RequestType::kSolve;
    again.snapshot = snap;
    again.resume = cut.checkpoint;
    const serve::Response done = svc.submit(again).wait();
    gate(done.status == serve::ResponseStatus::kOk,
         "warm-resume did not complete");
    gate(done.value == ref.value &&
             done.certified_ratio == ref.certified_ratio,
         "warm-resumed solve diverged from the uninterrupted run");
    gate(done.rounds_executed == total,
         "warm-resume replayed instead of continuing");
    return {k, total};
  }
  gate(false, "no deadline budget cut the solve mid-run");
  return {0, total};
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    quick = quick || std::strcmp(argv[i], "--quick") == 0;
  }

  bench::header(
      "serve: anytime solving behind an overload-robust service",
      "Open-loop zipfian solve/probe mix vs an admission-controlled "
      "service: p50/p95/p99 (solo-solve relative), throughput and "
      "shed/deadline rates under 0.3x/1.0x/3.0x load at 1/2/8 workers; "
      "overload sheds typed but never uncertified; deadline-cut solves "
      "warm-resume bitwise-identically in fewer rounds.");

  const Graph g = bench_graph();

  // Solo reference: the expected fingerprint of every full solve, and the
  // normalizer of the machine-relative latency columns.
  const core::SolverResult expected = core::Solver(g, solve_options()).solve();
  gate(expected.status == core::SolverStatus::kComplete,
       "reference solve did not complete");
  gate(expected.outer_rounds >= 2, "reference solve too short to cut");
  double solo_ms = 1e300;
  for (int rep = 0; rep < 3; ++rep) {
    WallTimer t;
    (void)core::Solver(g, solve_options()).solve();
    solo_ms = std::min(solo_ms, t.millis());
  }
  std::printf("# solo solve: %.2f ms, %zu rounds, ratio %.4f\n\n", solo_ms,
              expected.outer_rounds, expected.certified_ratio);

  const auto [cut_round, total_rounds] = resume_experiment(g, expected);
  const double resume_saved_frac =
      total_rounds == 0
          ? 0
          : static_cast<double>(cut_round) / static_cast<double>(total_rounds);
  std::printf("# warm-resume: cut at round %zu/%zu, %.0f%% of rounds saved "
              "on re-submit\n\n",
              cut_round, total_rounds, 100.0 * resume_saved_frac);

  serve::WorkloadMix mix;
  mix.solve = 0.15;
  mix.probe_edge = 0.55;
  mix.probe_ratio = 0.30;
  const serve::WorkloadGen gen(0xced5, g, mix);

  const std::size_t ops = quick ? 40 : 90;
  const double phase_mults[] = {0.3, 1.0, 3.0};
  const std::size_t worker_counts[] = {1, 2, 8};

  bench::BenchReport report(
      "serve",
      {"workers", "offered_x", "ops", "ok", "shed", "deadline", "stalled",
       "not_ready", "p50", "p95", "p99", "p50_ms", "p95_ms", "p99_ms",
       "throughput_rps", "resume_saved_rounds"});

  for (const std::size_t workers : worker_counts) {
    serve::ServiceOptions sopt;
    sopt.workers = workers;
    sopt.queue_capacity = 4 * workers;
    sopt.solve_slots = 2 * workers;
    sopt.probe_slots = 8 * workers;
    sopt.retry_after_base_us = 500;
    sopt.solver = solve_options();
    serve::MatchingService svc(sopt);
    Graph copy = g;
    const std::size_t snap = svc.add_snapshot(std::move(copy));

    // Warm-up solve so probes answer from a certified artifact.
    serve::Request warm;
    warm.type = serve::RequestType::kSolve;
    warm.snapshot = snap;
    gate(svc.submit(warm).wait().status == serve::ResponseStatus::kOk,
         "warm-up solve failed");

    // Solve-driven capacity estimate: workers / (solve share * solo wall).
    const double capacity_rps = static_cast<double>(workers) /
                                (mix.solve * (solo_ms / 1000.0));
    // Solve budget: generous at 4x solo, so underload never trips it but
    // overload queueing does (the deadline-hit column).
    const auto solve_deadline_us =
        static_cast<std::uint64_t>(4.0 * solo_ms * 1000.0);

    // The overload phase is sized from the admission limits, not the host:
    // it offers 3 * solve_slots solves in expectation, arriving three times
    // faster than the workers could finish them even at the solo pace. At
    // most a third complete while they arrive, so the in-flight count must
    // pass solve_slots and admission sheds, whatever the core count.
    const auto overload_ops = std::max<std::size_t>(
        ops, static_cast<std::size_t>(std::lround(
                 3.0 * static_cast<double>(sopt.solve_slots) / mix.solve)));

    for (std::size_t phase = 0; phase < 3; ++phase) {
      const double mult = phase_mults[phase];
      const PhaseResult pr = run_phase(
          svc, snap, gen, /*client=*/workers * 10 + phase,
          mult >= 3.0 ? overload_ops : ops, mult * capacity_rps,
          solve_deadline_us, expected);

      if (mult >= 3.0) {
        gate(pr.shed + pr.deadline + pr.stalled > 0,
             "overload produced no shedding or deadline degradation");
      }
      const double p50 = percentile(pr.latency_ms, 0.50);
      const double p95 = percentile(pr.latency_ms, 0.95);
      const double p99 = percentile(pr.latency_ms, 0.99);
      report.add({static_cast<double>(workers), mult,
                  static_cast<double>(pr.ops), static_cast<double>(pr.ok),
                  static_cast<double>(pr.shed),
                  static_cast<double>(pr.deadline),
                  static_cast<double>(pr.stalled),
                  static_cast<double>(pr.not_ready), p50 / solo_ms,
                  p95 / solo_ms, p99 / solo_ms, p50, p95, p99,
                  static_cast<double>(pr.ok) / pr.wall_s,
                  static_cast<double>(cut_round)});
    }
    svc.shutdown();
  }

  report.flush();
  if (failures > 0) {
    std::printf("\n%d FATAL self-gate failure(s)\n", failures);
    return 1;
  }
  std::printf("\nall serve self-gates passed\n");
  return 0;
}
