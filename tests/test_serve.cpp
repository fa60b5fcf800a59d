// Tests for deadline-aware anytime solving (util/cancel + the solver's
// kDeadline/kCancelled contract) and the overload-robust matching service
// (serve/service, serve/workload): anytime results are exactly certified
// and warm-resume bitwise-identically, admission control sheds typed, the
// watchdog cancels non-progressing solves, probes answer from certified
// artifacts, and concurrent service sessions at different thread counts
// reproduce solo runs bit-for-bit.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <thread>
#include <vector>

#include "access/streaming.hpp"
#include "core/checkpoint.hpp"
#include "core/solver.hpp"
#include "graph/generators.hpp"
#include "serve/service.hpp"
#include "serve/workload.hpp"
#include "util/cancel.hpp"
#include "util/clock.hpp"

namespace dp {
namespace {

core::SolverOptions anytime_options() {
  core::SolverOptions opt;
  opt.eps = 0.2;
  opt.p = 2.0;
  opt.seed = 909;
  opt.max_outer_rounds = 5;
  opt.sparsifiers_per_round = 4;
  return opt;
}

Graph anytime_graph() {
  Graph g = gen::gnm(140, 1100, 611);
  gen::weight_uniform(g, 1.0, 9.0, 612);
  return g;
}

/// A graph whose solve is slow enough (hundreds of ms on any host) that a
/// submit / sweep executed while it runs cannot race its completion.
Graph blocker_graph() {
  Graph g = gen::gnm(700, 9000, 777);
  gen::weight_uniform(g, 1.0, 20.0, 778);
  return g;
}

void expect_bitwise_equal(const core::SolverResult& a,
                          const core::SolverResult& b, const char* label) {
  EXPECT_EQ(a.value, b.value) << label;
  EXPECT_EQ(a.dual_bound, b.dual_bound) << label;
  EXPECT_EQ(a.certified_ratio, b.certified_ratio) << label;
  EXPECT_EQ(a.lambda, b.lambda) << label;
  EXPECT_EQ(a.beta, b.beta) << label;
  ASSERT_EQ(a.b_matching.num_edges(), b.b_matching.num_edges()) << label;
  for (EdgeId e = 0; e < a.b_matching.num_edges(); ++e) {
    ASSERT_EQ(a.b_matching.multiplicity(e), b.b_matching.multiplicity(e))
        << label << " edge " << e;
  }
}

// ---------------------------------------------------------------------------
// Anytime solving: deadlines and cancellation in the solver.

TEST(Anytime, DeadlineExpiryReturnsCertifiedResultAndResumesBitwise) {
  const Graph g = anytime_graph();

  // Uninterrupted reference.
  core::SolverOptions ref_opt = anytime_options();
  const core::SolverResult ref = core::Solver(g, ref_opt).solve();
  ASSERT_EQ(ref.status, core::SolverStatus::kComplete);
  const std::size_t total_rounds = ref.outer_rounds;
  ASSERT_GE(total_rounds, 2u);

  // Deadline run on a scripted clock: each completed round advances fake
  // time by 10us through the checkpoint hook, and the budget covers
  // exactly two rounds — so expiry lands at the round-3 safe point
  // deterministically, independent of host speed.
  FakeClock clock;
  core::SolverOptions opt = anytime_options();
  opt.deadline = Deadline::after(clock, 25);
  opt.on_checkpoint = [&clock](const core::RoundCheckpoint&) {
    clock.advance_us(10);
    return true;
  };
  const core::SolverResult cut = core::Solver(g, opt).solve();
  EXPECT_EQ(cut.status, core::SolverStatus::kDeadline);
  EXPECT_LT(cut.outer_rounds, total_rounds);
  EXPECT_GT(cut.outer_rounds, 0u);

  // The anytime result is exactly certified and matches the reference's
  // incumbent at the same round.
  EXPECT_GT(cut.dual_bound, 0.0);
  EXPECT_EQ(cut.certified_ratio, cut.value / cut.dual_bound);
  ASSERT_LE(cut.outer_rounds, ref.history.size());
  EXPECT_EQ(cut.value, ref.history[cut.outer_rounds - 1].best_value);

  // The checkpoint rides in the result and warm-resumes to a final answer
  // bitwise identical to the uninterrupted run, in fewer rounds.
  ASSERT_NE(cut.checkpoint, nullptr);
  EXPECT_EQ(cut.checkpoint->next_round, cut.outer_rounds);
  core::SolverOptions resume_opt = anytime_options();
  const core::SolverResult resumed =
      core::Solver(g, resume_opt).solve(*cut.checkpoint);
  EXPECT_EQ(resumed.status, core::SolverStatus::kComplete);
  expect_bitwise_equal(resumed, ref, "resumed-vs-reference");
  EXPECT_EQ(resumed.outer_rounds, total_rounds);
  ASSERT_EQ(resumed.history.size(), ref.history.size());
  for (std::size_t r = 0; r < ref.history.size(); ++r) {
    EXPECT_EQ(resumed.history[r].best_value, ref.history[r].best_value);
    EXPECT_EQ(resumed.history[r].lambda, ref.history[r].lambda);
  }
}

TEST(Anytime, PreCancelledTokenStopsBeforeRoundOne) {
  const Graph g = anytime_graph();
  core::SolverOptions opt = anytime_options();
  opt.cancel = CancelToken::make();
  opt.cancel.cancel();
  const core::SolverResult result = core::Solver(g, opt).solve();
  EXPECT_EQ(result.status, core::SolverStatus::kCancelled);
  EXPECT_EQ(result.outer_rounds, 0u);
  EXPECT_EQ(result.checkpoint, nullptr);
  // Still rigorous: whatever value is reported is certified.
  EXPECT_GE(result.certified_ratio, 0.0);
  EXPECT_LE(result.certified_ratio, 1.0 + 1e-12);
}

TEST(Anytime, CancellationMidSolveReturnsAnytimeResult) {
  const Graph g = anytime_graph();
  core::SolverOptions opt = anytime_options();
  opt.cancel = CancelToken::make();
  std::size_t rounds_seen = 0;
  opt.on_checkpoint = [&](const core::RoundCheckpoint&) {
    if (++rounds_seen == 2) opt.cancel.cancel();
    return true;
  };
  const core::SolverResult result = core::Solver(g, opt).solve();
  EXPECT_EQ(result.status, core::SolverStatus::kCancelled);
  EXPECT_EQ(result.outer_rounds, 2u);
  ASSERT_NE(result.checkpoint, nullptr);
  EXPECT_EQ(result.checkpoint->next_round, 2u);
  EXPECT_GT(result.dual_bound, 0.0);
  EXPECT_EQ(result.certified_ratio, result.value / result.dual_bound);
}

// Satellite: kInterrupted must carry the checkpoint in the result so the
// interrupt -> resume round-trip needs no caller-side callback plumbing.
TEST(Anytime, InterruptedSolveCarriesCheckpointForResume) {
  const Graph g = anytime_graph();
  core::SolverOptions ref_opt = anytime_options();
  const core::SolverResult ref = core::Solver(g, ref_opt).solve();

  core::SolverOptions opt = anytime_options();
  std::size_t rounds_seen = 0;
  opt.on_checkpoint = [&](const core::RoundCheckpoint&) {
    return ++rounds_seen < 2;  // stop after round 2
  };
  const core::SolverResult cut = core::Solver(g, opt).solve();
  ASSERT_EQ(cut.status, core::SolverStatus::kInterrupted);
  ASSERT_NE(cut.checkpoint, nullptr);
  EXPECT_EQ(cut.checkpoint->next_round, 2u);

  core::SolverOptions resume_opt = anytime_options();
  const core::SolverResult resumed =
      core::Solver(g, resume_opt).solve(*cut.checkpoint);
  EXPECT_EQ(resumed.status, core::SolverStatus::kComplete);
  expect_bitwise_equal(resumed, ref, "interrupt-resume");
}

TEST(Anytime, StreamingDeadlineFiresMidPass) {
  // Auto-advancing fake clock: every stop poll moves time forward, so the
  // deadline expires after a fixed number of polls — inside the first
  // streaming pass, long before a round completes.
  const Graph g = anytime_graph();
  FakeClock clock;
  clock.auto_advance_us(1);
  access::StreamingSubstrate substrate;
  core::SolverOptions opt = anytime_options();
  opt.substrate = &substrate;
  opt.deadline = Deadline::after(clock, 3);
  const core::SolverResult result = core::Solver(g, opt).solve();
  EXPECT_EQ(result.status, core::SolverStatus::kDeadline);
  EXPECT_EQ(result.outer_rounds, 0u);
  EXPECT_GE(result.certified_ratio, 0.0);
}

// ---------------------------------------------------------------------------
// The matching service.

TEST(Serve, SolveThenProbeEndToEnd) {
  serve::ServiceOptions sopt;
  sopt.workers = 1;
  sopt.solver = anytime_options();
  serve::MatchingService svc(sopt);
  Graph g = anytime_graph();
  const core::SolverResult direct = core::Solver(g, anytime_options()).solve();
  const std::size_t snap = svc.add_snapshot(std::move(g));

  serve::Request solve_req;
  solve_req.type = serve::RequestType::kSolve;
  solve_req.snapshot = snap;
  const serve::Response solved = svc.submit(solve_req).wait();
  ASSERT_EQ(solved.status, serve::ResponseStatus::kOk);
  EXPECT_TRUE(solved.certified);
  EXPECT_EQ(solved.value, direct.value);
  EXPECT_EQ(solved.certified_ratio, direct.certified_ratio);
  EXPECT_EQ(solved.bound_source, direct.bound_source);
  EXPECT_EQ(solved.checkpoint, nullptr);

  // Probe an edge of the certified matching (the service's solve is
  // deterministic, so the direct run tells us one).
  ASSERT_FALSE(direct.matching.edges().empty());
  const Graph g2 = anytime_graph();
  const Edge& matched = g2.edges()[direct.matching.edges().front()];
  serve::Request probe;
  probe.type = serve::RequestType::kProbeEdge;
  probe.snapshot = snap;
  probe.u = matched.u;
  probe.v = matched.v;
  const serve::Response hit = svc.submit(probe).wait();
  ASSERT_EQ(hit.status, serve::ResponseStatus::kOk);
  EXPECT_TRUE(hit.edge_in_matching);
  EXPECT_EQ(hit.certified_ratio, direct.certified_ratio);

  // A non-edge probe misses but still carries the certificate.
  probe.u = matched.u;
  probe.v = matched.u;
  const serve::Response miss = svc.submit(probe).wait();
  ASSERT_EQ(miss.status, serve::ResponseStatus::kOk);
  EXPECT_FALSE(miss.edge_in_matching);

  serve::Request ratio;
  ratio.type = serve::RequestType::kProbeRatio;
  ratio.snapshot = snap;
  const serve::Response rr = svc.submit(ratio).wait();
  ASSERT_EQ(rr.status, serve::ResponseStatus::kOk);
  EXPECT_EQ(rr.certified_ratio, direct.certified_ratio);
  EXPECT_EQ(rr.value, direct.value);
}

TEST(Serve, TypedRejections) {
  serve::ServiceOptions sopt;
  sopt.workers = 1;
  sopt.solver = anytime_options();
  serve::MatchingService svc(sopt);
  const std::size_t snap = svc.add_snapshot(anytime_graph());

  // Probe before any certified solve: typed kNotReady with retry hint.
  serve::Request probe;
  probe.type = serve::RequestType::kProbeRatio;
  probe.snapshot = snap;
  const serve::Response nr = svc.submit(probe).wait();
  EXPECT_EQ(nr.status, serve::ResponseStatus::kNotReady);
  EXPECT_FALSE(nr.certified);
  EXPECT_GT(nr.retry_after_us, 0u);

  // Unknown snapshot: typed kNotFound, resolved inline.
  serve::Request bad;
  bad.snapshot = 99;
  const auto ticket = svc.submit(bad);
  EXPECT_TRUE(ticket.ready());
  EXPECT_EQ(ticket.wait().status, serve::ResponseStatus::kNotFound);

  const serve::ServiceStats st = svc.stats();
  EXPECT_EQ(st.not_found, 1u);
  EXPECT_EQ(st.not_ready, 1u);
}

TEST(Serve, AdmissionControlShedsBeyondClassBudget) {
  serve::ServiceOptions sopt;
  sopt.workers = 1;
  sopt.solve_slots = 2;  // one executing + one queued
  sopt.queue_capacity = 64;
  sopt.retry_after_base_us = 500;
  sopt.solver = anytime_options();
  serve::MatchingService svc(sopt);
  const std::size_t snap = svc.add_snapshot(blocker_graph());

  serve::Request req;
  req.type = serve::RequestType::kSolve;
  req.snapshot = snap;
  auto t1 = svc.submit(req);  // occupies the worker for a long time
  auto t2 = svc.submit(req);  // queued
  auto t3 = svc.submit(req);  // over the class budget -> shed inline
  EXPECT_TRUE(t3.ready());
  const serve::Response shed = t3.wait();
  EXPECT_EQ(shed.status, serve::ResponseStatus::kShed);
  EXPECT_GT(shed.retry_after_us, 0u);

  // Probes ride their own budget: they are admitted while solves shed.
  serve::Request probe;
  probe.type = serve::RequestType::kProbeRatio;
  probe.snapshot = snap;
  auto tp = svc.submit(probe);

  const serve::Response r1 = t1.wait();
  const serve::Response r2 = t2.wait();
  EXPECT_EQ(r1.status, serve::ResponseStatus::kOk);
  EXPECT_EQ(r2.status, serve::ResponseStatus::kOk);
  EXPECT_GT(r2.queue_us, 0u);
  tp.wait();

  const serve::ServiceStats st = svc.stats();
  EXPECT_EQ(st.shed, 1u);
  EXPECT_EQ(st.ok, 3u);
  EXPECT_EQ(st.submitted, 4u);
}

TEST(Serve, DeadlineExpiredInQueueIsRejectedWithoutSolving) {
  FakeClock clock;
  serve::ServiceOptions sopt;
  sopt.workers = 1;
  sopt.clock = &clock;
  sopt.solver = anytime_options();
  serve::MatchingService svc(sopt);
  const std::size_t blocker = svc.add_snapshot(blocker_graph());
  const std::size_t small = svc.add_snapshot(anytime_graph());

  serve::Request big;
  big.type = serve::RequestType::kSolve;
  big.snapshot = blocker;
  auto t1 = svc.submit(big);  // FIFO head: occupies the worker

  serve::Request timed;
  timed.type = serve::RequestType::kSolve;
  timed.snapshot = small;
  timed.deadline_us = 10;
  auto t2 = svc.submit(timed);
  clock.advance_us(1000);  // the budget lapses while t2 waits in queue

  const serve::Response r2 = t2.wait();
  EXPECT_EQ(r2.status, serve::ResponseStatus::kDeadline);
  EXPECT_FALSE(r2.certified);  // queue expiry is a typed rejection
  EXPECT_EQ(r2.rounds_executed, 0u);
  EXPECT_NE(r2.detail.find("queue"), std::string::npos);
  t1.wait();
  EXPECT_EQ(svc.stats().deadline_hits, 1u);
}

TEST(Serve, WatchdogCancelsNonProgressingSolve) {
  FakeClock clock;
  serve::ServiceOptions sopt;
  sopt.workers = 1;
  sopt.clock = &clock;
  sopt.watchdog_stall_us = 100;
  sopt.watchdog_poll_us = 0;  // manual sweeps
  sopt.solver = anytime_options();
  serve::MatchingService svc(sopt);
  const std::size_t snap = svc.add_snapshot(blocker_graph());

  serve::Request req;
  req.type = serve::RequestType::kSolve;
  req.snapshot = snap;
  auto ticket = svc.submit(req);

  // Fake time never advances on its own, so the in-flight solve "stalls"
  // as soon as we script a jump past the threshold. Sweep until the slot
  // is active (the worker may not have started yet in real time).
  std::size_t cancelled = 0;
  for (int i = 0; i < 10000 && cancelled == 0 && !ticket.ready(); ++i) {
    clock.advance_us(200);
    cancelled = svc.watchdog_sweep();
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(cancelled, 1u);

  const serve::Response r = ticket.wait();
  EXPECT_EQ(r.status, serve::ResponseStatus::kStalled);
  // The stalled response is still an anytime answer: certified, with a
  // warm-resume handle if any round completed.
  EXPECT_TRUE(r.certified);
  EXPECT_GE(r.certified_ratio, 0.0);
  EXPECT_EQ(svc.stats().stalled, 1u);
}

TEST(Serve, DeadlineMidSolveResumesThroughTheService) {
  // End-to-end warm-resume: a deadline-cut solve's checkpoint, resubmitted
  // through the service, finishes bitwise-identically to the full run.
  const core::SolverResult ref =
      core::Solver(anytime_graph(), anytime_options()).solve();

  FakeClock clock;
  serve::ServiceOptions sopt;
  sopt.workers = 1;
  sopt.clock = &clock;
  sopt.solver = anytime_options();
  // Auto-advancing clock: every stop poll consumes scripted time, so a
  // budget of a few dozen microseconds cuts the solve after a couple of
  // rounds regardless of host speed.
  serve::MatchingService svc(sopt);
  const std::size_t snap = svc.add_snapshot(anytime_graph());
  clock.auto_advance_us(1);

  serve::Request timed;
  timed.type = serve::RequestType::kSolve;
  timed.snapshot = snap;
  timed.deadline_us = 30;
  const serve::Response cut = svc.submit(timed).wait();
  clock.auto_advance_us(0);
  ASSERT_EQ(cut.status, serve::ResponseStatus::kDeadline);
  EXPECT_TRUE(cut.certified);  // mid-solve expiry is an anytime answer
  ASSERT_LT(cut.rounds_executed, ref.outer_rounds);

  if (cut.checkpoint != nullptr) {
    serve::Request again;
    again.type = serve::RequestType::kSolve;
    again.snapshot = snap;
    again.resume = cut.checkpoint;
    const serve::Response done = svc.submit(again).wait();
    ASSERT_EQ(done.status, serve::ResponseStatus::kOk);
    EXPECT_EQ(done.value, ref.value);
    EXPECT_EQ(done.certified_ratio, ref.certified_ratio);
    EXPECT_EQ(done.rounds_executed, ref.outer_rounds);
    EXPECT_EQ(svc.stats().resumed, 1u);
  }
}

TEST(Serve, BadResumeHandleIsTypedError) {
  serve::ServiceOptions sopt;
  sopt.workers = 1;
  sopt.solver = anytime_options();
  serve::MatchingService svc(sopt);
  const std::size_t snap = svc.add_snapshot(anytime_graph());

  // A checkpoint from a DIFFERENT configuration (other seed) must be
  // rejected typed, not crash the worker.
  core::SolverOptions other = anytime_options();
  other.seed = 1234;
  std::shared_ptr<const core::RoundCheckpoint> foreign;
  other.on_checkpoint = [&](const core::RoundCheckpoint& ck) {
    foreign = std::make_shared<core::RoundCheckpoint>(ck);
    return false;
  };
  (void)core::Solver(anytime_graph(), other).solve();
  ASSERT_NE(foreign, nullptr);

  serve::Request req;
  req.type = serve::RequestType::kSolve;
  req.snapshot = snap;
  req.resume = foreign;
  const serve::Response r = svc.submit(req).wait();
  EXPECT_EQ(r.status, serve::ResponseStatus::kError);
  EXPECT_FALSE(r.detail.empty());

  // The worker survived: a normal request still completes.
  serve::Request ok;
  ok.type = serve::RequestType::kSolve;
  ok.snapshot = snap;
  EXPECT_EQ(svc.submit(ok).wait().status, serve::ResponseStatus::kOk);
}

TEST(Serve, ShutdownShedsQueuedRequests) {
  serve::ServiceOptions sopt;
  sopt.workers = 1;
  sopt.solver = anytime_options();
  serve::MatchingService svc(sopt);
  const std::size_t snap = svc.add_snapshot(blocker_graph());
  serve::Request req;
  req.type = serve::RequestType::kSolve;
  req.snapshot = snap;
  auto t1 = svc.submit(req);
  auto t2 = svc.submit(req);
  svc.shutdown();
  // t1 may have completed or been shed depending on timing; t2 must be
  // resolved either way and a post-shutdown submit sheds inline.
  (void)t1.wait();
  (void)t2.wait();
  auto t3 = svc.submit(req);
  EXPECT_TRUE(t3.ready());
  EXPECT_EQ(t3.wait().status, serve::ResponseStatus::kShed);
}

// Satellite: two concurrent service sessions solving the same snapshot at
// different thread counts are each bitwise identical to their solo runs.
TEST(Serve, ConcurrentSessionsMatchSoloRunsBitwise) {
  const Graph g = anytime_graph();

  core::SolverOptions opt1 = anytime_options();
  opt1.oracle.threads = 1;
  core::SolverOptions opt2 = anytime_options();
  opt2.oracle.threads = 2;
  const core::SolverResult solo1 = core::Solver(g, opt1).solve();
  const core::SolverResult solo2 = core::Solver(g, opt2).solve();
  expect_bitwise_equal(solo1, solo2, "thread-count-invariance");

  core::SolverResult conc1, conc2;
  std::thread a([&] { conc1 = core::Solver(g, opt1).solve(); });
  std::thread b([&] { conc2 = core::Solver(g, opt2).solve(); });
  a.join();
  b.join();
  expect_bitwise_equal(conc1, solo1, "concurrent-1-thread");
  expect_bitwise_equal(conc2, solo2, "concurrent-2-thread");
}

// ---------------------------------------------------------------------------
// Workload generation.

TEST(Workload, ZipfianChooserIsDeterministicSkewedAndInRange) {
  const serve::ZipfianChooser zipf(1000, 0.99);
  const serve::ZipfianChooser same(1000, 0.99);
  CounterRng rng(7);
  std::vector<std::size_t> hist(1000, 0);
  for (std::uint64_t i = 0; i < 20000; ++i) {
    const double u = rng.uniform_real(i, 0, 0);
    const std::uint64_t r = zipf.pick(u);
    ASSERT_LT(r, 1000u);
    EXPECT_EQ(r, same.pick(u));
    ++hist[r];
  }
  // Zipf at theta=0.99 over 1000 ranks: rank 0 draws a few percent of all
  // picks and dominates the tail by a wide margin.
  EXPECT_GT(hist[0], hist[500] * 5 + 10);
  EXPECT_GT(hist[0], 200u);
}

TEST(Workload, ZetaCacheExtendsAndRecomputesConsistently) {
  const double z10 = serve::zipfian_zeta(10, 0.75);
  const double z20 = serve::zipfian_zeta(20, 0.75);  // extends the prefix
  EXPECT_GT(z20, z10);
  // A smaller n after a larger one recomputes fresh — same value again.
  EXPECT_DOUBLE_EQ(serve::zipfian_zeta(10, 0.75), z10);
  double direct = 0;
  for (int i = 1; i <= 20; ++i) direct += 1.0 / std::pow(i, 0.75);
  EXPECT_NEAR(z20, direct, 1e-12);
}

TEST(Workload, GeneratorIsPureAndRespectsMixAndGraph) {
  const Graph g = anytime_graph();
  serve::WorkloadMix mix;
  mix.solve = 0.1;
  mix.probe_edge = 0.6;
  mix.probe_ratio = 0.3;
  const serve::WorkloadGen gen(42, g, mix);
  const serve::WorkloadGen gen2(42, g, mix);

  std::size_t solves = 0, edges = 0, ratios = 0;
  for (std::uint64_t op = 0; op < 5000; ++op) {
    const auto kind = gen.kind(3, op);
    EXPECT_EQ(kind, gen2.kind(3, op));  // pure in (seed, client, op)
    const Vertex u = gen.vertex(3, op);
    EXPECT_EQ(u, gen2.vertex(3, op));
    ASSERT_LT(u, g.num_vertices());
    switch (kind) {
      case serve::OpKind::kSolve: ++solves; break;
      case serve::OpKind::kProbeEdge: {
        ++edges;
        const Vertex v = gen.neighbor_of(u, 3, op);
        if (v != serve::kNoNeighbor) {
          bool incident = false;
          for (const auto& inc : g.neighbors(u)) {
            incident = incident || inc.neighbor == v;
          }
          EXPECT_TRUE(incident);
        }
        break;
      }
      case serve::OpKind::kProbeRatio: ++ratios; break;
    }
  }
  // Loose two-sided bounds around the 10/60/30 mix.
  EXPECT_GT(solves, 300u);
  EXPECT_LT(solves, 800u);
  EXPECT_GT(edges, 2500u);
  EXPECT_GT(ratios, 1000u);
}

}  // namespace
}  // namespace dp
