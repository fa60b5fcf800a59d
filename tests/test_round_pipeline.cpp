// Tests for the staged round pipeline (core/round_pipeline): the offline
// re-solve overlapped with the inner MW iterations must be bitwise
// equivalent to the 1-thread solve, which has no pool and runs the stages
// one after another — for the whole SolverResult (value, lambda, beta,
// certified ratio, per-round history, meter counters), at 2 and 8 threads,
// on every exit path of the round loop — and the offline/merge helpers
// must behave like Algorithm 2 steps 5/6.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "access/in_memory.hpp"
#include "core/checkpoint.hpp"
#include "core/round_pipeline.hpp"
#include "core/solver.hpp"
#include "graph/generators.hpp"
#include "matching/approx.hpp"
#include "test_helpers.hpp"
#include "util/cancel.hpp"
#include "util/clock.hpp"

namespace dp::core {
namespace {

SolverOptions pipeline_options(double eps = 0.2) {
  SolverOptions opt;
  opt.eps = eps;
  opt.p = 2.0;
  opt.seed = 97;
  opt.max_outer_rounds = 3;
  opt.sparsifiers_per_round = 4;
  return opt;
}

void expect_bitwise_equal(const SolverResult& a, const SolverResult& b,
                          const char* label) {
  EXPECT_EQ(a.status, b.status) << label;
  EXPECT_EQ(a.value, b.value) << label;
  EXPECT_EQ(a.dual_bound, b.dual_bound) << label;
  EXPECT_EQ(a.certified_ratio, b.certified_ratio) << label;
  EXPECT_EQ(a.lambda, b.lambda) << label;
  EXPECT_EQ(a.beta, b.beta) << label;
  EXPECT_EQ(a.outer_rounds, b.outer_rounds) << label;
  EXPECT_EQ(a.oracle_calls, b.oracle_calls) << label;
  ASSERT_EQ(a.history.size(), b.history.size()) << label;
  for (std::size_t r = 0; r < a.history.size(); ++r) {
    EXPECT_EQ(a.history[r].round, b.history[r].round) << label;
    EXPECT_EQ(a.history[r].lambda, b.history[r].lambda) << label;
    EXPECT_EQ(a.history[r].beta, b.history[r].beta) << label;
    EXPECT_EQ(a.history[r].best_value, b.history[r].best_value) << label;
    EXPECT_EQ(a.history[r].stored_edges, b.history[r].stored_edges)
        << label;
    EXPECT_EQ(a.history[r].oracle_calls, b.history[r].oracle_calls)
        << label;
  }
  // Every meter counter: the per-stage thread-local meters must aggregate
  // to the same totals whatever the thread count — separation flow work
  // (the same flows run, the same flows saved) included.
  EXPECT_EQ(a.meter.summary(), b.meter.summary()) << label;
  for (EdgeId e = 0; e < a.b_matching.num_edges(); ++e) {
    ASSERT_EQ(a.b_matching.multiplicity(e), b.b_matching.multiplicity(e))
        << label << " edge " << e;
  }
}

TEST(RoundPipeline, BitwiseIdenticalAcrossThreads) {
  Graph g = gen::gnm(120, 900, 61);
  gen::weight_uniform(g, 1.0, 12.0, 62);
  // One input per way out of the round loop. Each runs at 1 thread (the
  // sequential reference) and must be reproduced bitwise at 2 and 8.
  struct Input {
    const char* name;
    SolverOptions opt;
  };
  std::vector<Input> inputs;
  inputs.push_back({"round cap", pipeline_options()});
  SolverOptions target = pipeline_options();
  // Met at the top of round 2: the first round lifts the incumbent from the
  // initial solution's value over the bar.
  target.target_ratio = 0.43;
  inputs.push_back({"target_ratio stop", target});
  SolverOptions interrupted = pipeline_options();
  interrupted.on_checkpoint = [](const RoundCheckpoint& ck) {
    return ck.next_round < 2;
  };
  inputs.push_back({"on_checkpoint false after round 2", interrupted});
  FakeClock clock;  // never advanced, so the deadline never fires
  SolverOptions armed = pipeline_options();
  armed.deadline = Deadline::after(clock, std::uint64_t{1} << 62);
  inputs.push_back({"armed deadline", armed});

  std::vector<SolverResult> refs;
  for (const Input& input : inputs) {
    SolverOptions ref_opt = input.opt;
    ref_opt.oracle.threads = 1;
    refs.push_back(solve_matching(g, ref_opt));
    const SolverResult& ref = refs.back();
    for (const std::size_t threads : {2, 8}) {
      SolverOptions opt = input.opt;
      opt.oracle.threads = threads;
      const SolverResult run = solve_matching(g, opt);
      const std::string label =
          std::string(input.name) + " threads=" + std::to_string(threads);
      expect_bitwise_equal(ref, run, label.c_str());
      ASSERT_EQ(ref.checkpoint == nullptr, run.checkpoint == nullptr)
          << label;
      if (ref.checkpoint != nullptr) {
        EXPECT_EQ(ref.checkpoint->serialize(), run.checkpoint->serialize())
            << label;
      }
    }
  }

  const SolverResult& capped = refs[0];
  EXPECT_GT(capped.value, 0.0);
  EXPECT_EQ(capped.outer_rounds, 3u);
  EXPECT_EQ(capped.history.size(), 3u);

  const SolverResult& stopped = refs[1];
  EXPECT_EQ(stopped.status, SolverStatus::kComplete);
  EXPECT_GE(stopped.outer_rounds, 1u);
  EXPECT_LT(stopped.outer_rounds, capped.outer_rounds);

  const SolverResult& cut = refs[2];
  EXPECT_EQ(cut.status, SolverStatus::kInterrupted);
  EXPECT_EQ(cut.outer_rounds, 2u);
  ASSERT_NE(cut.checkpoint, nullptr);
  EXPECT_EQ(cut.checkpoint->next_round, 2u);

  // Arming a stop builds a checkpoint every round; a stop that never fires
  // must leave the result exactly as the unarmed solve's.
  expect_bitwise_equal(capped, refs[3], "armed deadline vs unarmed");
  EXPECT_EQ(refs[3].checkpoint, nullptr);

  // Odd sets in the dual state. None of the solves above ever holds one
  // (the oracle's Case A fires every time), so resume the round cap input
  // from its round-1 checkpoint with two overlapping odd-set variables
  // added: the inner covering and zeta sweeps must add their terms
  // exactly as cover_row and po_row do, at every thread count.
  SolverOptions first_round = pipeline_options();
  first_round.oracle.threads = 1;
  first_round.on_checkpoint = [](const RoundCheckpoint& ck) {
    return ck.next_round < 1;
  };
  const SolverResult cut_early = solve_matching(g, first_round);
  ASSERT_NE(cut_early.checkpoint, nullptr);
  RoundCheckpoint with_sets = *cut_early.checkpoint;
  ASSERT_FALSE(with_sets.duals.xik.empty());
  std::vector<double> raw;
  for (const auto& [key, value] : with_sets.duals.xik) raw.push_back(value);
  std::sort(raw.begin(), raw.end());
  const double typical = raw[raw.size() / 2];  // comparable to x entries
  with_sets.duals.odd_sets.push_back(
      OddSetVar{0, {0, 1, 2, 3, 4, 5, 6, 7, 8}, typical});
  with_sets.duals.odd_sets.push_back(OddSetVar{
      with_sets.levels / 2, {4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14},
      0.5 * typical});
  const std::size_t thread_counts[] = {1, 2, 8};
  std::vector<SolverResult> resumed;
  std::vector<std::vector<std::vector<std::uint8_t>>> resumed_bytes;
  for (const std::size_t threads : thread_counts) {
    SolverOptions opt = pipeline_options();
    opt.oracle.threads = threads;
    opt.resume_from = &with_sets;
    std::vector<std::vector<std::uint8_t>> bytes;
    opt.on_checkpoint = [&bytes](const RoundCheckpoint& ck) {
      bytes.push_back(ck.serialize());
      return true;
    };
    resumed.push_back(solve_matching(g, opt));
    resumed_bytes.push_back(std::move(bytes));
  }
  EXPECT_EQ(resumed[0].outer_rounds, 3u);
  ASSERT_NE(resumed[0].warm, nullptr);
  EXPECT_GE(resumed[0].warm->duals.odd_sets.size(), 2u);
  EXPECT_FALSE(resumed_bytes[0].empty());
  for (std::size_t r = 1; r < resumed.size(); ++r) {
    const std::string label =
        "odd sets resumed threads=" + std::to_string(thread_counts[r]);
    expect_bitwise_equal(resumed[0], resumed[r], label.c_str());
    EXPECT_EQ(resumed_bytes[0], resumed_bytes[r]) << label;
  }
}

TEST(RoundPipeline, BitwiseIdenticalForBMatching) {
  Graph g = gen::gnm(60, 400, 71);
  gen::weight_uniform(g, 1.0, 8.0, 72);
  const Capacities b = gen::random_capacities(60, 1, 3, 73);
  SolverOptions ref_opt = pipeline_options(0.15);
  ref_opt.oracle.threads = 1;
  const SolverResult ref = solve_b_matching(g, b, ref_opt);
  for (const std::size_t threads : {2, 8}) {
    SolverOptions opt = pipeline_options(0.15);
    opt.oracle.threads = threads;
    const SolverResult run = solve_b_matching(g, b, opt);
    const std::string label = "bmatching threads=" + std::to_string(threads);
    expect_bitwise_equal(ref, run, label.c_str());
  }
}

TEST(RoundPipeline, SolveOfflineReportsPositiveSupportOnly) {
  Graph g = gen::gnm(40, 200, 81);
  gen::weight_uniform(g, 1.0, 6.0, 82);
  const Capacities b = Capacities::unit(40);
  const LevelGraph lg(g, b, 0.2);
  MicroOracle oracle(lg, b, OracleConfig{});
  RoundPipelineOptions popt;
  popt.eps = 0.2;
  access::InMemorySubstrate substrate;
  substrate.bind(g, lg, oracle.worker_pool(), popt.grain);
  RoundPipeline pipeline(substrate, lg, b, /*unit_caps=*/true, oracle,
                         popt);

  std::vector<EdgeId> support;
  std::vector<Edge> support_edges;
  for (EdgeId e = 0; e < g.num_edges(); e += 2) {
    support.push_back(e);
    support_edges.push_back(g.edge(e));
  }
  const OfflineSolution sol = pipeline.solve_offline(support, support_edges);
  ASSERT_FALSE(sol.support.empty());
  // The reported support is exactly the positive-multiplicity edges, and
  // the cached value is the solution's original-weight value.
  double value = 0;
  std::size_t positives = 0;
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    if (sol.bm.multiplicity(e) > 0) {
      ++positives;
      value += static_cast<double>(sol.bm.multiplicity(e)) * g.edge(e).w;
    }
  }
  EXPECT_EQ(sol.support.size(), positives);
  for (EdgeId e : sol.support) EXPECT_GT(sol.bm.multiplicity(e), 0);
  EXPECT_EQ(sol.value, value);

  // merge_offline keeps the better incumbent and raises beta from the
  // normalized (level-weight) value of the support.
  Incumbent inc;
  inc.best = BMatching(g.num_edges());
  inc.beta = 1e-12;
  pipeline.merge_offline(sol, inc);
  EXPECT_EQ(inc.value, sol.value);
  EXPECT_GT(inc.beta, 1e-12);
  // A worse solution must not displace the incumbent.
  OfflineSolution worse;
  worse.bm = BMatching(g.num_edges());
  worse.value = 0;
  const double beta_before = inc.beta;
  pipeline.merge_offline(worse, inc);
  EXPECT_EQ(inc.value, sol.value);
  EXPECT_EQ(inc.beta, beta_before);
}

TEST(RoundPipeline, SolveOfflineMatchesTheSortingSolvers) {
  // solve_offline filters the subgraph's weight order from the level
  // graph's one sort. Integer weights in {1..4} tie heavily, so only the
  // exact tie order reproduces the solvers that sort the subgraph. At the
  // default threshold the 24-vertex unit solve runs the exact blossom,
  // which reads no order.
  const Graph g = test::small_random_int_graph(24, 0.7, 4, 83);
  ApproxOptions local;
  local.exact_threshold = 0;  // local search, never the exact blossom
  std::vector<EdgeId> ids;
  std::vector<Edge> edges;
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    if (e % 3 != 1) {
      ids.push_back(e);
      edges.push_back(g.edge(e));
    }
  }
  const Graph sub(g.num_vertices(), edges);
  ASSERT_TRUE(approx_dispatches_exact(sub, ApproxOptions{}));
  std::vector<std::int64_t> caps(g.num_vertices());
  for (std::size_t v = 0; v < caps.size(); ++v) {
    caps[v] = 1 + static_cast<std::int64_t>(v % 3);
  }
  const std::pair<bool, ApproxOptions> cases[] = {
      {true, local}, {true, ApproxOptions{}}, {false, local}};
  for (const auto& [unit, offline] : cases) {
    const bool exact = approx_dispatches_exact(sub, offline);
    const std::string name = unit ? (exact ? "unit exact" : "unit") : "b";
    const Capacities b = unit ? Capacities::unit(g.num_vertices())
                              : Capacities(caps);
    const LevelGraph lg(g, b, 0.2);
    MicroOracle oracle(lg, b, OracleConfig{});
    RoundPipelineOptions popt;
    popt.eps = 0.2;
    popt.offline = offline;
    access::InMemorySubstrate substrate;
    substrate.bind(g, lg, oracle.worker_pool(), popt.grain);
    const RoundPipeline pipeline(substrate, lg, b, unit, oracle, popt);
    const OfflineSolution sol = pipeline.solve_offline(ids, edges);
    BMatching expected(g.num_edges());
    if (unit) {
      const Matching m = approx_weighted_matching(sub, offline);
      for (EdgeId e : m.edges()) expected.set_multiplicity(ids[e], 1);
    } else {
      const BMatching bm = approx_weighted_b_matching(sub, b);
      for (EdgeId e = 0; e < sub.num_edges(); ++e) {
        expected.set_multiplicity(ids[e], bm.multiplicity(e));
      }
    }
    for (EdgeId e = 0; e < g.num_edges(); ++e) {
      ASSERT_EQ(sol.bm.multiplicity(e), expected.multiplicity(e))
          << name << " edge " << e;
    }
    // Where the order is filtered, ids that do not ascend would reorder
    // ties: a typed error, not a silently different answer.
    if (!exact) {
      std::vector<EdgeId> swapped = ids;
      std::swap(swapped[0], swapped[1]);
      EXPECT_THROW(pipeline.solve_offline(swapped, edges),
                   std::invalid_argument)
          << name;
    }
  }
}

}  // namespace
}  // namespace dp::core
