// End-to-end tests for the dual-primal solver (Theorem 15): approximation
// quality against exact solvers, certificate soundness (the dual bound must
// upper-bound the true optimum), resource metering, b-matching, and
// determinism.

#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "baselines/baselines.hpp"
#include "core/solver.hpp"
#include "graph/generators.hpp"
#include "matching/blossom_unweighted.hpp"
#include "matching/blossom_weighted.hpp"
#include "matching/exact_small.hpp"
#include "matching/greedy.hpp"
#include "matching/hungarian.hpp"
#include "test_helpers.hpp"

namespace dp::core {
namespace {

SolverOptions fast_options(double eps = 0.15) {
  SolverOptions opt;
  opt.eps = eps;
  opt.p = 2.0;
  opt.seed = 7;
  opt.max_outer_rounds = 12;
  opt.sparsifiers_per_round = 4;
  return opt;
}

class SolverQualityParam : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SolverQualityParam, NearOptimalOnRandomGraphs) {
  const std::uint64_t seed = GetParam();
  Graph g = gen::gnm(60, 400, seed * 11 + 3);
  gen::weight_uniform(g, 1.0, 16.0, seed + 1);
  SolverOptions opt = fast_options();
  opt.seed = seed + 100;
  const SolverResult result = solve_matching(g, opt);
  ASSERT_TRUE(result.matching.is_valid(g));
  const double opt_value = max_weight_matching(g).weight(g);

  // Quality: within 1 - O(eps) of the true optimum.
  EXPECT_GE(result.value, (1.0 - 4.0 * opt.eps) * opt_value)
      << "seed " << seed;
  // Certificate soundness: the dual bound really upper-bounds OPT.
  EXPECT_GE(result.dual_bound, opt_value - 1e-6) << "seed " << seed;
  EXPECT_LE(result.certified_ratio, 1.0 + 1e-9);
  EXPECT_GT(result.certified_ratio, 0.0);
}

INSTANTIATE_TEST_SUITE_P(RandomGraphs, SolverQualityParam,
                         ::testing::Range<std::uint64_t>(0, 6));

TEST(Solver, BeatsGreedyOnTrapPath) {
  const Graph g = gen::greedy_trap_path(30, 0.02);
  const SolverResult result = solve_matching(g, fast_options(0.1));
  const double greedy_value = greedy_matching(g).weight(g);
  const double opt_value = max_weight_matching(g).weight(g);
  EXPECT_GT(result.value, greedy_value);
  EXPECT_GE(result.value, 0.9 * opt_value);
}

TEST(Solver, TriangleRichNeedsOddSets) {
  // Disjoint triangles: bipartite reasoning overestimates; the solver must
  // still return a valid near-optimal integral matching (one edge per
  // triangle).
  Graph g = gen::triangle_rich(10, 5, 3);
  const SolverResult result = solve_matching(g, fast_options(0.15));
  ASSERT_TRUE(result.matching.is_valid(g));
  const double opt_value =
      static_cast<double>(max_cardinality_matching(g).size());
  EXPECT_GE(result.value, (1.0 - 4.0 * 0.15) * opt_value);
  EXPECT_GE(result.dual_bound, opt_value - 1e-6);
}

TEST(Solver, BipartiteMatchesHungarian) {
  Graph g = gen::bipartite(25, 25, 200, 9);
  gen::weight_uniform(g, 1.0, 8.0, 10);
  const SolverResult result = solve_matching(g, fast_options(0.12));
  const double opt_value = hungarian_matching(g).weight(g);
  EXPECT_GE(result.value, (1.0 - 4.0 * 0.12) * opt_value);
  EXPECT_GE(result.dual_bound, opt_value - 1e-6);
}

TEST(Solver, UnweightedCardinality) {
  Graph g = gen::gnm(80, 300, 17);
  const SolverResult result = solve_matching(g, fast_options(0.15));
  const double opt_value =
      static_cast<double>(max_cardinality_matching(g).size());
  EXPECT_GE(result.value, (1.0 - 4.0 * 0.15) * opt_value);
}

TEST(Solver, EmptyAndTinyGraphs) {
  const SolverResult empty = solve_matching(Graph(0), fast_options());
  EXPECT_EQ(empty.value, 0.0);
  const SolverResult isolated = solve_matching(Graph(5), fast_options());
  EXPECT_EQ(isolated.value, 0.0);
  Graph single(2);
  single.add_edge(0, 1, 3.0);
  const SolverResult one = solve_matching(single, fast_options(0.05));
  EXPECT_DOUBLE_EQ(one.value, 3.0);
  // The certificate carries the (1+eps) discretization and eps*W*/2
  // dropped-mass slack even on a one-edge graph.
  EXPECT_GE(one.certified_ratio, 1.0 - 4.0 * 0.05);
}

TEST(Solver, NonFiniteWeightIsATypedConfigError) {
  // A NaN or infinite weight has no level and no meaningful certificate:
  // the solve refuses the instance typed instead of reporting a ratio.
  Graph base = gen::gnm(60, 400, 17);
  gen::weight_uniform(base, 1.0, 16.0, 18);
  SolverOptions opt = fast_options(0.2);
  opt.max_outer_rounds = 4;
  for (const double w : {std::numeric_limits<double>::quiet_NaN(),
                         std::numeric_limits<double>::infinity(),
                         -std::numeric_limits<double>::infinity()}) {
    std::vector<Edge> edges = base.edges();
    edges[7].w = w;
    const Graph g(base.num_vertices(), std::move(edges));
    try {
      solve_matching(g, opt);
      ADD_FAILURE() << "expected ConfigError for weight " << w;
    } catch (const ConfigError& err) {
      EXPECT_EQ(err.context().site, "core.levels") << w;
      EXPECT_NE(std::string(err.what()).find("edge 7 "), std::string::npos)
          << err.what();
    }
  }
}

TEST(Solver, SamplingDeterministicAcrossThreadCounts) {
  // The batched sampling engine's counter-based draws plus the fixed-chunk
  // sweeps make the WHOLE solve bitwise thread-count-invariant: stored
  // sparsifier sizes per round, the value, and the certified ratio must be
  // identical for 1/2/8 threads.
  Graph g = gen::gnm(120, 900, 51);
  gen::weight_uniform(g, 1.0, 12.0, 52);
  SolverOptions opt = fast_options(0.2);
  opt.max_outer_rounds = 3;
  std::vector<SolverResult> results;
  for (std::size_t threads : {1, 2, 8}) {
    opt.oracle.threads = threads;
    results.push_back(solve_matching(g, opt));
  }
  for (std::size_t i = 1; i < results.size(); ++i) {
    EXPECT_EQ(results[0].value, results[i].value);
    EXPECT_EQ(results[0].certified_ratio, results[i].certified_ratio);
    ASSERT_EQ(results[0].history.size(), results[i].history.size());
    for (std::size_t r = 0; r < results[0].history.size(); ++r) {
      EXPECT_EQ(results[0].history[r].stored_edges,
                results[i].history[r].stored_edges)
          << "round " << r;
    }
    // End-to-end meter invariance: the pipeline's per-stage thread-local
    // meters aggregate to the same totals for every thread count.
    EXPECT_EQ(results[0].meter.summary(), results[i].meter.summary());
  }
}

TEST(Solver, DeterministicForSeed) {
  Graph g = gen::gnm(50, 300, 21);
  gen::weight_uniform(g, 1.0, 4.0, 22);
  const SolverResult a = solve_matching(g, fast_options());
  const SolverResult b = solve_matching(g, fast_options());
  EXPECT_DOUBLE_EQ(a.value, b.value);
  EXPECT_EQ(a.outer_rounds, b.outer_rounds);
}

TEST(Solver, MetersResources) {
  Graph g = gen::gnm(60, 500, 23);
  const SolverResult result = solve_matching(g, fast_options());
  EXPECT_GT(result.meter.rounds(), 0u);
  EXPECT_GT(result.meter.peak_edges(), 0u);
  EXPECT_FALSE(result.history.empty());
  // Sampling rounds stay within the configured cap plus the initial phase.
  EXPECT_LE(result.outer_rounds, 12u);
}

TEST(Solver, SpaceSublinearInM) {
  // Peak stored edges is a function of n*polylog (sparsifier size), not of
  // m: tripling the edge count at fixed n must grow peak storage by far
  // less than 3x. (Absolute peak < m only kicks in at larger n where the
  // polylog factors are amortized, which this small instance cannot show.)
  SolverOptions opt = fast_options(0.2);
  opt.sparsifiers_per_round = 3;
  opt.max_outer_rounds = 2;
  Graph g1 = gen::gnm(250, 8000, 25);
  Graph g2 = gen::gnm(250, 24000, 26);
  const SolverResult r1 = solve_matching(g1, opt);
  const SolverResult r2 = solve_matching(g2, opt);
  EXPECT_GT(r1.value, 0.0);
  EXPECT_LT(static_cast<double>(r2.meter.peak_edges()),
            2.0 * static_cast<double>(r1.meter.peak_edges()));
  // And the denser instance must genuinely not store everything.
  EXPECT_LT(r2.meter.peak_edges() / opt.sparsifiers_per_round,
            g2.num_edges());
}

TEST(Solver, TargetRatioStopsEarly) {
  Graph g = gen::gnm(60, 400, 29);
  SolverOptions opt = fast_options(0.15);
  opt.target_ratio = 0.5;  // easy target: should stop quickly
  const SolverResult result = solve_matching(g, opt);
  EXPECT_GE(result.certified_ratio, 0.5);
}

class BMatchingSolverParam : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(BMatchingSolverParam, ValidAndBeatsGreedyFraction) {
  const std::uint64_t seed = GetParam();
  Graph g = gen::gnm(40, 250, seed * 5 + 2);
  gen::weight_uniform(g, 1.0, 9.0, seed + 3);
  const Capacities b = gen::random_capacities(40, 1, 4, seed);
  SolverOptions opt = fast_options(0.15);
  opt.seed = seed + 10;
  const SolverResult result = solve_b_matching(g, b, opt);
  ASSERT_TRUE(result.b_matching.is_valid(g, b));
  const double greedy_value = greedy_b_matching(g, b).weight(g);
  EXPECT_GE(result.value, greedy_value * 0.99) << "seed " << seed;
  EXPECT_GE(result.dual_bound, result.value - 1e-9);
}

INSTANTIATE_TEST_SUITE_P(RandomGraphs, BMatchingSolverParam,
                         ::testing::Range<std::uint64_t>(0, 4));

TEST(BMatchingSolver, ExactOnTinyInstance) {
  const Graph g = test::small_random_graph(8, 0.5, 77);
  if (g.num_edges() == 0 || g.num_edges() > 18) GTEST_SKIP();
  const Capacities b = gen::random_capacities(8, 1, 3, 5);
  const SolverResult result = solve_b_matching(g, b, fast_options(0.1));
  const double opt_value = exact_b_matching_weight_small(g, b);
  EXPECT_GE(result.value, (1.0 - 4.0 * 0.1) * opt_value);
  EXPECT_GE(result.dual_bound, opt_value - 1e-6);
}

TEST(Solver, HistoryMonotoneBest) {
  Graph g = gen::gnm(70, 600, 31);
  gen::weight_uniform(g, 1.0, 5.0, 32);
  const SolverResult result = solve_matching(g, fast_options());
  double prev = 0;
  for (const RoundStats& rs : result.history) {
    EXPECT_GE(rs.best_value, prev - 1e-12);
    prev = rs.best_value;
  }
}

// --- Convergence: the line-searched step and the Lemma 12 start --------
// The step search and the start at Lemma 12's budget must bring these
// solves to the 1 - 3 eps bar well inside the default round budget.

/// 133 disjoint unit triangles: OPT is 133, and every vertex-only dual is
/// at least 1.5 OPT, so only the odd-set duals of the MW state can
/// certify close to OPT.
Graph disjoint_triangles() {
  Graph g = gen::triangle_rich(133, 0, 7);
  gen::weight_unit(g);
  return g;
}

Graph power_law_instance() {
  Graph g = gen::power_law(400, 2.1, 10, 11);
  gen::weight_uniform(g, 1.0, 12.0, 12);
  return g;
}

SolverOptions convergence_options(double eps) {
  SolverOptions opt;  // default round budget and sparsifier count
  opt.eps = eps;
  opt.oracle.threads = 1;
  return opt;
}

TEST(Convergence, DisjointTrianglesCertifyThroughOddSets) {
  const Graph g = disjoint_triangles();
  const SolverResult result = solve_matching(g, convergence_options(0.1));
  const double opt_value =
      static_cast<double>(max_cardinality_matching(g).size());
  ASSERT_EQ(opt_value, 133.0);
  EXPECT_GE(result.lambda, 1.0 - 3.0 * 0.1);
  EXPECT_EQ(result.bound_source, BoundSource::kMw);
  EXPECT_EQ(result.mw_bound, result.dual_bound);
  EXPECT_LE(result.dual_bound, 1.01 * opt_value);
  EXPECT_GE(result.dual_bound, opt_value - 1e-6);
  EXPECT_GT(result.meter.max_flows(), 0u);
}

TEST(Convergence, PowerLawReachesTheBarBeforeTheCap) {
  const Graph g = power_law_instance();
  const SolverResult result = solve_matching(g, convergence_options(0.2));
  // The default budget at eps 0.2, p 2: 4 ceil(p / eps) + 4 = 44 rounds.
  EXPECT_LT(result.outer_rounds, 44u);
  EXPECT_GE(result.lambda, 1.0 - 3.0 * 0.2);
  EXPECT_GT(result.mw_bound, 0.0);
  EXPECT_GE(result.dual_bound, max_weight_matching(g).weight(g) - 1e-6);
}

TEST(Convergence, StepSearchIsThreadCountInvariant) {
  // A grain of 64 splits every sample into many chunks, so the search's
  // chunked Phi' / Phi'' sums run on the pool.
  const std::pair<Graph, double> cases[] = {{disjoint_triangles(), 0.1},
                                            {power_law_instance(), 0.2}};
  for (const auto& [g, eps] : cases) {
    std::vector<SolverResult> results;
    for (const std::size_t threads : {1, 2, 8}) {
      SolverOptions opt = convergence_options(eps);
      opt.oracle.threads = threads;
      opt.oracle.parallel_grain = 64;
      results.push_back(solve_matching(g, opt));
    }
    for (std::size_t i = 1; i < results.size(); ++i) {
      const SolverResult& a = results[0];
      const SolverResult& b = results[i];
      const std::string label = "eps " + std::to_string(eps) + " run " +
                                std::to_string(i);
      EXPECT_EQ(a.value, b.value) << label;
      EXPECT_EQ(a.dual_bound, b.dual_bound) << label;
      EXPECT_EQ(a.mw_bound, b.mw_bound) << label;
      EXPECT_EQ(a.bound_source, b.bound_source) << label;
      EXPECT_EQ(a.certified_ratio, b.certified_ratio) << label;
      EXPECT_EQ(a.lambda, b.lambda) << label;
      EXPECT_EQ(a.beta, b.beta) << label;
      EXPECT_EQ(a.outer_rounds, b.outer_rounds) << label;
      EXPECT_EQ(a.meter.summary(), b.meter.summary()) << label;
      ASSERT_EQ(a.history.size(), b.history.size()) << label;
      for (std::size_t r = 0; r < a.history.size(); ++r) {
        EXPECT_EQ(a.history[r].lambda, b.history[r].lambda) << label;
        EXPECT_EQ(a.history[r].beta, b.history[r].beta) << label;
      }
    }
  }
}

}  // namespace
}  // namespace dp::core
