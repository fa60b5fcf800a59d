// Property-based sweeps over randomized instances: invariants that must
// hold for EVERY seed, asserted across wide TEST_P ranges. These complement
// the example-based tests with breadth.

#include <gtest/gtest.h>

#include <cmath>

#include "baselines/baselines.hpp"
#include "core/certificate.hpp"
#include "core/dual_state.hpp"
#include "core/initial.hpp"
#include "core/solver.hpp"
#include "core/weight_levels.hpp"
#include "graph/generators.hpp"
#include "lp/formulations.hpp"
#include "matching/approx.hpp"
#include "matching/blossom_weighted.hpp"
#include "matching/greedy.hpp"
#include "matching/verify.hpp"
#include "sparsify/strength.hpp"
#include "test_helpers.hpp"

namespace dp {
namespace {

class SeedSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SeedSweep, EverySolverOutputIsAValidMatching) {
  const std::uint64_t seed = GetParam();
  Graph g = gen::gnm(30 + seed % 40, 150 + 10 * (seed % 30), seed);
  gen::weight_zipf(g, 0.5 + 0.03 * (seed % 10), seed + 1);
  for (const Matching& m :
       {greedy_matching(g), maximal_matching(g),
        local_search_matching(g, 16, seed),
        baselines::streaming_greedy_matching(g),
        baselines::paz_schwartzman_matching(g, 0.1),
        baselines::improvement_matching(g, 0.1),
        baselines::multipass_matching(g, 0.1, 4),
        baselines::filtering_matching(g, 2.0, seed),
        baselines::sample_and_solve(g, 1.5, seed)}) {
    ASSERT_TRUE(m.is_valid(g)) << "seed " << seed;
  }
}

TEST_P(SeedSweep, WeightOrderingInvariants) {
  // local search >= greedy; multipass >= one-pass improvement; exact >= all.
  const std::uint64_t seed = GetParam();
  const Graph g = test::small_random_graph(12, 0.45, seed + 1000);
  if (g.num_edges() == 0) return;
  const double exact = test::opt_weight(g);
  const double greedy = greedy_matching(g).weight(g);
  const double local = local_search_matching(g, 32, seed).weight(g);
  const double one_pass =
      baselines::improvement_matching(g, 0.05).weight(g);
  const double multi =
      baselines::multipass_matching(g, 0.05, 8).weight(g);
  EXPECT_GE(local, greedy - 1e-9);
  EXPECT_GE(multi, one_pass - 1e-9);
  EXPECT_GE(exact + 1e-9, local);
  EXPECT_GE(exact + 1e-9, multi);
}

TEST_P(SeedSweep, StrengthsAtLeastOneAndBridgesWeak) {
  const std::uint64_t seed = GetParam();
  const Graph g = gen::gnm(40, 160, seed + 2000);
  std::vector<double> strengths;
  StrengthScratch scratch;
  estimate_strengths_into(40, g.edges(), seed, strengths, scratch);
  for (double s : strengths) EXPECT_GE(s, 1.0);
}

TEST_P(SeedSweep, LevelGraphDiscretizationSandwich) {
  const std::uint64_t seed = GetParam();
  Graph g = gen::gnm(25, 120, seed + 4000);
  gen::weight_zipf(g, 1.0, seed + 4001);
  const double eps = 0.1 + 0.02 * (seed % 5);
  const Capacities b = Capacities::unit(25);
  const core::LevelGraph lg(g, b, eps);
  for (EdgeId e : lg.retained()) {
    const double reconstructed = lg.normalized_weight(e) * lg.scale();
    EXPECT_LE(reconstructed, g.edge(e).w * (1.0 + 1e-9));
    EXPECT_GE(reconstructed * (1.0 + eps) + 1e-9, g.edge(e).w);
  }
}

TEST_P(SeedSweep, DualStateBlendIsConvex) {
  // objective((1-s) A + s B) == (1-s) objective(A) + s objective(B) when
  // the odd-set supports are disjoint, and cover rows are linear always.
  const std::uint64_t seed = GetParam();
  Rng rng(seed + 5000);
  const int L = 3;
  const std::size_t n = 10;
  const Capacities b = Capacities::unit(n);

  core::DualPoint pa, pb;
  for (int i = 0; i < 5; ++i) {
    pa.xik[rng.uniform(n) * L + rng.uniform(L)] = rng.uniform_real(0.1, 2.0);
    pb.xik[rng.uniform(n) * L + rng.uniform(L)] = rng.uniform_real(0.1, 2.0);
  }
  core::DualState sa(n, L), sb(n, L), blended(n, L);
  sa.assign(pa);
  sb.assign(pb);
  blended.assign(pa);
  const double s = rng.uniform_real(0.1, 0.9);
  blended.blend(pb, s);
  // Cover rows are linear in the state.
  for (Vertex u = 0; u + 1 < n; ++u) {
    for (int k = 0; k < L; ++k) {
      const double expect = (1.0 - s) * sa.cover_row(u, u + 1, k) +
                            s * sb.cover_row(u, u + 1, k);
      EXPECT_NEAR(blended.cover_row(u, u + 1, k), expect, 1e-9);
    }
  }
}

TEST_P(SeedSweep, CertificateBoundsExactOptimum) {
  // The explicit extracted certificate must be dual feasible and its
  // objective must upper-bound the exact optimum — for every seed.
  const std::uint64_t seed = GetParam();
  Graph g = gen::gnm(30, 150, seed + 6000);
  gen::weight_uniform(g, 1.0, 9.0, seed + 6001);
  core::SolverOptions opt;
  opt.eps = 0.2;
  opt.seed = seed;
  opt.max_outer_rounds = 5;
  opt.sparsifiers_per_round = 3;
  const auto result = core::solve_matching(g, opt);
  const double exact = max_weight_matching(g).weight(g);
  EXPECT_GE(result.dual_bound, exact - 1e-6) << "seed " << seed;
  EXPECT_GE(result.value, 0.5 * exact) << "seed " << seed;
}

TEST_P(SeedSweep, VerifierAcceptsExactDualRejectsUndercut) {
  const std::uint64_t seed = GetParam();
  const Graph g = test::small_random_graph(8, 0.5, seed + 7000);
  if (g.num_edges() == 0) return;
  // Trivial feasible dual: x_v = max incident weight.
  OddSetDual dual;
  dual.x.assign(g.num_vertices(), 0.0);
  for (const Edge& e : g.edges()) {
    dual.x[e.u] = std::max(dual.x[e.u], e.w);
    dual.x[e.v] = std::max(dual.x[e.v], e.w);
  }
  EXPECT_TRUE(dual_feasible(g, dual));
  EXPECT_GE(dual_objective(Capacities::unit(g.num_vertices()), dual),
            test::opt_weight(g) - 1e-9);
  // Undercut one endpoint of the max edge: must become infeasible.
  EdgeId heaviest = 0;
  for (EdgeId e = 1; e < g.num_edges(); ++e) {
    if (g.edge(e).w > g.edge(heaviest).w) heaviest = e;
  }
  dual.x[g.edge(heaviest).u] = 0.0;
  dual.x[g.edge(heaviest).v] = 0.0;
  EXPECT_FALSE(dual_feasible(g, dual));
}

TEST_P(SeedSweep, FractionalVerifierMatchesIntegral) {
  const std::uint64_t seed = GetParam();
  const Graph g = test::small_random_graph(10, 0.4, seed + 8000);
  if (g.num_edges() == 0) return;
  const Capacities b = Capacities::unit(10);
  const Matching m = greedy_matching(g);
  FractionalMatching fm;
  fm.y.assign(g.num_edges(), 0.0);
  for (EdgeId e : m.edges()) fm.y[e] = 1.0;
  EXPECT_TRUE(fractional_degrees_feasible(g, b, fm));
  EXPECT_NEAR(fractional_weight(g, fm), m.weight(g), 1e-12);
  // Every odd set constraint holds for an integral matching.
  const auto sets = lp::enumerate_odd_sets(10, b);
  EXPECT_TRUE(violated_odd_sets(g, b, fm, sets).empty());
  // The all-half fractional triangle violates its odd set.
  if (g.num_edges() >= 1) {
    FractionalMatching overfull;
    overfull.y.assign(g.num_edges(), 0.6);
    const auto violated = violated_odd_sets(g, b, overfull, sets);
    // (May be empty if the graph has no odd set with >= 2 internal edges.)
    for (std::size_t s : violated) {
      EXPECT_FALSE(odd_set_constraint_holds(g, b, overfull, sets[s]));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeedSweep,
                         ::testing::Range<std::uint64_t>(0, 12));

TEST(Properties, InitialSolutionMaximalPerLevel) {
  // Property of Lemma 12: after construction, every retained edge has at
  // least one endpoint saturated in its level's maximal b-matching, which
  // is exactly what the dual coverage encodes — check via the state.
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    Graph g = gen::gnm(50, 400, seed + 70);
    gen::weight_uniform(g, 1.0, 64.0, seed + 71);
    const Capacities b = gen::random_capacities(50, 1, 3, seed);
    const core::LevelGraph lg(g, b, 0.2);
    const auto init = core::build_initial(lg, b, 2.0, seed);
    core::DualState state(50, lg.num_levels());
    state.assign(init.x0);
    for (EdgeId e : lg.retained()) {
      const Edge& edge = g.edge(e);
      const int k = lg.level(e);
      EXPECT_GE(state.cover_row(edge.u, edge.v, k) + 1e-12,
                init.coverage * lg.level_weight(k))
          << "seed " << seed << " edge " << e;
    }
  }
}

}  // namespace
}  // namespace dp
