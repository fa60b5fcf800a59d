// Tests for the LP module: the simplex solver, the paper's explicit
// relaxations (LP1/LP3/LP10-12) and the width measurements of Section 1.

#include <gtest/gtest.h>

#include <cmath>

#include "graph/generators.hpp"
#include "lp/formulations.hpp"
#include "lp/simplex.hpp"
#include "matching/exact_small.hpp"
#include "test_helpers.hpp"

namespace dp::lp {
namespace {

TEST(Simplex, TextbookInstance) {
  // max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18 -> opt 36 at (2, 6).
  DenseLP lp;
  lp.c = {3, 5};
  lp.A = {{1, 0}, {0, 2}, {3, 2}};
  lp.b = {4, 12, 18};
  const SimplexResult result = solve_simplex(lp);
  ASSERT_EQ(result.status, SimplexStatus::kOptimal);
  EXPECT_NEAR(result.value, 36.0, 1e-9);
  EXPECT_NEAR(result.x[0], 2.0, 1e-9);
  EXPECT_NEAR(result.x[1], 6.0, 1e-9);
}

TEST(Simplex, DualValues) {
  DenseLP lp;
  lp.c = {3, 5};
  lp.A = {{1, 0}, {0, 2}, {3, 2}};
  lp.b = {4, 12, 18};
  const SimplexResult result = solve_simplex(lp);
  // Strong duality: b^T dual = optimum.
  double dual_value = 0;
  for (std::size_t i = 0; i < lp.b.size(); ++i) {
    dual_value += lp.b[i] * result.dual[i];
  }
  EXPECT_NEAR(dual_value, result.value, 1e-9);
}

TEST(Simplex, UnboundedDetected) {
  DenseLP lp;
  lp.c = {1};
  lp.A = {{0}};  // no constraint on x
  lp.b = {5};
  EXPECT_EQ(solve_simplex(lp).status, SimplexStatus::kUnbounded);
}

TEST(Simplex, RejectsNegativeRhs) {
  DenseLP lp;
  lp.c = {1};
  lp.A = {{1}};
  lp.b = {-2};
  EXPECT_THROW(solve_simplex(lp), std::invalid_argument);
}

TEST(OddSets, EnumerationRespectsParity) {
  const Capacities b({1, 1, 1, 2});
  const auto sets = enumerate_odd_sets(4, b);
  for (const auto& set : sets) {
    EXPECT_GE(set.size(), 3u);
    std::int64_t bw = 0;
    for (Vertex v : set) bw += b[v];
    EXPECT_EQ(bw % 2, 1);
  }
  // {0,1,2} (b=3 odd), {0,1,3} (4 even), {0,2,3}, {1,2,3} even, {0,1,2,3}=5.
  EXPECT_EQ(sets.size(), 2u);
}

TEST(MatchingLP, TriangleNeedsOddSets) {
  // Unit triangle: bipartite relaxation = 1.5, exact = 1.
  const Graph g = gen::complete(3);
  const Capacities b = Capacities::unit(3);
  const double without =
      lp_optimum(build_matching_lp(g, b, /*include_odd_sets=*/false));
  const double with =
      lp_optimum(build_matching_lp(g, b, /*include_odd_sets=*/true));
  EXPECT_NEAR(without, 1.5, 1e-9);
  EXPECT_NEAR(with, 1.0, 1e-9);
}

TEST(MatchingLP, PaperTriangleExample) {
  // Paper Section 1: unit triangle + light apex edge (weight 10*eps). The
  // bipartite relaxation puts 1/2 on every triangle edge (value 3/2); the
  // integral optimum is 1 + 10*eps; odd sets close the gap exactly.
  const double eps = 0.01;
  const Graph g = gen::weighted_triangle_example(10.0 * eps);
  const Capacities b = Capacities::unit(4);
  const double without = lp_optimum(build_matching_lp(g, b, false));
  const double with = lp_optimum(build_matching_lp(g, b, true));
  const double integral = exact_matching_weight_small(g);
  EXPECT_NEAR(without, 1.5, 1e-9);
  EXPECT_NEAR(integral, 1.0 + 10.0 * eps, 1e-9);
  EXPECT_NEAR(with, integral, 1e-9);
  EXPECT_GT(without, with + 0.5 - 10.0 * eps - 1e-9);
}

class MatchingLPParam : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MatchingLPParam, OddSetLPMatchesIntegralOptimum) {
  // With all odd-set constraints the matching LP is exact (integral) for
  // b = 1 (Edmonds); verify against the bitmask DP.
  const std::uint64_t seed = GetParam();
  const Graph g = test::small_random_graph(7, 0.5, seed + 60);
  if (g.num_edges() == 0) return;
  const Capacities b = Capacities::unit(7);
  const double lp_value = lp_optimum(build_matching_lp(g, b, true));
  EXPECT_NEAR(lp_value, test::opt_weight(g), 1e-7) << "seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(RandomGraphs, MatchingLPParam,
                         ::testing::Range<std::uint64_t>(0, 15));

class PenaltyLPParam : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PenaltyLPParam, LP3EqualsLP1Unweighted) {
  // The paper: the penalty formulation LP3 does not increase the optimum
  // over LP1 for w = 1.
  const std::uint64_t seed = GetParam();
  Graph g = test::small_random_graph(7, 0.45, seed + 200);
  if (g.num_edges() == 0) return;
  gen::weight_unit(g);
  const Capacities b = Capacities::unit(7);
  const double lp1 = lp_optimum(build_matching_lp(g, b, true));
  const double lp3 = lp_optimum(build_penalty_lp_unweighted(g, b));
  EXPECT_NEAR(lp3, lp1, 1e-7) << "seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(RandomGraphs, PenaltyLPParam,
                         ::testing::Range<std::uint64_t>(0, 12));

class LayeredLPParam : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LayeredLPParam, Theorem23Sandwich) {
  // betaHat <= betaTilde <= (1+eps) betaHat where betaTilde is the layered
  // penalty optimum (LP10/LP12) and betaHat the exact LP (LP11/LP6).
  const std::uint64_t seed = GetParam();
  const double eps = 1.0 / 16.0;
  Graph base = test::small_random_graph(6, 0.5, seed + 300);
  if (base.num_edges() == 0) return;
  // Discretize weights to powers of (1+eps) as Theorem 23 requires.
  Graph g(base.num_vertices());
  for (const Edge& e : base.edges()) {
    const int k = static_cast<int>(std::floor(
        std::log(e.w) / std::log1p(eps)));
    g.add_edge(e.u, e.v, std::pow(1.0 + eps, std::max(0, k)));
  }
  const Capacities b = Capacities::unit(6);
  const double beta_hat = lp_optimum(build_matching_lp(g, b, true));
  const double beta_tilde =
      lp_optimum(build_layered_penalty_lp(g, b, eps));
  EXPECT_GE(beta_tilde, beta_hat - 1e-7) << "seed " << seed;
  EXPECT_LE(beta_tilde, (1.0 + eps) * beta_hat + 1e-7) << "seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(RandomGraphs, LayeredLPParam,
                         ::testing::Range<std::uint64_t>(0, 10));

TEST(Width, PenaltyBoundedStandardGrows) {
  // The paper's Section 1 claim: the standard dual LP2 has width that grows
  // with the budget beta (~n), while the penalty dual LP4 has width <= 6
  // independent of everything (our tighter accounting gives exactly 3).
  Graph g = gen::complete(7);
  gen::weight_unit(g);
  const Capacities b = Capacities::unit(7);
  const WidthReport report = measure_dual_widths(g, b, /*beta=*/6.0);
  EXPECT_LE(report.penalty_width, 6.0 + 1e-6);
  EXPECT_GT(report.standard_width, report.penalty_width);
  // Standard width scales linearly with beta; penalty width does not move.
  const WidthReport bigger = measure_dual_widths(g, b, 12.0);
  EXPECT_NEAR(bigger.standard_width, 2.0 * report.standard_width, 1e-6);
  EXPECT_NEAR(bigger.penalty_width, report.penalty_width, 1e-6);
}

TEST(RowWidth, UnboundedWithoutConstraints) {
  EXPECT_TRUE(std::isinf(
      row_width({1.0}, 1.0, {{0.0}}, {1.0})));
}

}  // namespace
}  // namespace dp::lp
