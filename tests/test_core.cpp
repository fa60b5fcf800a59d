// Tests for the core substrate pieces: weight levels (Definitions 2/3),
// dual state algebra, odd-set separation (Lemma 16/24/25), the MicroOracle
// (Algorithm 5) and the initial solution (Lemma 12).

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/certificate.hpp"
#include "core/dual_state.hpp"
#include "core/initial.hpp"
#include "core/odd_sets.hpp"
#include "core/oracle.hpp"
#include "core/weight_levels.hpp"
#include "graph/generators.hpp"
#include "matching/greedy.hpp"
#include "test_helpers.hpp"

namespace dp::core {
namespace {

TEST(WeightLevels, LevelsAndScale) {
  Graph g(4);
  g.add_edge(0, 1, 1.0);
  g.add_edge(1, 2, 4.0);
  g.add_edge(2, 3, 16.0);
  const Capacities b = Capacities::unit(4);
  const LevelGraph lg(g, b, 0.25);
  EXPECT_EQ(lg.graph().num_edges(), 3u);
  // Normalized weights w/scale with scale = eps W*/B = 0.25*16/4 = 1.
  EXPECT_DOUBLE_EQ(lg.scale(), 1.0);
  EXPECT_EQ(lg.level(0), 0);                       // w=1 -> level 0
  EXPECT_GT(lg.level(2), lg.level(1));             // heavier -> higher level
  EXPECT_EQ(lg.retained().size(), 3u);
  for (EdgeId e = 0; e < 3; ++e) {
    // Discretization rounds down: wHat_k * scale <= w.
    EXPECT_LE(lg.normalized_weight(e) * lg.scale(), g.edge(e).w + 1e-9);
    // ... and loses at most a (1+eps) factor.
    EXPECT_GE(lg.normalized_weight(e) * lg.scale() * 1.25 + 1e-9,
              g.edge(e).w);
  }
}

TEST(WeightLevels, DropsTinyEdges) {
  Graph g(3);
  g.add_edge(0, 1, 1000.0);
  g.add_edge(1, 2, 1e-6);  // far below eps*W*/B
  const LevelGraph lg(g, Capacities::unit(3), 0.2);
  EXPECT_EQ(lg.level(1), -1);
  EXPECT_EQ(lg.retained().size(), 1u);
}

TEST(WeightLevels, RejectsBadEps) {
  Graph g(2);
  g.add_edge(0, 1, 1.0);
  EXPECT_THROW(LevelGraph(g, Capacities::unit(2), 0.0),
               std::invalid_argument);
  EXPECT_THROW(LevelGraph(g, Capacities::unit(2), 1.5),
               std::invalid_argument);
}

TEST(WeightLevels, WeightOrderIsTheInputSortAndFeedsTheGreedyWitness) {
  // Integer weights in {1..4} tie heavily; the 1e-9 edges fall below the
  // level floor, and the order must still place them (the greedy witness
  // covers dropped edges too).
  std::vector<Graph> graphs;
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    Graph g = test::small_random_int_graph(20, 0.5, 4, seed + 60);
    g.add_edge(0, 19, 1e-9);
    g.add_edge(3, 7, 1e-9);
    graphs.push_back(std::move(g));
  }
  graphs.push_back(gen::gnm(300, 4000, 64));
  gen::weight_uniform(graphs.back(), 1.0, 16.0, 65);
  for (std::size_t k = 0; k < graphs.size(); ++k) {
    const Graph& g = graphs[k];
    const LevelGraph lg(g, Capacities::unit(g.num_vertices()), 0.2);
    EXPECT_EQ(lg.weight_order(), edges_by_weight_desc(g)) << "graph " << k;
    // The witness puts each greedy edge's weight on both its endpoints.
    std::vector<double> expected(g.num_vertices(), 0.0);
    const Matching greedy = greedy_matching(g);
    for (const EdgeId e : greedy.edges()) {
      expected[g.edge(e).u] = expected[g.edge(e).v] = g.edge(e).w;
    }
    const OddSetDual witness = greedy_witness_dual(g, lg.weight_order());
    EXPECT_EQ(witness.x, expected) << "graph " << k;
    EXPECT_TRUE(witness.sets.empty());
    EXPECT_TRUE(witness.z.empty());
  }
}

TEST(DualState, CoverRowAndBlend) {
  Graph g(4);
  g.add_edge(0, 1, 2.0);
  const Capacities b = Capacities::unit(4);
  const LevelGraph lg(g, b, 0.25);
  const int k = lg.level(0);
  DualState state(4, lg.num_levels());

  DualPoint p1;
  p1.xik[static_cast<std::uint64_t>(0) * lg.num_levels() + k] = 1.0;
  state.assign(p1);
  EXPECT_NEAR(state.x(0, k), 1.0, 1e-12);
  EXPECT_NEAR(state.cover_row(0, 1, k), 1.0, 1e-12);

  DualPoint p2;
  p2.xik[static_cast<std::uint64_t>(1) * lg.num_levels() + k] = 2.0;
  state.blend(p2, 0.5);  // state = 0.5*p1 + 0.5*p2
  EXPECT_NEAR(state.x(0, k), 0.5, 1e-12);
  EXPECT_NEAR(state.x(1, k), 1.0, 1e-12);
  EXPECT_NEAR(state.cover_row(0, 1, k), 1.5, 1e-12);
  EXPECT_NEAR(state.objective(b), 1.5, 1e-12);
}

TEST(DualState, OddSetContributions) {
  Graph g(3);
  g.add_edge(0, 1, 1.0);
  g.add_edge(1, 2, 1.0);
  g.add_edge(0, 2, 1.0);
  const Capacities b = Capacities::unit(3);
  const LevelGraph lg(g, b, 0.25);
  const int k = lg.level(0);
  DualState state(3, lg.num_levels());

  DualPoint p;
  OddSetVar var;
  var.level = k;
  var.members = {0, 1, 2};
  var.value = 2.0;
  p.odd_sets.push_back(var);
  state.assign(p);
  // Every edge inside the set is covered by z; objective = floor(3/2)*z.
  EXPECT_NEAR(state.cover_row(0, 1, k), 2.0, 1e-12);
  EXPECT_NEAR(state.cover_row(0, 2, k), 2.0, 1e-12);
  EXPECT_NEAR(state.objective(b), 2.0, 1e-12);
  EXPECT_NEAR(state.po_row(0, k), 2.0, 1e-12);
  // z at level k does not cover rows at lower levels.
  if (k > 0) {
    EXPECT_NEAR(state.cover_row(0, 1, k - 1), 0.0, 1e-12);
  }
  // Blending the same set twice merges the entries.
  state.blend(p, 0.25);
  EXPECT_EQ(state.odd_set_support(), 1u);
}

TEST(DualState, LambdaMinRatio) {
  Graph g(4);
  g.add_edge(0, 1, 1.0);
  g.add_edge(2, 3, 1.0);
  const Capacities b = Capacities::unit(4);
  const LevelGraph lg(g, b, 0.25);
  const int k = lg.level(0);
  DualState state(4, lg.num_levels());
  DualPoint p;
  const double w = lg.level_weight(k);
  p.xik[static_cast<std::uint64_t>(0) * lg.num_levels() + k] = w;      // edge 0 covered 1.0
  p.xik[static_cast<std::uint64_t>(2) * lg.num_levels() + k] = w / 2;  // edge 1 covered 0.5
  state.assign(p);
  EXPECT_NEAR(state.lambda(lg), 0.5, 1e-9);
}

TEST(CombinePoints, LinearAlgebra) {
  DualPoint a, b;
  a.xik[5] = 2.0;
  b.xik[5] = 4.0;
  b.xik[7] = 1.0;
  OddSetVar var;
  var.level = 0;
  var.members = {1, 2, 3};
  var.value = 3.0;
  a.odd_sets.push_back(var);
  const DualPoint c = combine_points(a, 0.5, b, 0.25);
  EXPECT_NEAR(c.xik.at(5), 2.0, 1e-12);
  EXPECT_NEAR(c.xik.at(7), 0.25, 1e-12);
  ASSERT_EQ(c.odd_sets.size(), 1u);
  EXPECT_NEAR(c.odd_sets[0].value, 1.5, 1e-12);
}

TEST(OddSetSeparation, FindsPlantedTriangle) {
  // Triangle with heavy internal q plus isolated light edges elsewhere.
  const std::size_t n = 10;
  std::vector<OddSetQueryEdge> q{{0, 1, 2.0}, {1, 2, 2.0}, {0, 2, 2.0},
                                 {5, 6, 0.1}};
  std::vector<double> q_hat(n, 0.0);
  q_hat[0] = q_hat[1] = q_hat[2] = 4.1;  // just above the incident sum 4.0
  q_hat[5] = q_hat[6] = 1.0;
  OddSetOptions opt;
  opt.eps = 0.25;
  const auto sets =
      find_dense_odd_sets(n, q, q_hat, Capacities::unit(n), opt);
  bool found_triangle = false;
  for (const auto& set : sets) {
    if (set == std::vector<Vertex>{0, 1, 2}) found_triangle = true;
  }
  EXPECT_TRUE(found_triangle);
}

TEST(OddSetSeparation, RespectsParityAndSize) {
  const std::size_t n = 12;
  std::vector<OddSetQueryEdge> q;
  // A dense K5 on {0..4}.
  for (Vertex i = 0; i < 5; ++i) {
    for (Vertex j = i + 1; j < 5; ++j) q.push_back({i, j, 3.0});
  }
  std::vector<double> q_hat(n, 0.0);
  for (Vertex i = 0; i < 5; ++i) q_hat[i] = 12.5;
  OddSetOptions opt;
  opt.eps = 0.25;  // max ||U||_b = 16
  const auto sets =
      find_dense_odd_sets(n, q, q_hat, Capacities::unit(n), opt);
  for (const auto& set : sets) {
    EXPECT_GE(set.size(), 3u);
    EXPECT_EQ(set.size() % 2, 1u);           // unit capacities: odd size
    EXPECT_LE(set.size(), 16u);
  }
}

TEST(OddSetSeparation, DisjointFamily) {
  const std::size_t n = 9;
  std::vector<OddSetQueryEdge> q;
  for (int t = 0; t < 3; ++t) {
    const auto base = static_cast<Vertex>(3 * t);
    q.push_back({base, base + 1u, 2.0});
    q.push_back({base + 1u, base + 2u, 2.0});
    q.push_back({base, base + 2u, 2.0});
  }
  std::vector<double> q_hat(n, 4.1);
  OddSetOptions opt;
  opt.eps = 0.25;
  const auto sets =
      find_dense_odd_sets(n, q, q_hat, Capacities::unit(n), opt);
  EXPECT_EQ(sets.size(), 3u);
  std::vector<char> seen(n, 0);
  for (const auto& set : sets) {
    for (Vertex v : set) {
      EXPECT_FALSE(seen[v]);
      seen[v] = 1;
    }
  }
}

TEST(OddSetSeparation, IncrementalGusfieldAcrossContractionRounds) {
  // A found-and-contracted round must make the NEXT round's Gusfield
  // tree come from the incremental stamped replay, not a scratch
  // rebuild — with strictly fewer max-flows. The heavy triangle sits on
  // the HIGHEST active ids so the stamped root (local 0) survives the
  // contraction (a contracted root is the documented full-rebuild
  // fallback), and the light edges are disjoint pairs: never an odd
  // set, but they keep the residual network alive into round 2.
  const std::size_t n = 12;
  std::vector<OddSetQueryEdge> q{{0, 1, 0.1}, {2, 3, 0.1}, {4, 5, 0.1},
                                 {6, 7, 2.0}, {7, 8, 2.0}, {6, 8, 2.0}};
  std::vector<double> q_hat(n, 0.0);
  for (Vertex v = 0; v < 6; ++v) q_hat[v] = 1.0;
  q_hat[6] = q_hat[7] = q_hat[8] = 4.1;  // just above the incident sum
  OddSetOptions opt;
  opt.eps = 0.25;
  OddSetSeparator sep;
  const auto sets = sep.find(n, q, q_hat, Capacities::unit(n), opt);
  bool found_triangle = false;
  for (const auto& set : sets) {
    if (set == std::vector<Vertex>{6, 7, 8}) found_triangle = true;
  }
  EXPECT_TRUE(found_triangle);
  const ResourceMeter s = sep.stats();
  EXPECT_EQ(s.gh_full_builds(), 1u);   // round 1 only
  EXPECT_GE(s.gh_incremental(), 1u);   // round 2 replayed the stamp
  EXPECT_GT(s.max_flows_saved(), 0u);  // with reused (free) steps
}

TEST(OddSetSeparation, SeparatorReuseMatchesFreeFunction) {
  // One OddSetSeparator reused across many instances must behave exactly
  // like a fresh one every time: the touched-entry resets restore the
  // rest state, on both the exact (arena) and heuristic paths.
  Rng rng(7);
  OddSetSeparator sep;
  for (int inst = 0; inst < 24; ++inst) {
    const std::size_t n = 12 + rng.uniform(40);
    const std::size_t m = 10 + rng.uniform(60);
    std::vector<OddSetQueryEdge> q;
    for (std::size_t e = 0; e < m; ++e) {
      const auto u = static_cast<Vertex>(rng.uniform(n));
      const auto v = static_cast<Vertex>(rng.uniform(n));
      if (u == v) continue;
      q.push_back(OddSetQueryEdge{u, v, rng.uniform_real(0.1, 3.0)});
    }
    if (q.empty()) continue;
    std::vector<double> q_hat(n, 0.1);
    for (const auto& qe : q) {
      q_hat[qe.u] += qe.q;
      q_hat[qe.v] += qe.q;
    }
    for (auto& value : q_hat) value *= rng.uniform_real(1.0, 1.3);
    OddSetOptions opt;
    opt.eps = 0.2 + 0.05 * (inst % 3);
    if (inst % 2 == 1) opt.gomory_hu_limit = 1;  // heuristic path
    const auto reused =
        sep.find(n, q, q_hat, Capacities::unit(n), opt);
    const auto fresh =
        find_dense_odd_sets(n, q, q_hat, Capacities::unit(n), opt);
    EXPECT_EQ(reused, fresh) << "instance " << inst;
  }
}

TEST(OddSetSeparation, HeuristicModeSmoke) {
  // Force the heuristic path with a tiny gomory_hu_limit.
  const std::size_t n = 9;
  std::vector<OddSetQueryEdge> q{{0, 1, 2.0}, {1, 2, 2.0}, {0, 2, 2.0}};
  std::vector<double> q_hat(n, 4.1);
  OddSetOptions opt;
  opt.eps = 0.25;
  opt.gomory_hu_limit = 1;
  const auto sets =
      find_dense_odd_sets(n, q, q_hat, Capacities::unit(n), opt);
  for (const auto& set : sets) {
    EXPECT_GE(set.size(), 3u);
    EXPECT_EQ(set.size() % 2, 1u);
  }
}

class InitialParam : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(InitialParam, CoverageAndBudget) {
  const std::uint64_t seed = GetParam();
  Graph g = gen::gnm(40, 200, seed * 3 + 1);
  gen::weight_zipf(g, 0.8, seed);
  const Capacities b = Capacities::unit(40);
  const double eps = 0.25;
  const LevelGraph lg(g, b, eps);
  ResourceMeter meter;
  const InitialSolution init = build_initial(lg, b, 2.0, seed, &meter);

  // Coverage: A x0 >= r * c on every retained edge.
  DualState state(40, lg.num_levels());
  state.assign(init.x0);
  EXPECT_GE(state.lambda(lg) + 1e-12, init.coverage) << "seed " << seed;
  EXPECT_NEAR(init.coverage, eps / 256.0, 1e-12);

  // beta0 consistent with the state objective and positive.
  EXPECT_NEAR(state.objective(b), init.beta0, 1e-9);
  EXPECT_GT(init.beta0, 0.0);
  EXPECT_GT(meter.rounds(), 0u);
  EXPECT_FALSE(init.support.empty());
}

INSTANTIATE_TEST_SUITE_P(RandomGraphs, InitialParam,
                         ::testing::Range<std::uint64_t>(0, 8));

TEST(MicroOracle, ZeroGammaReturnsZeroPoint) {
  Graph g(3);
  g.add_edge(0, 1, 1.0);
  const Capacities b = Capacities::unit(3);
  const LevelGraph lg(g, b, 0.25);
  const MicroOracle oracle(lg, b, OracleConfig{});
  // No stored multipliers at all -> gamma = 0 -> zero dual point.
  const MicroResult result = oracle.run({}, {}, 1.0, 1.0);
  EXPECT_EQ(result.kind, MicroResult::Kind::kDual);
  EXPECT_TRUE(result.x.xik.empty());
  EXPECT_TRUE(result.x.odd_sets.empty());
}

TEST(MicroOracle, LargeBetaTriggersVertexCase) {
  // With beta large the violation threshold gamma*b_i*w/beta is easy to
  // clear, so case A (vertex duals) must fire and the returned point must
  // satisfy the LagInner inequality.
  Graph g(4);
  g.add_edge(0, 1, 1.0);
  g.add_edge(2, 3, 1.0);
  const Capacities b = Capacities::unit(4);
  const LevelGraph lg(g, b, 0.25);
  const MicroOracle oracle(lg, b, OracleConfig{});
  std::vector<StoredMultiplier> us{{0, 1.0}, {1, 1.0}};
  const double beta = 100.0;
  const MicroResult result = oracle.run(us, {}, beta, 1.0);
  ASSERT_EQ(result.kind, MicroResult::Kind::kDual);
  EXPECT_FALSE(result.x.xik.empty());

  // LagInner with zeta = 0 reduces to (us)^T A x >= (1 - eps/16)(us)^T c.
  const int L = lg.num_levels();
  double lhs = 0, rhs = 0;
  for (const auto& sm : us) {
    const Edge& e = lg.graph().edge(sm.edge);
    const int k = lg.level(sm.edge);
    double row = 0;
    const auto xu = result.x.xik.find(
        static_cast<std::uint64_t>(e.u) * L + k);
    const auto xv = result.x.xik.find(
        static_cast<std::uint64_t>(e.v) * L + k);
    if (xu != result.x.xik.end()) row += xu->second;
    if (xv != result.x.xik.end()) row += xv->second;
    lhs += sm.us * row;
    rhs += sm.us * lg.level_weight(k);
  }
  EXPECT_GE(lhs, (1.0 - lg.eps() / 16.0) * rhs - 1e-9);
}

TEST(MicroOracle, TriangleProducesOddSetOrPrimal) {
  // Unit triangle with beta at the integral optimum: the vertex case cannot
  // absorb everything; the oracle must either separate the triangle odd set
  // or report primal progress.
  Graph g(3);
  g.add_edge(0, 1, 1.0);
  g.add_edge(1, 2, 1.0);
  g.add_edge(0, 2, 1.0);
  const Capacities b = Capacities::unit(3);
  const LevelGraph lg(g, b, 0.25);
  OracleConfig config;
  const MicroOracle oracle(lg, b, config);
  std::vector<StoredMultiplier> us{{0, 1.0}, {1, 1.0}, {2, 1.0}};
  // Normalized beta of the integral optimum (one edge).
  const double beta = lg.level_weight(lg.level(0));
  const MicroResult result = oracle.run(us, {}, beta, 1.0);
  if (result.kind == MicroResult::Kind::kDual) {
    EXPECT_FALSE(result.x.odd_sets.empty() && result.x.xik.empty());
  }
  SUCCEED();
}

TEST(MicroOracle, LagrangianMeetsPackingBound) {
  Graph g = gen::triangle_rich(3, 2, 5);
  const Capacities b = Capacities::unit(g.num_vertices());
  const LevelGraph lg(g, b, 0.25);
  const MicroOracle oracle(lg, b, OracleConfig{});
  std::vector<StoredMultiplier> us;
  for (EdgeId e = 0; e < g.num_edges(); ++e) us.push_back({e, 1.0});
  // Nontrivial zeta on a few rows.
  ZetaMap zeta;
  const int L = lg.num_levels();
  for (Vertex v = 0; v < 4; ++v) {
    zeta[static_cast<std::uint64_t>(v) * L + lg.level(0)] = 0.5;
  }
  std::size_t calls = 0;
  const MicroResult result =
      oracle.run_lagrangian(us, zeta, /*beta=*/2.0, &calls);
  EXPECT_GT(calls, 0u);
  if (result.kind == MicroResult::Kind::kDual) {
    const double po = oracle.weighted_po(result.x, zeta);
    const double qo = oracle.weighted_qo(zeta);
    EXPECT_LE(po, (13.0 / 12.0) * qo + 1e-6);
  }
}

}  // namespace
}  // namespace dp::core
