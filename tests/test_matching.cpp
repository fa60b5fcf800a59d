// Tests for the matching substrate: greedy, maximal, exact solvers
// (bitmask DP, Hungarian, blossoms) and the approximate offline solver.
// The weighted blossom is validated exhaustively against the DP.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <memory>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "dynamic/delta.hpp"
#include "dynamic/dynamic_graph.hpp"
#include "graph/generators.hpp"
#include "matching/approx.hpp"
#include "matching/blossom_unweighted.hpp"
#include "matching/blossom_weighted.hpp"
#include "matching/exact_small.hpp"
#include "matching/greedy.hpp"
#include "matching/hungarian.hpp"
#include "test_helpers.hpp"
#include "util/rng.hpp"

namespace dp {
namespace {

TEST(Greedy, ValidAndHalfApprox) {
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    const Graph g = test::small_random_graph(12, 0.4, seed);
    const Matching m = greedy_matching(g);
    ASSERT_TRUE(m.is_valid(g));
    const double opt = test::opt_weight(g);
    EXPECT_GE(m.weight(g), 0.5 * opt - 1e-9) << "seed " << seed;
  }
}

TEST(Greedy, InOrderOnWeightOrderMatchesGreedy) {
  // Weights in {1, 2, 3}: most edges tie, so the order's tie rule (edge id
  // ascending) decides which edges greedy takes.
  std::vector<Graph> graphs;
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    graphs.push_back(test::small_random_int_graph(20, 0.5, 3, seed));
  }
  // U[1, 16] reals at the offline re-solve's union size: every radix
  // digit of the key varies, so every pass reorders.
  graphs.push_back(gen::gnm(450, 30000, 5));
  gen::weight_uniform(graphs.back(), 1.0, 16.0, 6);
  // Every branch of the key map: -0.0 and +0.0 on several ids (they tie),
  // negative weights, the smallest subnormal, 1e300 and both infinities.
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<double> mixed = {
      -0.0, 1.0,  0.0, -2.5,      4.9e-324, -0.0,     1e300,
      inf,  -inf, 0.0, -4.9e-324, -1e300,   -0.0,     1.0,
      inf,  -2.5, 0.0, 1e300,     -inf,     4.9e-324, -0.0};
  Graph signs(7);
  std::size_t next = 0;
  for (Vertex u = 0; u < 7; ++u) {
    for (Vertex v = u + 1; v < 7; ++v) signs.add_edge(u, v, mixed[next++]);
  }
  graphs.push_back(std::move(signs));
  graphs.emplace_back(5);  // m = 0
  graphs.emplace_back(2);  // m = 1
  graphs.back().add_edge(0, 1, 3.5);

  for (std::size_t k = 0; k < graphs.size(); ++k) {
    const Graph& g = graphs[k];
    const std::vector<EdgeId> order = edges_by_weight_desc(g);
    ASSERT_EQ(order.size(), g.num_edges()) << "graph " << k;
    // Weight descending, ties by id ascending: the one valid permutation.
    for (std::size_t i = 1; i < order.size(); ++i) {
      const double wa = g.edge(order[i - 1]).w;
      const double wb = g.edge(order[i]).w;
      ASSERT_TRUE(wa > wb || (wa == wb && order[i - 1] < order[i]))
          << "graph " << k << " position " << i;
    }
    EXPECT_EQ(greedy_matching(g).edges(),
              greedy_matching_in_order(g, order).edges());
    std::vector<std::int64_t> caps(g.num_vertices());
    for (std::size_t v = 0; v < caps.size(); ++v) {
      caps[v] = 1 + static_cast<std::int64_t>((v + k) % 3);
    }
    const Capacities b(std::move(caps));
    const BMatching by_weight = greedy_b_matching(g, b);
    const BMatching in_order = greedy_b_matching_in_order(g, b, order);
    for (EdgeId e = 0; e < g.num_edges(); ++e) {
      EXPECT_EQ(by_weight.multiplicity(e), in_order.multiplicity(e));
    }
  }
}

Graph unit_weight_gnm(std::size_t n, std::size_t m, std::uint64_t seed) {
  std::vector<Edge> edges = gen::gnm(n, m, seed).edges();
  for (Edge& e : edges) e.w = 1.0;
  return Graph(n, std::move(edges));
}

/// Graphs whose weight orders are decided mostly by the tie rule: unit
/// weights, integers in {1..4}, U[1, 16] reals, and signed weights with
/// -0.0 and +0.0 (which tie) on several ids.
std::vector<Graph> heavy_tie_graphs() {
  std::vector<Graph> graphs;
  graphs.push_back(unit_weight_gnm(60, 400, 31));
  graphs.push_back(test::small_random_int_graph(24, 0.6, 4, 32));
  graphs.push_back(gen::gnm(200, 3000, 33));
  gen::weight_uniform(graphs.back(), 1.0, 16.0, 34);
  const std::vector<double> mixed = {-0.0, 2.0, 0.0, -1.5, -0.0, 2.0, 0.0,
                                     -1.5, 3.0, -0.0, 0.0, -7.0, 2.0};
  Graph signs(9);
  std::size_t next = 0;
  for (Vertex u = 0; u < 9; ++u) {
    for (Vertex v = u + 1; v < 9; ++v) {
      signs.add_edge(u, v, mixed[next++ % mixed.size()]);
    }
  }
  graphs.push_back(std::move(signs));
  return graphs;
}

/// Strictly ascending id subsets of [0, m): empty, each single edge at the
/// ends and the middle, all edges, and random 10%..90% samples.
std::vector<std::vector<EdgeId>> ascending_subsets(std::size_t m,
                                                   std::uint64_t seed) {
  std::vector<std::vector<EdgeId>> subsets(1);  // empty
  for (const std::size_t e : {std::size_t{0}, m / 2, m - 1}) {
    subsets.push_back({static_cast<EdgeId>(e)});
  }
  subsets.emplace_back(m);
  std::iota(subsets.back().begin(), subsets.back().end(), EdgeId{0});
  Rng rng(seed);
  for (int tenths = 1; tenths <= 9; ++tenths) {
    std::vector<EdgeId> ids;
    for (EdgeId e = 0; e < m; ++e) {
      if (rng.bernoulli(tenths / 10.0)) ids.push_back(e);
    }
    subsets.push_back(std::move(ids));
  }
  return subsets;
}

Graph materialize(const Graph& g, const std::vector<EdgeId>& ids) {
  std::vector<Edge> edges;
  for (const EdgeId e : ids) edges.push_back(g.edge(e));
  return Graph(g.num_vertices(), std::move(edges));
}

TEST(WeightOrder, SubsetOrderIsTheSortOfTheMaterializedSubgraph) {
  const std::vector<Graph> graphs = heavy_tie_graphs();
  for (std::size_t k = 0; k < graphs.size(); ++k) {
    const Graph& g = graphs[k];
    const std::vector<EdgeId> order = edges_by_weight_desc(g);
    for (const std::vector<EdgeId>& ids :
         ascending_subsets(g.num_edges(), 40 + k)) {
      EXPECT_EQ(subset_weight_order(order, ids),
                edges_by_weight_desc(materialize(g, ids)))
          << "graph " << k << " subset of " << ids.size();
    }
  }
}

TEST(WeightOrder, SubsetOrderRejectsIdsThatDoNotStrictlyAscendInRange) {
  const Graph g = unit_weight_gnm(30, 100, 35);
  const std::vector<EdgeId> order = edges_by_weight_desc(g);
  const std::vector<std::vector<EdgeId>> bad = {
      {3, 1}, {2, 2}, {0, 5, 4, 9}, {100}, {0, 99, 100}, {7, 1000000}};
  for (const std::vector<EdgeId>& ids : bad) {
    EXPECT_THROW(subset_weight_order(order, ids), std::invalid_argument)
        << ids.size() << " ids ending " << ids.back();
  }
  EXPECT_NO_THROW(subset_weight_order(order, {0, 99}));
}

TEST(WeightOrder, OrderTakingSolversMatchTheSortingForms) {
  const std::vector<Graph> graphs = heavy_tie_graphs();
  for (std::size_t k = 0; k < graphs.size(); ++k) {
    const Graph& g = graphs[k];
    const std::vector<EdgeId> order = edges_by_weight_desc(g);
    // A random half, as the offline re-solve sees it: the order filtered
    // from the whole graph's sort.
    const std::vector<EdgeId> half = ascending_subsets(g.num_edges(), 50)[9];
    const Graph sub = materialize(g, half);
    const std::vector<EdgeId> sub_order = subset_weight_order(order, half);
    std::vector<std::int64_t> caps(g.num_vertices());
    for (std::size_t v = 0; v < caps.size(); ++v) {
      caps[v] = 1 + static_cast<std::int64_t>((v + k) % 3);
    }
    const Capacities b(std::move(caps));
    for (const auto& [graph, given] :
         {std::pair<const Graph*, const std::vector<EdgeId>*>{&g, &order},
          {&sub, &sub_order}}) {
      for (std::uint64_t seed : {1u, 7u}) {
        EXPECT_EQ(local_search_matching(*graph, *given, 64, seed).edges(),
                  local_search_matching(*graph, 64, seed).edges())
            << "graph " << k << " seed " << seed;
      }
      const BMatching given_bm = approx_weighted_b_matching(*graph, b, *given);
      const BMatching sorted_bm = approx_weighted_b_matching(*graph, b);
      for (EdgeId e = 0; e < graph->num_edges(); ++e) {
        ASSERT_EQ(given_bm.multiplicity(e), sorted_bm.multiplicity(e))
            << "graph " << k << " edge " << e;
      }
    }
  }
}

/// A weight from `palette`, or U[1, 16] when it is empty.
double palette_weight(const std::vector<double>& palette, Rng& rng) {
  return palette.empty() ? rng.uniform_real(1.0, 16.0)
                         : palette[rng.uniform(palette.size())];
}

/// One hop of churn with weights from `palette` (U[1, 16] when empty):
/// k removes, k inserts of random pairs (a live pair is reweighted) and k
/// same-key reweights (remove and re-insert in one batch).
dyn::EdgeDelta palette_churn(const Graph& live,
                             const std::vector<double>& palette,
                             std::size_t k, Rng& rng) {
  const auto live_edge = [&live, &rng] {
    return live.edge(static_cast<EdgeId>(rng.uniform(live.num_edges())));
  };
  dyn::EdgeDelta d;
  for (std::size_t i = 0; i < k; ++i) {
    const Edge removed = live_edge();
    d.removes.push_back({removed.u, removed.v});
    const Edge reweighted = live_edge();
    d.removes.push_back({reweighted.u, reweighted.v});
    d.inserts.push_back(
        {reweighted.v, reweighted.u, palette_weight(palette, rng)});
    d.inserts.push_back(
        {static_cast<Vertex>(rng.uniform(live.num_vertices())),
         static_cast<Vertex>(rng.uniform(live.num_vertices())),
         palette_weight(palette, rng)});
  }
  return d;
}

TEST(WeightOrder, MergedOrderIsTheSortOfThePostDeltaGraph) {
  // Unit weights, {1..4}, U[1, 16] reals, and signed weights where -0.0
  // and +0.0 tie (a reweight between them moves no edge by weight).
  const std::vector<std::vector<double>> palettes = {
      {1.0}, {1.0, 2.0, 3.0, 4.0}, {}, {-0.0, 0.0, 2.0, -1.5, 0.0, 2.0}};
  for (std::size_t p = 0; p < palettes.size(); ++p) {
    Rng rng(60 + p);
    std::vector<Edge> edges = gen::gnm(40, 150, 61 + p).edges();
    for (Edge& e : edges) e.w = palette_weight(palettes[p], rng);
    // Key-sorted, as DynamicGraph numbers every later generation, so the
    // generation 0 -> 1 hop merges too.
    dyn::DynamicGraph dg(test::key_sorted(Graph(40, std::move(edges))));
    std::vector<EdgeId> order = edges_by_weight_desc(*dg.materialize());
    // Hop 0 leaves generation 0; hop 4 leaves one edge, hop 5 grows the
    // graph back and hop 7 replaces every edge by a new pair.
    for (int hop = 0; hop < 10; ++hop) {
      const std::shared_ptr<const Graph> pre = dg.materialize();
      const std::uint64_t generation = dg.generation();
      dyn::EdgeDelta delta;
      if (hop == 4) {  // leaves one edge
        for (EdgeId e = 1; e < pre->num_edges(); ++e) {
          delta.removes.push_back({pre->edge(e).u, pre->edge(e).v});
        }
      } else if (hop == 7) {  // replaces every edge by a new pair
        for (const Edge& e : pre->edges()) delta.removes.push_back({e.u, e.v});
        for (const dyn::EdgeInsert& e :
             palette_churn(*pre, palettes[p], 60, rng).inserts) {
          const bool live = std::any_of(
              pre->edges().begin(), pre->edges().end(), [&e](const Edge& x) {
                return dyn::edge_key(x.u, x.v) == dyn::edge_key(e.u, e.v);
              });
          if (!live) delta.inserts.push_back(e);
        }
      } else {
        delta = palette_churn(*pre, palettes[p], hop == 5 ? 40 : 1 + hop % 4,
                              rng);
      }
      dg.apply(delta);
      const std::shared_ptr<const Graph> post = dg.materialize();
      const dyn::NormalizedDelta net =
          dyn::normalize(dg.delta_since(generation));
      const dyn::DeltaIds ids = dyn::delta_ids(*post, net);
      const std::string label =
          "palette " + std::to_string(p) + " hop " + std::to_string(hop);
      ASSERT_EQ(ids.inserted, test::inserted_ids(*post, net)) << label;
      // The renaming pairs each surviving edge with itself, weight bits
      // included.
      ASSERT_EQ(ids.renamed.size(), pre->num_edges()) << label;
      if (hop == 4) {
        ASSERT_EQ(post->num_edges(), 1u) << label;
      }
      if (hop == 7) {
        ASSERT_EQ(std::count(ids.renamed.begin(), ids.renamed.end(), kNoEdge),
                  static_cast<std::ptrdiff_t>(pre->num_edges()))
            << label;
      }
      for (EdgeId old = 0; old < pre->num_edges(); ++old) {
        const EdgeId e = ids.renamed[old];
        if (e == kNoEdge) continue;
        ASSERT_LT(e, post->num_edges()) << label;
        const Edge& a = pre->edge(old);
        const Edge& b = post->edge(e);
        ASSERT_EQ(dyn::edge_key(a.u, a.v), dyn::edge_key(b.u, b.v)) << label;
        ASSERT_EQ(std::bit_cast<std::uint64_t>(a.w),
                  std::bit_cast<std::uint64_t>(b.w))
            << label;
      }
      const std::optional<std::vector<EdgeId>> merged =
          merge_weight_order(*post, order, ids.renamed, ids.inserted);
      ASSERT_TRUE(merged.has_value()) << label;
      ASSERT_EQ(*merged, edges_by_weight_desc(*post)) << label;
      order = *merged;
    }
  }
}

TEST(Greedy, TrapPathIsTight) {
  // Greedy picks the (1+delta) middle edges and loses nearly half.
  const Graph g = gen::greedy_trap_path(20, 0.01);
  const Matching greedy = greedy_matching(g);
  const Matching opt = max_weight_matching(g);
  ASSERT_TRUE(greedy.is_valid(g));
  EXPECT_LT(greedy.weight(g), 0.6 * opt.weight(g));
}

TEST(Maximal, EveryEdgeBlocked) {
  const Graph g = test::small_random_graph(15, 0.3, 7);
  const Matching m = maximal_matching(g);
  ASSERT_TRUE(m.is_valid(g));
  const auto mate = m.mates(g);
  for (const Edge& e : g.edges()) {
    EXPECT_TRUE(mate[e.u] != Matching::kUnmatched ||
                mate[e.v] != Matching::kUnmatched);
  }
}

TEST(ExactSmall, PathAndTriangle) {
  Graph path(4);
  path.add_edge(0, 1, 1.0);
  path.add_edge(1, 2, 5.0);
  path.add_edge(2, 3, 1.0);
  EXPECT_DOUBLE_EQ(exact_matching_weight_small(path), 5.0);

  Graph tri(3);
  tri.add_edge(0, 1, 2.0);
  tri.add_edge(1, 2, 3.0);
  tri.add_edge(0, 2, 4.0);
  EXPECT_DOUBLE_EQ(exact_matching_weight_small(tri), 4.0);
}

TEST(ExactSmall, MatchesReconstruction) {
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    const Graph g = test::small_random_graph(10, 0.5, seed);
    const Matching m = exact_matching_small(g);
    ASSERT_TRUE(m.is_valid(g));
    EXPECT_NEAR(m.weight(g), exact_matching_weight_small(g), 1e-9);
  }
}

TEST(ExactSmall, RejectsLargeGraphs) {
  EXPECT_THROW(exact_matching_small(Graph(30)), std::invalid_argument);
}

class BlossomWeightedParam : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BlossomWeightedParam, MatchesBitmaskDP) {
  const std::uint64_t seed = GetParam();
  // Vary size/density with the seed for coverage diversity.
  const std::size_t n = 6 + seed % 9;           // 6..14
  const double density = 0.25 + 0.1 * (seed % 6);
  const Graph g = test::small_random_int_graph(n, density, 40, seed * 77 + 1);
  const Matching blossom = max_weight_matching(g);
  ASSERT_TRUE(blossom.is_valid(g));
  EXPECT_NEAR(blossom.weight(g), test::opt_weight(g), 1e-9)
      << "n=" << n << " seed=" << seed;
}

INSTANTIATE_TEST_SUITE_P(RandomGraphs, BlossomWeightedParam,
                         ::testing::Range<std::uint64_t>(0, 60));

TEST(BlossomWeighted, FractionalWeightsViaScaling) {
  for (std::uint64_t seed = 100; seed < 110; ++seed) {
    const Graph g = test::small_random_graph(10, 0.5, seed);
    const Matching m = max_weight_matching(g);
    ASSERT_TRUE(m.is_valid(g));
    EXPECT_NEAR(m.weight(g), test::opt_weight(g), 1e-6);
  }
}

TEST(BlossomWeighted, EmptyAndSingleEdge) {
  EXPECT_TRUE(max_weight_matching(Graph(0)).empty());
  EXPECT_TRUE(max_weight_matching(Graph(5)).empty());
  Graph g(2);
  g.add_edge(0, 1, 3.0);
  EXPECT_EQ(max_weight_matching(g).size(), 1u);
}

// FNV-1a over the returned edge ids in order: a golden value pins which
// edges the solver returns and in what order, not just the optimum.
std::uint64_t edge_id_hash(const Matching& m) {
  std::uint64_t h = 14695981039346656037ull;
  for (const EdgeId e : m.edges()) {
    for (int byte = 0; byte < 4; ++byte) {
      h ^= (e >> (8 * byte)) & 0xffu;
      h *= 1099511628211ull;
    }
  }
  return h;
}

Graph gnm_unit(std::size_t n, std::size_t m, std::uint64_t seed) {
  Graph g = gen::gnm(n, m, seed);
  gen::weight_unit(g);
  return g;
}

Graph gnm_uniform16(std::size_t n, std::size_t m, std::uint64_t seed) {
  Graph g = gen::gnm(n, m, seed);
  gen::weight_uniform(g, 1.0, 16.0, seed + 100);
  return g;
}

Graph gnm_int16(std::size_t n, std::size_t m, std::uint64_t seed) {
  const Graph topology = gen::gnm(n, m, seed);
  Rng rng(seed);
  Graph g(n);
  for (const Edge& e : topology.edges()) {
    g.add_edge(e.u, e.v, static_cast<double>(rng.uniform_int(1, 16)));
  }
  return g;
}

// The bitmask DP above stops at n = 14, where few blossoms form. These
// instances are large enough to take many blossom ids (including reused
// ones) and to expand blossoms; the hashes were recorded from the dense
// (2n+2)^2 arc-matrix implementation, so they pin the compact storage to
// its answers edge for edge. Blossom ids taken / expansions per instance:
// unit gnm(300, 900, 1) 119 / 0, unit gnm(350, 1050, 7) 142 / 0,
// unit gnm(400, 1200, 10) 161 / 0, unit gnm(400, 1400, 8) 169 / 0,
// U[1, 16] gnm(400, 1600, 1) 11 / 5, U[1, 16] gnm(200, 2000, 4) 11 / 12,
// U[1, 16] gnm(200, 2000, 7) 26 / 11, integer U{1..16} gnm(200, 2000, 3)
// 10 / 12, U[1, 16] gnm(450, 30000, 6) 72 / 8 and gnm(450, 30000, 8)
// 121 / 3. U[1, 16] weights are real, so they also run the 2^40 scaling.
TEST(BlossomWeighted, GoldenEdgeSequences) {
  struct Case {
    const char* name;
    Graph g;
    std::uint64_t hash;
  };
  const Case cases[] = {
      {"unit gnm(300, 900, 1)", gnm_unit(300, 900, 1),
       0xab33505f31607c95ull},
      {"unit gnm(350, 1050, 7)", gnm_unit(350, 1050, 7),
       0x2d19222b5610e47cull},
      {"unit gnm(400, 1200, 10)", gnm_unit(400, 1200, 10),
       0xb5580197ac8016b9ull},
      {"unit gnm(400, 1400, 8)", gnm_unit(400, 1400, 8),
       0x0ed4235d7b7965dcull},
      {"U[1,16] gnm(400, 1600, 1)", gnm_uniform16(400, 1600, 1),
       0xb415f69570ca5118ull},
      {"U[1,16] gnm(200, 2000, 4)", gnm_uniform16(200, 2000, 4),
       0x4e90d8d96f5a894bull},
      {"U[1,16] gnm(200, 2000, 7)", gnm_uniform16(200, 2000, 7),
       0x8c08a57ec567a46aull},
      {"U{1..16} gnm(200, 2000, 3)", gnm_int16(200, 2000, 3),
       0xb618fcf4fecc28daull},
      {"U[1,16] gnm(450, 30000, 6)", gnm_uniform16(450, 30000, 6),
       0xf38b39737df5f04bull},
      {"U[1,16] gnm(450, 30000, 8)", gnm_uniform16(450, 30000, 8),
       0x057fb5633e090ed4ull},
  };
  for (const Case& c : cases) {
    const Matching m = max_weight_matching(c.g);
    ASSERT_TRUE(m.is_valid(c.g)) << c.name;
    EXPECT_EQ(edge_id_hash(m), c.hash) << c.name;
  }
}

// With unit weights a maximum-weight matching is a maximum-cardinality
// one. The unweighted blossom shares no code or storage with the weighted
// one, so this checks the weighted solver's optimum at sizes the DP cannot.
TEST(BlossomWeighted, UnitWeightsMatchMaxCardinality) {
  const struct {
    std::size_t n, m;
  } shapes[] = {{300, 450}, {300, 900}, {450, 700}, {450, 1400},
                {600, 900}, {600, 1800}};
  for (const auto& shape : shapes) {
    for (std::uint64_t seed = 1; seed <= 2; ++seed) {
      const Graph g = gnm_unit(shape.n, shape.m, seed);
      const Matching weighted = max_weight_matching(g);
      ASSERT_TRUE(weighted.is_valid(g));
      EXPECT_EQ(weighted.size(), max_cardinality_matching(g).size())
          << "gnm(" << shape.n << ", " << shape.m << ", " << seed << ")";
    }
  }
}

class BlossomUnweightedParam
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BlossomUnweightedParam, MaxCardinalityMatchesDP) {
  const std::uint64_t seed = GetParam();
  const std::size_t n = 5 + seed % 10;
  Graph g = test::small_random_graph(n, 0.35, seed * 13 + 5);
  gen::weight_unit(g);
  const Matching m = max_cardinality_matching(g);
  ASSERT_TRUE(m.is_valid(g));
  EXPECT_NEAR(static_cast<double>(m.size()), test::opt_weight(g), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(RandomGraphs, BlossomUnweightedParam,
                         ::testing::Range<std::uint64_t>(0, 40));

TEST(BlossomUnweighted, OddCycleNeedsContraction) {
  // C5: maximum matching 2; greedy BFS without blossoms would fail.
  Graph g(5);
  for (int i = 0; i < 5; ++i) {
    g.add_edge(static_cast<Vertex>(i), static_cast<Vertex>((i + 1) % 5),
               1.0);
  }
  EXPECT_EQ(max_cardinality_matching(g).size(), 2u);
}

class HungarianParam : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(HungarianParam, MatchesDPOnBipartite) {
  const std::uint64_t seed = GetParam();
  const std::size_t nl = 3 + seed % 5;
  const std::size_t nr = 3 + (seed / 2) % 5;
  Graph g = gen::bipartite(nl, nr, std::min(nl * nr, nl * nr / 2 + 2),
                           seed * 31 + 7);
  gen::weight_uniform(g, 1.0, 9.0, seed);
  const Matching m = hungarian_matching(g);
  ASSERT_TRUE(m.is_valid(g));
  EXPECT_NEAR(m.weight(g), test::opt_weight(g), 1e-6);
}

INSTANTIATE_TEST_SUITE_P(RandomBipartite, HungarianParam,
                         ::testing::Range<std::uint64_t>(0, 30));

TEST(Hungarian, RejectsOddCycle) {
  Graph g(3);
  g.add_edge(0, 1, 1.0);
  g.add_edge(1, 2, 1.0);
  g.add_edge(0, 2, 1.0);
  EXPECT_THROW(hungarian_matching(g), std::invalid_argument);
}

TEST(Bipartition, DetectsBipartite) {
  const Graph g = gen::bipartite(4, 5, 12, 3);
  const auto side = bipartition(g);
  ASSERT_TRUE(side.has_value());
  for (const Edge& e : g.edges()) {
    EXPECT_NE((*side)[e.u], (*side)[e.v]);
  }
}

class LocalSearchParam : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LocalSearchParam, AtLeastTwoThirdsInPractice) {
  const std::uint64_t seed = GetParam();
  const Graph g = test::small_random_graph(14, 0.4, seed * 3 + 11);
  const Matching m = local_search_matching(g, 64, seed);
  ASSERT_TRUE(m.is_valid(g));
  const double opt = test::opt_weight(g);
  // One-for-two + two-for-one local optimality empirically lands >= 0.8;
  // assert a conservative 2/3.
  EXPECT_GE(m.weight(g), (2.0 / 3.0) * opt - 1e-9) << "seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(RandomGraphs, LocalSearchParam,
                         ::testing::Range<std::uint64_t>(0, 30));

TEST(ApproxDispatch, UsesExactForSmall) {
  const Graph g = test::small_random_graph(12, 0.5, 99);
  const Matching m = approx_weighted_matching(g);
  EXPECT_NEAR(m.weight(g), test::opt_weight(g), 1e-6);
}

TEST(BMatchingGreedy, ValidAndHalfOfExact) {
  for (std::uint64_t seed = 0; seed < 12; ++seed) {
    const Graph g = test::small_random_graph(8, 0.45, seed + 500);
    const Capacities b = gen::random_capacities(8, 1, 3, seed);
    const BMatching bm = greedy_b_matching(g, b);
    ASSERT_TRUE(bm.is_valid(g, b));
    if (g.num_edges() <= 18) {
      const double opt = exact_b_matching_weight_small(g, b);
      EXPECT_GE(bm.weight(g), 0.5 * opt - 1e-9) << "seed " << seed;
    }
  }
}

TEST(BMatchingApprox, ImprovesOnGreedyOrEqual) {
  for (std::uint64_t seed = 0; seed < 12; ++seed) {
    const Graph g = test::small_random_graph(10, 0.5, seed + 900);
    const Capacities b = gen::random_capacities(10, 1, 4, seed);
    const BMatching greedy = greedy_b_matching(g, b);
    const BMatching better = approx_weighted_b_matching(g, b);
    ASSERT_TRUE(better.is_valid(g, b));
    EXPECT_GE(better.weight(g), greedy.weight(g) - 1e-9);
  }
}

TEST(BMatchingSaturation, MultiplicityIsResidualMin) {
  Graph g(3);
  g.add_edge(0, 1, 5.0);
  g.add_edge(1, 2, 1.0);
  const Capacities b(3, 3);
  const BMatching bm = greedy_b_matching(g, b);
  EXPECT_EQ(bm.multiplicity(0), 3);  // saturates both 0 and 1
  EXPECT_EQ(bm.multiplicity(1), 0);  // vertex 1 exhausted
}

TEST(MatchingTypes, MatesAndValidity) {
  Graph g(4);
  g.add_edge(0, 1, 1.0);
  g.add_edge(2, 3, 1.0);
  g.add_edge(1, 2, 1.0);
  Matching m({0, 1});
  ASSERT_TRUE(m.is_valid(g));
  const auto mates = m.mates(g);
  EXPECT_EQ(mates[0], 1u);
  EXPECT_EQ(mates[3], 2u);
  Matching bad({0, 2});  // edges 0 and 2 share vertex 1
  EXPECT_FALSE(bad.is_valid(g));
}

}  // namespace
}  // namespace dp
