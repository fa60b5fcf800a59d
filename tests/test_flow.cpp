// Tests for Dinic max-flow, the arena-backed CSR flow network, and the
// Gomory-Hu tree (validated against brute-force min cuts on random small
// graphs and against Dinic s-t max-flows on larger ones).

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>

#include "graph/dinic.hpp"
#include "graph/flow_arena.hpp"
#include "graph/generators.hpp"
#include "graph/gomory_hu.hpp"
#include "util/rng.hpp"

namespace dp {
namespace {

/// Brute-force s-t min cut by enumerating all bipartitions (n <= 16).
std::int64_t brute_min_cut(std::size_t n, const std::vector<Edge>& edges,
                           const std::vector<std::int64_t>& cap,
                           std::uint32_t s, std::uint32_t t) {
  std::int64_t best = std::numeric_limits<std::int64_t>::max();
  for (std::size_t mask = 0; mask < (std::size_t{1} << n); ++mask) {
    if (!(mask >> s & 1) || (mask >> t & 1)) continue;
    std::int64_t cut = 0;
    for (std::size_t e = 0; e < edges.size(); ++e) {
      const bool u_in = mask >> edges[e].u & 1;
      const bool v_in = mask >> edges[e].v & 1;
      if (u_in != v_in) cut += cap[e];
    }
    best = std::min(best, cut);
  }
  return best;
}

TEST(Dinic, SimplePath) {
  Dinic d(3);
  d.add_arc(0, 1, 5);
  d.add_arc(1, 2, 3);
  EXPECT_EQ(d.max_flow(0, 2), 3);
}

TEST(Dinic, ParallelPaths) {
  Dinic d(4);
  d.add_arc(0, 1, 2);
  d.add_arc(1, 3, 2);
  d.add_arc(0, 2, 3);
  d.add_arc(2, 3, 1);
  EXPECT_EQ(d.max_flow(0, 3), 3);
}

TEST(Dinic, UndirectedEdgeBothWays) {
  Dinic d(2);
  d.add_edge(0, 1, 4);
  EXPECT_EQ(d.max_flow(0, 1), 4);
  EXPECT_EQ(d.max_flow(1, 0), 4);  // reusable after reset
}

TEST(Dinic, MinCutSideSeparates) {
  Dinic d(4);
  d.add_edge(0, 1, 10);
  d.add_edge(1, 2, 1);
  d.add_edge(2, 3, 10);
  EXPECT_EQ(d.max_flow(0, 3), 1);
  const auto side = d.min_cut_side(0);
  EXPECT_TRUE(side[0]);
  EXPECT_TRUE(side[1]);
  EXPECT_FALSE(side[2]);
  EXPECT_FALSE(side[3]);
}

class GomoryHuParam : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(GomoryHuParam, AllPairsMatchBruteForce) {
  const std::uint64_t seed = GetParam();
  Rng rng(seed);
  const std::size_t n = 5 + seed % 5;  // 5..9
  Graph g = gen::gnm(n, std::min(n * (n - 1) / 2, 2 * n), seed * 17 + 3);
  std::vector<std::int64_t> cap(g.num_edges());
  for (auto& c : cap) c = rng.uniform_int(1, 9);

  const GomoryHuTree tree = gomory_hu(n, g.edges(), cap);
  for (std::uint32_t s = 0; s < n; ++s) {
    for (std::uint32_t t = s + 1; t < n; ++t) {
      EXPECT_EQ(tree.min_cut(s, t),
                brute_min_cut(n, g.edges(), cap, s, t))
          << "pair (" << s << "," << t << ") seed " << seed;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RandomGraphs, GomoryHuParam,
                         ::testing::Range<std::uint64_t>(0, 25));

TEST(GomoryHu, CutSideIsFundamentalCut) {
  // Path graph: tree should reflect the path cuts.
  Graph g(4);
  g.add_edge(0, 1, 1.0);
  g.add_edge(1, 2, 1.0);
  g.add_edge(2, 3, 1.0);
  const std::vector<std::int64_t> cap{3, 1, 2};
  const GomoryHuTree tree = gomory_hu(4, g.edges(), cap);
  EXPECT_EQ(tree.min_cut(0, 3), 1);
  EXPECT_EQ(tree.min_cut(0, 1), 3);
  // Every cut side must contain its defining vertex.
  for (std::uint32_t v = 1; v < 4; ++v) {
    const auto side = tree.cut_side(v);
    EXPECT_NE(std::find(side.begin(), side.end(), v), side.end());
  }
}

TEST(GomoryHu, DisconnectedGraphZeroCuts) {
  Graph g(4);
  g.add_edge(0, 1, 1.0);
  g.add_edge(2, 3, 1.0);
  const std::vector<std::int64_t> cap{5, 7};
  const GomoryHuTree tree = gomory_hu(4, g.edges(), cap);
  EXPECT_EQ(tree.min_cut(0, 2), 0);
  EXPECT_EQ(tree.min_cut(0, 1), 5);
  EXPECT_EQ(tree.min_cut(2, 3), 7);
}

TEST(GomoryHu, DepthAndChildrenMatchParentWalk) {
  Rng rng(5);
  Graph g = gen::gnm(24, 60, 11);
  std::vector<std::int64_t> cap(g.num_edges());
  for (auto& c : cap) c = rng.uniform_int(1, 9);
  const GomoryHuTree tree = gomory_hu(24, g.edges(), cap);
  // depth[v] equals the naive parent-chain length.
  for (std::uint32_t v = 0; v < tree.size(); ++v) {
    int d = 0;
    std::uint32_t x = v;
    while (tree.parent[x] != x) {
      ++d;
      x = tree.parent[x];
    }
    EXPECT_EQ(tree.depth[v], d);
  }
  // cut_side(v) is exactly the set of vertices whose path hits v.
  for (std::uint32_t v = 1; v < tree.size(); ++v) {
    std::vector<std::uint32_t> expect;
    for (std::uint32_t w = 0; w < tree.size(); ++w) {
      std::uint32_t x = w;
      while (true) {
        if (x == v) {
          expect.push_back(w);
          break;
        }
        if (tree.parent[x] == x) break;
        x = tree.parent[x];
      }
    }
    std::vector<std::uint32_t> side = tree.cut_side(v);
    std::sort(side.begin(), side.end());
    EXPECT_EQ(side, expect) << "vertex " << v;
  }
}

/// Randomized equivalence on larger graphs: every tree query must match an
/// independent s-t max-flow (Dinic is the reference implementation).
class GomoryHuVsMaxFlow : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(GomoryHuVsMaxFlow, TreeQueriesMatchDinic) {
  const std::uint64_t seed = GetParam();
  Rng rng(seed * 31 + 7);
  const std::size_t n = 20 + seed % 30;  // 20..49
  Graph g = gen::gnm(n, 3 * n, seed * 13 + 1);
  std::vector<std::int64_t> cap(g.num_edges());
  for (auto& c : cap) c = rng.uniform_int(1, 20);

  const GomoryHuTree tree = gomory_hu(n, g.edges(), cap);
  Dinic dinic(n);
  for (std::size_t e = 0; e < g.num_edges(); ++e) {
    dinic.add_edge(g.edge(static_cast<EdgeId>(e)).u,
                   g.edge(static_cast<EdgeId>(e)).v, cap[e]);
  }
  for (int trial = 0; trial < 40; ++trial) {
    const auto s = static_cast<std::uint32_t>(rng.uniform(n));
    const auto t = static_cast<std::uint32_t>(rng.uniform(n));
    if (s == t) continue;
    EXPECT_EQ(tree.min_cut(s, t), dinic.max_flow(s, t))
        << "pair (" << s << "," << t << ") seed " << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(RandomGraphs, GomoryHuVsMaxFlow,
                         ::testing::Range<std::uint64_t>(0, 8));

TEST(FlowArena, MatchesDinicAndResetsBetweenFlows) {
  Rng rng(3);
  for (int inst = 0; inst < 10; ++inst) {
    const std::size_t n = 8 + static_cast<std::size_t>(inst);
    Graph g = gen::gnm(n, 3 * n, 100 + static_cast<std::uint64_t>(inst));
    std::vector<ArenaEdge> edges;
    Dinic dinic(n);
    for (EdgeId e = 0; e < g.num_edges(); ++e) {
      const auto c = rng.uniform_int(1, 12);
      edges.push_back(ArenaEdge{g.edge(e).u, g.edge(e).v, c});
      dinic.add_edge(g.edge(e).u, g.edge(e).v, c);
    }
    FlowArena net;
    net.build(n, edges);
    // Repeated flows on the same arena must agree with a fresh Dinic
    // (max_flow restores capacities in place).
    for (int trial = 0; trial < 15; ++trial) {
      const auto s = static_cast<std::uint32_t>(rng.uniform(n));
      const auto t = static_cast<std::uint32_t>(rng.uniform(n));
      if (s == t) continue;
      EXPECT_EQ(net.max_flow(s, t), dinic.max_flow(s, t));
    }
  }
}

TEST(FlowArena, DisableVertexAndBaseCapEdits) {
  // Path 0-1-2-3 with a bypass 0-3.
  std::vector<ArenaEdge> edges{{0, 1, 5}, {1, 2, 3}, {2, 3, 5}, {0, 3, 2}};
  FlowArena net;
  net.build(4, edges);
  EXPECT_EQ(net.max_flow(0, 3), 5);  // 3 through the path + 2 bypass
  // Contracting vertex 1 severs the path; only the bypass remains.
  net.disable_vertex(1);
  EXPECT_EQ(net.max_flow(0, 3), 2);
  // Raising the bypass rest-state capacity takes effect on the next flow.
  net.set_edge_base_cap(3, 9);
  EXPECT_EQ(net.edge_base_cap(3), 9);
  EXPECT_EQ(net.max_flow(0, 3), 9);
}

TEST(GomoryHu, FromArenaRespectsAliveMask) {
  // Two triangles joined by a light bridge; masking one triangle out must
  // yield the tree of the other alone.
  std::vector<ArenaEdge> edges{{0, 1, 4}, {1, 2, 4}, {0, 2, 4},
                               {2, 3, 1},
                               {3, 4, 4}, {4, 5, 4}, {3, 5, 4}};
  FlowArena net;
  net.build(6, edges);
  for (std::uint32_t v : {3, 4, 5}) net.disable_vertex(v);
  const std::vector<char> alive{1, 1, 1, 0, 0, 0};
  const GomoryHuTree tree = gomory_hu_from_arena(net, &alive);
  EXPECT_EQ(tree.root, 0u);
  EXPECT_EQ(tree.min_cut(0, 1), 8);
  EXPECT_EQ(tree.min_cut(0, 2), 8);
  // Dead vertices are self-rooted singletons.
  for (std::uint32_t v : {3u, 4u, 5u}) {
    EXPECT_EQ(tree.parent[v], v);
    EXPECT_EQ(tree.cut_side(v), std::vector<std::uint32_t>{v});
    EXPECT_EQ(tree.min_cut(0, v), 0);
  }
}

}  // namespace
}  // namespace dp
