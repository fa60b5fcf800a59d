// Tests for graph containers, generators and union-find.

#include <gtest/gtest.h>

#include <cmath>

#include "graph/generators.hpp"
#include "graph/graph.hpp"
#include "graph/union_find.hpp"
#include "matching/hungarian.hpp"

namespace dp {
namespace {

std::size_t num_components(const Graph& g) {
  UnionFind uf(g.num_vertices());
  for (const Edge& e : g.edges()) uf.unite(e.u, e.v);
  return uf.num_components();
}

TEST(Graph, BasicConstruction) {
  Graph g(5);
  EXPECT_TRUE(g.add_edge(0, 1, 2.0));
  EXPECT_TRUE(g.add_edge(1, 2, 3.0));
  EXPECT_FALSE(g.add_edge(2, 2));  // self loop rejected
  EXPECT_EQ(g.num_vertices(), 5u);
  EXPECT_EQ(g.num_edges(), 2u);
  EXPECT_DOUBLE_EQ(g.total_weight(), 5.0);
  EXPECT_DOUBLE_EQ(g.max_weight(), 3.0);
  EXPECT_THROW(g.add_edge(0, 9), std::out_of_range);
}

TEST(Graph, AdjacencyView) {
  Graph g(4);
  g.add_edge(0, 1);
  g.add_edge(0, 2);
  g.add_edge(0, 3);
  g.add_edge(1, 2);
  EXPECT_EQ(g.degree(0), 3u);
  EXPECT_EQ(g.degree(3), 1u);
  bool saw_edge1 = false;
  for (const auto& inc : g.neighbors(1)) {
    if (inc.neighbor == 2) saw_edge1 = true;
  }
  EXPECT_TRUE(saw_edge1);
}

TEST(Graph, EdgeSubgraph) {
  Graph g(4);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(2, 3);
  const Graph sub = g.edge_subgraph({1, 0, 1});
  EXPECT_EQ(sub.num_edges(), 2u);
  EXPECT_EQ(sub.num_vertices(), 4u);
}

TEST(Capacities, Totals) {
  const Capacities b({1, 2, 3});
  EXPECT_EQ(b.total(), 6);
  EXPECT_EQ(b.weight_of({0, 2}), 4);
  EXPECT_EQ(Capacities::unit(5).total(), 5);
}

TEST(Generators, GnmExactCount) {
  const Graph g = gen::gnm(50, 200, 1);
  EXPECT_EQ(g.num_vertices(), 50u);
  EXPECT_EQ(g.num_edges(), 200u);
  EXPECT_THROW(gen::gnm(5, 100, 1), std::invalid_argument);
}

TEST(Generators, GnpExpectedCount) {
  const Graph g = gen::gnp(200, 0.1, 2);
  const double expected = 0.1 * 200 * 199 / 2;
  EXPECT_NEAR(static_cast<double>(g.num_edges()), expected,
              4 * std::sqrt(expected));
}

TEST(Generators, Deterministic) {
  const Graph a = gen::gnm(30, 60, 77);
  const Graph b = gen::gnm(30, 60, 77);
  ASSERT_EQ(a.num_edges(), b.num_edges());
  for (EdgeId e = 0; e < a.num_edges(); ++e) {
    EXPECT_EQ(a.edge(e).u, b.edge(e).u);
    EXPECT_EQ(a.edge(e).v, b.edge(e).v);
  }
}

TEST(Generators, BipartiteIsBipartite) {
  const Graph g = gen::bipartite(20, 30, 100, 3);
  EXPECT_TRUE(bipartition(g).has_value());
}

TEST(Generators, GridStructure) {
  const Graph g = gen::grid(3, 4);
  EXPECT_EQ(g.num_vertices(), 12u);
  EXPECT_EQ(g.num_edges(), 3u * 3 + 2u * 4);  // rows*(cols-1) + (rows-1)*cols
}

TEST(Generators, CompleteCount) {
  EXPECT_EQ(gen::complete(6).num_edges(), 15u);
}

TEST(Generators, TriangleRich) {
  const Graph g = gen::triangle_rich(5, 0, 1);
  EXPECT_EQ(g.num_vertices(), 15u);
  EXPECT_EQ(g.num_edges(), 15u);
  EXPECT_EQ(num_components(g), 5u);
}

TEST(Generators, PowerLawReasonableDegree) {
  const Graph g = gen::power_law(500, 2.5, 6.0, 9);
  const double avg = 2.0 * g.num_edges() / g.num_vertices();
  EXPECT_GT(avg, 2.0);
  EXPECT_LT(avg, 14.0);
}

TEST(Generators, GeometricConnectsClosePoints) {
  const Graph g = gen::geometric(300, 0.12, 4);
  EXPECT_GT(g.num_edges(), 100u);
}

TEST(Generators, WeightersPreserveTopology) {
  Graph g = gen::gnm(30, 80, 5);
  gen::weight_uniform(g, 2.0, 4.0, 6);
  EXPECT_EQ(g.num_edges(), 80u);
  for (const Edge& e : g.edges()) {
    EXPECT_GE(e.w, 2.0);
    EXPECT_LE(e.w, 4.0);
  }
  gen::weight_geometric_classes(g, 0.5, 5, 7);
  for (const Edge& e : g.edges()) {
    EXPECT_GE(e.w, 1.0);
    EXPECT_LE(e.w, std::pow(1.5, 4) + 1e-9);
  }
  gen::weight_unit(g);
  EXPECT_DOUBLE_EQ(g.total_weight(), 80.0);
}

TEST(Generators, GreedyTrapShape) {
  const Graph g = gen::greedy_trap_path(3, 0.1);
  EXPECT_EQ(g.num_vertices(), 12u);
  EXPECT_EQ(g.num_edges(), 9u);
  EXPECT_EQ(num_components(g), 3u);
}

TEST(UnionFind, BasicOperations) {
  UnionFind uf(6);
  EXPECT_EQ(uf.num_components(), 6u);
  EXPECT_TRUE(uf.unite(0, 1));
  EXPECT_TRUE(uf.unite(1, 2));
  EXPECT_FALSE(uf.unite(0, 2));
  EXPECT_TRUE(uf.connected(0, 2));
  EXPECT_FALSE(uf.connected(0, 3));
  EXPECT_EQ(uf.num_components(), 4u);
  EXPECT_EQ(uf.component_size(1), 3u);
}

}  // namespace
}  // namespace dp
