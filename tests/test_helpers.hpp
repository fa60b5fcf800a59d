#pragma once
// Shared helpers for the test suite: small random graph factories and
// brute-force references.

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "dynamic/delta.hpp"
#include "graph/generators.hpp"
#include "graph/graph.hpp"
#include "matching/exact_small.hpp"
#include "util/rng.hpp"

namespace dp::test {

/// Random graph with n <= 24 vertices, random weights in [1, 10].
inline Graph small_random_graph(std::size_t n, double density,
                                std::uint64_t seed) {
  Rng rng(seed);
  Graph g(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      if (rng.uniform_real() < density) {
        g.add_edge(static_cast<Vertex>(i), static_cast<Vertex>(j),
                   1.0 + 9.0 * rng.uniform_real());
      }
    }
  }
  return g;
}

/// Random graph with integer weights in [1, max_w] (exact blossom is exact
/// on these).
inline Graph small_random_int_graph(std::size_t n, double density,
                                    std::int64_t max_w, std::uint64_t seed) {
  Rng rng(seed);
  Graph g(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      if (rng.uniform_real() < density) {
        g.add_edge(static_cast<Vertex>(i), static_cast<Vertex>(j),
                   static_cast<double>(rng.uniform_int(1, max_w)));
      }
    }
  }
  return g;
}

/// g's edges in canonical key order (dyn::edge_key): how DynamicGraph
/// numbers every generation after 0.
inline Graph key_sorted(const Graph& g) {
  std::vector<Edge> edges = g.edges();
  std::sort(edges.begin(), edges.end(), [](const Edge& a, const Edge& b) {
    return dyn::edge_key(a.u, a.v) < dyn::edge_key(b.u, b.v);
  });
  return Graph(g.num_vertices(), std::move(edges));
}

/// The post-delta ids of a normalized delta's inserts, by brute force:
/// insert by insert in key order, ids ascending within one (what
/// dyn::delta_ids must list as `inserted`).
inline std::vector<EdgeId> inserted_ids(const Graph& post,
                                        const dyn::NormalizedDelta& delta) {
  std::vector<EdgeId> ids;
  for (const dyn::EdgeInsert& ins : delta.inserts) {
    for (EdgeId e = 0; e < post.num_edges(); ++e) {
      if (dyn::edge_key(post.edge(e).u, post.edge(e).v) ==
          dyn::edge_key(ins.u, ins.v)) {
        ids.push_back(e);
      }
    }
  }
  return ids;
}

/// Ground-truth maximum matching weight via bitmask DP (n <= 24).
inline double opt_weight(const Graph& g) {
  return exact_matching_weight_small(g);
}

}  // namespace dp::test
