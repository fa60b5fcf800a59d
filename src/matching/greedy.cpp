#include "matching/greedy.hpp"

#include <algorithm>
#include <numeric>

namespace dp {

std::vector<EdgeId> edges_by_weight_desc(const Graph& g) {
  std::vector<EdgeId> order(g.num_edges());
  std::iota(order.begin(), order.end(), EdgeId{0});
  std::stable_sort(order.begin(), order.end(), [&](EdgeId a, EdgeId b) {
    return g.edge(a).w > g.edge(b).w;
  });
  return order;
}

Matching greedy_matching(const Graph& g) {
  return greedy_matching_in_order(g, edges_by_weight_desc(g));
}

Matching greedy_matching_in_order(const Graph& g,
                                  const std::vector<EdgeId>& order) {
  std::vector<char> used(g.num_vertices(), 0);
  Matching m;
  for (EdgeId e : order) {
    const Edge& edge = g.edge(e);
    if (!used[edge.u] && !used[edge.v]) {
      used[edge.u] = used[edge.v] = 1;
      m.add(e);
    }
  }
  return m;
}

Matching maximal_matching(const Graph& g) {
  std::vector<char> used(g.num_vertices(), 0);
  Matching m;
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    const Edge& edge = g.edge(e);
    if (!used[edge.u] && !used[edge.v]) {
      used[edge.u] = used[edge.v] = 1;
      m.add(e);
    }
  }
  return m;
}

void extend_maximal_matching(const Graph& g,
                             const std::vector<EdgeId>& candidates,
                             std::vector<Vertex>& mate, Matching& m) {
  for (EdgeId e : candidates) {
    const Edge& edge = g.edge(e);
    if (mate[edge.u] == Matching::kUnmatched &&
        mate[edge.v] == Matching::kUnmatched) {
      mate[edge.u] = edge.v;
      mate[edge.v] = edge.u;
      m.add(e);
    }
  }
}

BMatching greedy_b_matching_in_order(const Graph& g, const Capacities& b,
                                     const std::vector<EdgeId>& order) {
  std::vector<std::int64_t> residual(g.num_vertices());
  for (std::size_t v = 0; v < g.num_vertices(); ++v) {
    residual[v] = b[static_cast<Vertex>(v)];
  }
  BMatching bm(g.num_edges());
  for (EdgeId e : order) {
    const Edge& edge = g.edge(e);
    const std::int64_t y = std::min(residual[edge.u], residual[edge.v]);
    if (y > 0) {
      bm.set_multiplicity(e, y);
      residual[edge.u] -= y;
      residual[edge.v] -= y;
    }
  }
  return bm;
}

BMatching greedy_b_matching(const Graph& g, const Capacities& b) {
  return greedy_b_matching_in_order(g, b, edges_by_weight_desc(g));
}

BMatching maximal_b_matching(const Graph& g, const Capacities& b) {
  std::vector<EdgeId> order(g.num_edges());
  std::iota(order.begin(), order.end(), EdgeId{0});
  return greedy_b_matching_in_order(g, b, order);
}

}  // namespace dp
