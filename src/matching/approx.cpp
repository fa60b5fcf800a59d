#include "matching/approx.hpp"

#include <utility>

#include "matching/blossom_weighted.hpp"
#include "matching/greedy.hpp"
#include "util/rng.hpp"

namespace dp {

namespace {

/// Mutable matching state: per-vertex matched edge id.
struct MatchState {
  const Graph& g;
  std::vector<EdgeId> at;  // matched edge at vertex or kNoEdge
  double weight = 0;

  explicit MatchState(const Graph& graph)
      : g(graph), at(graph.num_vertices(), kNoEdge) {}

  void init_from(const Matching& m) {
    for (EdgeId e : m.edges()) {
      at[g.edge(e).u] = e;
      at[g.edge(e).v] = e;
      weight += g.edge(e).w;
    }
  }

  bool uses(EdgeId e) const {
    return at[g.edge(e).u] == e;  // both endpoints agree by construction
  }

  void remove(EdgeId e) {
    at[g.edge(e).u] = kNoEdge;
    at[g.edge(e).v] = kNoEdge;
    weight -= g.edge(e).w;
  }

  void insert(EdgeId e) {
    at[g.edge(e).u] = e;
    at[g.edge(e).v] = e;
    weight += g.edge(e).w;
  }

  Matching to_matching() const {
    Matching m;
    for (std::size_t v = 0; v < at.size(); ++v) {
      const EdgeId e = at[v];
      if (e != kNoEdge && g.edge(e).u == static_cast<Vertex>(v)) m.add(e);
    }
    return m;
  }
};

/// One-for-two swap: insert e, evicting the (up to two) conflicting matched
/// edges, when that strictly increases the weight.
bool try_swap_in(MatchState& state, EdgeId e) {
  const Edge& edge = state.g.edge(e);
  const EdgeId cu = state.at[edge.u];
  const EdgeId cv = state.at[edge.v];
  if (cu == e || cv == e) return false;
  double cost = 0;
  if (cu != kNoEdge) cost += state.g.edge(cu).w;
  if (cv != kNoEdge && cv != cu) cost += state.g.edge(cv).w;
  if (edge.w <= cost + 1e-12) return false;
  if (cu != kNoEdge) state.remove(cu);
  if (cv != kNoEdge && cv != cu) state.remove(cv);
  state.insert(e);
  return true;
}

/// Two-for-one augmentation around a matched edge e=(u,v): find the best
/// pair of edges (u,a), (v,b), a != b, with a and b currently free, whose
/// combined weight beats w(e).
bool try_two_for_one(MatchState& state, EdgeId e) {
  const Edge& edge = state.g.edge(e);
  if (!state.uses(e)) return false;

  auto best_free = [&](Vertex x, Vertex exclude) {
    EdgeId best = kNoEdge;
    double best_w = 0;
    for (const auto& inc : state.g.neighbors(x)) {
      if (inc.edge == e) continue;
      const Vertex other = inc.neighbor;
      if (other == exclude) continue;
      if (state.at[other] != kNoEdge) continue;
      if (state.g.edge(inc.edge).w > best_w) {
        best_w = state.g.edge(inc.edge).w;
        best = inc.edge;
      }
    }
    return std::pair<EdgeId, double>(best, best_w);
  };

  auto [eu, wu] = best_free(edge.u, edge.v);
  auto [ev, wv] = best_free(edge.v, edge.u);
  // The two replacement edges must not share the free endpoint; keep the
  // heavier side if they collide.
  if (eu != kNoEdge && ev != kNoEdge) {
    const Edge& a = state.g.edge(eu);
    const Edge& b = state.g.edge(ev);
    const Vertex fa = a.u == edge.u ? a.v : a.u;
    const Vertex fb = b.u == edge.v ? b.v : b.u;
    if (fa == fb) {
      if (wu >= wv) {
        ev = kNoEdge;
        wv = 0;
      } else {
        eu = kNoEdge;
        wu = 0;
      }
    }
  }
  const double gain = wu + wv;
  if (gain <= edge.w + 1e-12) return false;

  state.remove(e);
  if (eu != kNoEdge) state.insert(eu);
  if (ev != kNoEdge && ev != eu) state.insert(ev);
  return true;
}

/// Add any edge whose endpoints are both free (restores maximality after
/// swaps).
bool add_free_edges(MatchState& state,
                    const std::vector<EdgeId>& order) {
  bool changed = false;
  for (EdgeId e : order) {
    const Edge& edge = state.g.edge(e);
    if (state.at[edge.u] == kNoEdge && state.at[edge.v] == kNoEdge &&
        edge.w > 0) {
      state.insert(e);
      changed = true;
    }
  }
  return changed;
}

}  // namespace

Matching local_search_matching(const Graph& g, std::vector<EdgeId> order,
                               std::size_t max_rounds, std::uint64_t seed) {
  // One weight order serves both the greedy start and the sweep order.
  MatchState state(g);
  state.init_from(greedy_matching_in_order(g, order));
  Rng rng(seed);

  for (std::size_t round = 0; round < max_rounds; ++round) {
    bool changed = false;
    for (EdgeId e : order) {
      if (try_swap_in(state, e)) changed = true;
    }
    // Matched edge ids snapshot (state mutates during iteration).
    std::vector<EdgeId> matched;
    for (std::size_t v = 0; v < g.num_vertices(); ++v) {
      const EdgeId e = state.at[v];
      if (e != kNoEdge && g.edge(e).u == static_cast<Vertex>(v)) {
        matched.push_back(e);
      }
    }
    for (EdgeId e : matched) {
      if (try_two_for_one(state, e)) changed = true;
    }
    if (add_free_edges(state, order)) changed = true;
    if (!changed) break;
    // Randomize sweep order a little to escape cyclic patterns.
    if (round % 4 == 3) rng.shuffle(order);
  }
  return state.to_matching();
}

Matching local_search_matching(const Graph& g, std::size_t max_rounds,
                               std::uint64_t seed) {
  return local_search_matching(g, edges_by_weight_desc(g), max_rounds, seed);
}

bool approx_dispatches_exact(const Graph& g, const ApproxOptions& opts) {
  return opts.exact_threshold > 0 && g.num_vertices() <= opts.exact_threshold;
}

Matching approx_weighted_matching(const Graph& g, const ApproxOptions& opts) {
  if (approx_dispatches_exact(g, opts)) return max_weight_matching(g);
  return local_search_matching(g, opts.max_rounds, opts.seed);
}

Matching approx_weighted_matching(const Graph& g) {
  return approx_weighted_matching(g, ApproxOptions{});
}

BMatching approx_weighted_b_matching(const Graph& g, const Capacities& b,
                                     std::size_t max_rounds) {
  return approx_weighted_b_matching(g, b, edges_by_weight_desc(g), max_rounds);
}

BMatching approx_weighted_b_matching(const Graph& g, const Capacities& b,
                                     const std::vector<EdgeId>& order,
                                     std::size_t max_rounds) {
  BMatching bm = greedy_b_matching_in_order(g, b, order);
  std::vector<std::int64_t> residual(g.num_vertices());
  for (std::size_t v = 0; v < g.num_vertices(); ++v) {
    residual[v] = b[static_cast<Vertex>(v)];
  }
  const std::vector<std::int64_t> deg = bm.degrees(g);
  for (std::size_t v = 0; v < g.num_vertices(); ++v) {
    residual[v] -= deg[v];
  }

  // Unit-transfer local search: move one unit from a lighter incident edge
  // to a heavier one while capacities allow.
  g.build_adjacency();
  auto lightest_used_at = [&](Vertex v, EdgeId exclude) {
    EdgeId best = kNoEdge;
    double best_w = 1e300;
    for (const auto& inc : g.neighbors(v)) {
      if (inc.edge == exclude) continue;
      if (bm.multiplicity(inc.edge) > 0 && g.edge(inc.edge).w < best_w) {
        best_w = g.edge(inc.edge).w;
        best = inc.edge;
      }
    }
    return best;
  };

  for (std::size_t round = 0; round < max_rounds; ++round) {
    bool changed = false;
    for (EdgeId e : order) {
      const Edge& edge = g.edge(e);
      for (;;) {
        std::int64_t ru = residual[edge.u];
        std::int64_t rv = residual[edge.v];
        EdgeId du = kNoEdge, dv = kNoEdge;
        double cost = 0;
        if (ru == 0) {
          du = lightest_used_at(edge.u, e);
          if (du == kNoEdge) break;
          cost += g.edge(du).w;
        }
        if (rv == 0) {
          dv = lightest_used_at(edge.v, e);
          if (dv == kNoEdge) break;
          if (dv == du) break;  // same edge can't free both endpoints
          cost += g.edge(dv).w;
        }
        if (edge.w <= cost + 1e-12) break;
        if (du != kNoEdge) {
          bm.add(du, -1);
          residual[g.edge(du).u] += 1;
          residual[g.edge(du).v] += 1;
        }
        if (dv != kNoEdge) {
          bm.add(dv, -1);
          residual[g.edge(dv).u] += 1;
          residual[g.edge(dv).v] += 1;
        }
        bm.add(e, 1);
        residual[edge.u] -= 1;
        residual[edge.v] -= 1;
        changed = true;
      }
    }
    if (!changed) break;
  }
  return bm;
}

}  // namespace dp
