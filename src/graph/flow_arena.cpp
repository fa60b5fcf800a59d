#include "graph/flow_arena.hpp"

#include <algorithm>
#include <cstring>
#include <limits>

namespace dp {

void aggregate_parallel_edges(std::vector<ArenaEdge>& edges) {
  std::sort(edges.begin(), edges.end(),
            [](const ArenaEdge& a, const ArenaEdge& b) {
              return a.u != b.u ? a.u < b.u : a.v < b.v;
            });
  std::size_t out = 0;
  for (std::size_t e = 0; e < edges.size(); ++e) {
    if (out > 0 && edges[out - 1].u == edges[e].u &&
        edges[out - 1].v == edges[e].v) {
      edges[out - 1].cap += edges[e].cap;
    } else {
      edges[out++] = edges[e];
    }
  }
  edges.resize(out);
}

void FlowArena::build(std::size_t n, const std::vector<ArenaEdge>& edges) {
  n_ = n;
  m_ = 0;
  off_.assign(n + 1, 0);
  edge_arc_.assign(edges.size(), 0);
  for (const ArenaEdge& e : edges) {
    if (e.u == e.v) continue;
    ++off_[e.u + 1];
    ++off_[e.v + 1];
    ++m_;
  }
  for (std::size_t v = 0; v < n; ++v) off_[v + 1] += off_[v];
  const std::size_t arcs = 2 * m_;
  to_.resize(arcs);
  pair_.resize(arcs);
  base_cap_.resize(arcs);
  // Placement cursors start at the CSR offsets and advance per arc.
  std::vector<std::uint32_t> cursor(off_.begin(), off_.end() - 1);
  for (std::size_t i = 0; i < edges.size(); ++i) {
    const ArenaEdge& e = edges[i];
    if (e.u == e.v) continue;
    const std::uint32_t a = cursor[e.u]++;
    const std::uint32_t b = cursor[e.v]++;
    to_[a] = e.v;
    to_[b] = e.u;
    pair_[a] = b;
    pair_[b] = a;
    base_cap_[a] = e.cap;
    base_cap_[b] = e.cap;
    edge_arc_[i] = a;
  }
  cap_ = base_cap_;
  dirty_.clear();
  level_.resize(n);
  iter_.resize(n);
  queue_.resize(n);
}

void FlowArena::set_edge_base_cap(std::size_t i, Cap cap) {
  const std::uint32_t a = edge_arc_[i];
  base_cap_[a] = cap;
  base_cap_[pair_[a]] = cap;
  cap_[a] = cap;
  cap_[pair_[a]] = cap;
}

void FlowArena::disable_vertex(std::uint32_t v) {
  for (std::uint32_t a = off_[v]; a < off_[v + 1]; ++a) {
    base_cap_[a] = 0;
    base_cap_[pair_[a]] = 0;
    cap_[a] = 0;
    cap_[pair_[a]] = 0;
  }
}

bool FlowArena::bfs(std::uint32_t s, std::uint32_t t) {
  std::fill(level_.begin(), level_.end(), -1);
  std::size_t head = 0;
  std::size_t tail = 0;
  level_[s] = 0;
  queue_[tail++] = s;
  while (head < tail) {
    const std::uint32_t u = queue_[head++];
    for (std::uint32_t a = off_[u]; a < off_[u + 1]; ++a) {
      const std::uint32_t w = to_[a];
      if (cap_[a] > 0 && level_[w] < 0) {
        level_[w] = level_[u] + 1;
        // Early exit once t is labeled: every interior vertex of a
        // shortest augmenting path has a smaller level and is already
        // labeled, so the rest of this BFS cannot matter.
        if (w == t) return true;
        queue_[tail++] = w;
      }
    }
  }
  return level_[t] >= 0;
}

FlowArena::Cap FlowArena::dfs(std::uint32_t u, std::uint32_t t, Cap limit) {
  if (u == t) return limit;
  Cap pushed = 0;
  for (std::uint32_t& a = iter_[u]; a < off_[u + 1]; ++a) {
    const std::uint32_t w = to_[a];
    if (cap_[a] <= 0 || level_[w] != level_[u] + 1) continue;
    const Cap f = dfs(w, t, std::min(limit - pushed, cap_[a]));
    if (f > 0) {
      cap_[a] -= f;
      cap_[pair_[a]] += f;
      dirty_.push_back(a);
      dirty_.push_back(pair_[a]);
      pushed += f;
      if (pushed == limit) return pushed;
    }
  }
  level_[u] = -1;  // dead end
  return pushed;
}

FlowArena::Cap FlowArena::max_flow(std::uint32_t s, std::uint32_t t) {
  ++flows_run_;
  // Capacity restore, no reallocation: replay only the arcs the previous
  // flow dirtied, making the arena cheap to reuse across the n-1 Gusfield
  // flows and the residual rounds even when individual flows are small.
  for (const std::uint32_t a : dirty_) cap_[a] = base_cap_[a];
  dirty_.clear();
  Cap flow = 0;
  while (bfs(s, t)) {
    std::copy(off_.begin(), off_.end() - 1, iter_.begin());
    Cap f;
    while ((f = dfs(s, t, std::numeric_limits<Cap>::max())) > 0) {
      flow += f;
    }
  }
  return flow;
}

void FlowArena::min_cut_side(std::uint32_t s, std::vector<char>& side) {
  side.assign(n_, 0);
  std::vector<std::uint32_t>& q = queue_;
  std::size_t head = 0;
  std::size_t tail = 0;
  side[s] = 1;
  q[tail++] = s;
  while (head < tail) {
    const std::uint32_t u = q[head++];
    for (std::uint32_t a = off_[u]; a < off_[u + 1]; ++a) {
      const std::uint32_t w = to_[a];
      if (cap_[a] > 0 && !side[w]) {
        side[w] = 1;
        q[tail++] = w;
      }
    }
  }
}

}  // namespace dp
