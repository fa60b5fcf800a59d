#include "matching/matching.hpp"

#include <algorithm>

namespace dp {

double Matching::weight(const Graph& g) const {
  double s = 0;
  for (EdgeId e : edges_) s += g.edge(e).w;
  return s;
}

bool Matching::is_valid(const Graph& g) const {
  std::vector<char> used(g.num_vertices(), 0);
  for (EdgeId e : edges_) {
    if (e >= g.num_edges()) return false;
    const Edge& edge = g.edge(e);
    if (used[edge.u] || used[edge.v]) return false;
    used[edge.u] = used[edge.v] = 1;
  }
  return true;
}

std::vector<Vertex> Matching::mates(const Graph& g) const {
  std::vector<Vertex> mate(g.num_vertices(), kUnmatched);
  for (EdgeId e : edges_) {
    mate[g.edge(e).u] = g.edge(e).v;
    mate[g.edge(e).v] = g.edge(e).u;
  }
  return mate;
}

double BMatching::weight(const Graph& g) const {
  double s = 0;
  for (EdgeId e = 0; e < mult_.size(); ++e) {
    if (mult_[e] > 0) s += static_cast<double>(mult_[e]) * g.edge(e).w;
  }
  return s;
}

bool BMatching::is_valid(const Graph& g, const Capacities& b) const {
  if (mult_.size() != g.num_edges()) return false;
  for (std::int64_t y : mult_) {
    if (y < 0) return false;
  }
  const std::vector<std::int64_t> deg = degrees(g);
  for (std::size_t v = 0; v < g.num_vertices(); ++v) {
    if (deg[v] > b[static_cast<Vertex>(v)]) return false;
  }
  return true;
}

std::vector<std::int64_t> BMatching::degrees(const Graph& g) const {
  std::vector<std::int64_t> deg(g.num_vertices(), 0);
  for (EdgeId e = 0; e < mult_.size(); ++e) {
    if (mult_[e] > 0) {
      deg[g.edge(e).u] += mult_[e];
      deg[g.edge(e).v] += mult_[e];
    }
  }
  return deg;
}

std::size_t BMatching::support() const {
  return static_cast<std::size_t>(
      std::count_if(mult_.begin(), mult_.end(),
                    [](std::int64_t y) { return y > 0; }));
}

}  // namespace dp
