#pragma once
// Matching value types shared by all solvers.

#include <cstdint>
#include <vector>

#include "graph/graph.hpp"

namespace dp {

/// An integral matching: a set of edge ids, pairwise vertex-disjoint.
class Matching {
 public:
  Matching() = default;
  explicit Matching(std::vector<EdgeId> edges) : edges_(std::move(edges)) {}

  const std::vector<EdgeId>& edges() const noexcept { return edges_; }
  std::size_t size() const noexcept { return edges_.size(); }
  bool empty() const noexcept { return edges_.empty(); }
  void add(EdgeId e) { edges_.push_back(e); }

  /// Total weight under g (edge ids must refer to g).
  double weight(const Graph& g) const;

  /// True iff no two edges share a vertex and all ids are in range.
  bool is_valid(const Graph& g) const;

  /// mate[v] = matched neighbour of v, or kUnmatched.
  static constexpr Vertex kUnmatched = ~Vertex{0};
  std::vector<Vertex> mates(const Graph& g) const;

 private:
  std::vector<EdgeId> edges_;
};

/// An integral b-matching: per-edge multiplicities y_e >= 0 with
/// sum_{e at v} y_e <= b_v. (Uncapacitated: an edge may be used up to
/// min(b_u, b_v) times, as in Lemma 20 of the paper.)
class BMatching {
 public:
  BMatching() = default;
  explicit BMatching(std::size_t num_edges) : mult_(num_edges, 0) {}

  std::int64_t multiplicity(EdgeId e) const noexcept { return mult_[e]; }
  void set_multiplicity(EdgeId e, std::int64_t y) { mult_[e] = y; }
  void add(EdgeId e, std::int64_t y = 1) { mult_[e] += y; }
  std::size_t num_edges() const noexcept { return mult_.size(); }

  double weight(const Graph& g) const;

  /// True iff every vertex degree (with multiplicity) is within b.
  bool is_valid(const Graph& g, const Capacities& b) const;

  /// deg[v] = sum of multiplicities at v.
  std::vector<std::int64_t> degrees(const Graph& g) const;

  /// Support size: number of edges with positive multiplicity.
  std::size_t support() const;

 private:
  std::vector<std::int64_t> mult_;
};

}  // namespace dp
