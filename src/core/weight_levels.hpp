#pragma once
// Weight discretization — Definitions 2 and 3 of the paper.
//
// Edge weights are rescaled by B/W* and rounded down to powers of (1+eps):
// edge (i,j) has level k when (W*/B) wHat_k <= w_ij < (W*/B) wHat_{k+1},
// wHat_k = (1+eps)^k. Edges below W*/B are dropped — their total weight is
// below W* and cannot affect a (1-eps) approximation. The algorithm then
// works entirely on the normalized weights wHat_k; L = O(eps^-1 log B).

#include <vector>

#include "graph/graph.hpp"

namespace dp::core {

class LevelGraph {
 public:
  /// Discretize g's weights. B is taken from the capacities.
  LevelGraph(const Graph& g, const Capacities& b, double eps);

  const Graph& graph() const noexcept { return *g_; }
  double eps() const noexcept { return eps_; }

  /// Number of levels L+1 (levels are 0..L).
  int num_levels() const noexcept { return num_levels_; }

  /// Level of edge e, or -1 if the edge was dropped (w < W*/B).
  int level(EdgeId e) const noexcept { return level_[e]; }

  /// Normalized level weight wHat_k = (1+eps)^k.
  double level_weight(int k) const noexcept { return level_weight_[k]; }

  /// O(1) sum of wHat_l for l in [lo, hi] (inclusive; clamped to the valid
  /// level range) via precomputed prefix sums.
  double level_weight_range(int lo, int hi) const noexcept {
    if (lo < 0) lo = 0;
    if (hi >= num_levels_) hi = num_levels_ - 1;
    if (lo > hi) return 0.0;
    return level_weight_prefix_[hi + 1] - level_weight_prefix_[lo];
  }

  /// Normalized (discretized) weight of edge e; 0 for dropped edges.
  double normalized_weight(EdgeId e) const noexcept {
    return level_[e] < 0 ? 0.0 : level_weight_[level_[e]];
  }

  /// Edge ids at level k.
  const std::vector<EdgeId>& edges_at_level(int k) const noexcept {
    return by_level_[k];
  }

  /// Ids of all retained (non-dropped) edges.
  const std::vector<EdgeId>& retained() const noexcept { return retained_; }

  /// Every edge id of the graph by weight descending, ties in id order
  /// (edges_by_weight_desc): the solve's one weight sort. The greedy
  /// witness scans it as it is, and each offline re-solve filters its
  /// subgraph's order from it (subset_weight_order). Built in the
  /// constructor and never written after, so the offline job reads it
  /// from a pool thread with no lock.
  const std::vector<EdgeId>& weight_order() const noexcept {
    return weight_order_;
  }

  /// The scale factor W*/B: original_weight ~ scale * wHat_level.
  double scale() const noexcept { return scale_; }

  /// Maximum original weight W*.
  double w_star() const noexcept { return w_star_; }

 private:
  const Graph* g_;
  double eps_;
  double w_star_;
  double scale_;
  int num_levels_;
  std::vector<int> level_;
  std::vector<double> level_weight_;
  std::vector<double> level_weight_prefix_;  // size num_levels_ + 1
  std::vector<std::vector<EdgeId>> by_level_;
  std::vector<EdgeId> retained_;
  std::vector<EdgeId> weight_order_;
};

}  // namespace dp::core
