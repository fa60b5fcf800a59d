#pragma once
// The dual iterate of the layered penalty LP (LP5/LP10): per-vertex,
// per-level costs x_i(k), per-vertex maxima x_i, and odd-set variables
// z_{U,l}. The fractional covering loop of Theorem 5 maintains this state as
// a running convex combination of MicroOracle outputs; a global scale factor
// makes each blend O(|new support|) instead of O(|total support|).
//
// Covering rows (one per retained edge (i,j) at level k):
//   x_i(k) + x_j(k) + sum_{l <= k} sum_{U in Os: i,j in U} z_{U,l} >= wHat_k
// Outer packing rows (one per (i,k) with edges at that level):
//   2 x_i(k) + sum_{l <= k} sum_{U in Os: i in U} z_{U,l} <= 3 wHat_k
// Dual objective (upper-bounds the matching weight once rows are covered):
//   sum_i b_i x_i + sum_{U,l} floor(||U||_b / 2) z_{U,l}.

#include <cstdint>
#include <utility>
#include <vector>

#include "core/flat_duals.hpp"
#include "core/weight_levels.hpp"
#include "graph/graph.hpp"

namespace dp {
class ThreadPool;
}

namespace dp::core {

/// One odd-set dual variable z_{U, level} = value (raw; effective value is
/// raw * state scale).
struct OddSetVar {
  int level = 0;
  std::vector<Vertex> members;  // sorted
  double value = 0.0;           // raw value
};

/// The raw dual iterate exactly as DualState holds it: what a round
/// checkpoint and a warm-start handle carry, and DualState::restore
/// rebuilds. xi is stored, not derived from xik: it accumulates per-blend
/// run maxima, an FP-order-sensitive sum.
struct DualSnapshot {
  double scale = 1.0;
  std::vector<std::pair<std::uint64_t, double>> xik;  // activation order
  std::vector<double> xi;                             // dense, n entries
  std::vector<OddSetVar> odd_sets;                    // stored order

  /// Whether every index lands inside an instance with n vertices and
  /// `levels` levels: n xi entries, xik keys below n * levels, odd-set
  /// members below n. restore's dense writes rely on it.
  bool fits(std::size_t n, int levels) const noexcept;
};

/// A sparse dual point as produced by one MicroOracle call (unscaled).
struct DualPoint {
  /// (i, k) -> x_i(k); keys are i * num_levels + k, sorted ascending (so
  /// entries are grouped by vertex with levels ascending inside a group).
  SparseDuals xik;
  std::vector<OddSetVar> odd_sets;
};

class DualState {
 public:
  DualState(std::size_t n, int num_levels);

  std::size_t num_vertices() const noexcept { return n_; }
  int num_levels() const noexcept { return levels_; }

  /// Effective x_i(k). O(1) read of the dense buffer.
  double x(Vertex i, int k) const noexcept {
    return xik_.get(static_cast<std::uint64_t>(i) * levels_ + k) * scale_;
  }

  /// Effective x_i = max_k x_i(k).
  double x_max(Vertex i) const noexcept { return xi_[i] * scale_; }

  /// Covering row value for edge (i, j) at level k (see file comment).
  double cover_row(Vertex i, Vertex j, int k) const {
    return add_set_terms(x(i, k) + x(j, k), i, k, j);
  }

  /// Outer packing row for (i, k): 2 x_i(k) + z-sum over sets containing i.
  double po_row(Vertex i, int k) const {
    return add_set_terms(2.0 * x(i, k), i, k);
  }

  /// `add_set_terms` partner meaning "every set of i counts".
  static constexpr Vertex kAnyPartner = ~Vertex{0};

  /// Continues a row sum past its x part with the odd-set terms: adds the
  /// effective z_{U,l}, l <= k, of each set U holding i, in i's membership
  /// order, keeping only sets that also hold `j` unless j is kAnyPartner.
  /// cover_row and po_row are this applied to their x part, so a caller
  /// that caches x values rounds exactly as they do.
  double add_set_terms(double row, Vertex i, int k,
                       Vertex j = kAnyPartner) const {
    return sets_at_[i].empty() ? row : add_set_terms_at(row, i, k, j);
  }

  /// Dual objective sum b_i x_i + sum floor(||U||_b/2) z_{U,l}.
  double objective(const Capacities& b) const;

  /// lambda = min over retained edges of cover_row / wHat_level. Returns 0
  /// for an empty edge set. With a pool, the sweep runs on fixed-grain
  /// chunks with per-chunk minima reduced in chunk order — min is exact,
  /// so the result is bitwise identical for any thread count (the same
  /// parallel-determinism contract as the oracle sweeps).
  double lambda(const LevelGraph& lg, ThreadPool* pool = nullptr,
                std::size_t grain = 4096) const;

  /// Blend in an oracle output: state <- (1 - sigma) * state + sigma * p.
  void blend(const DualPoint& p, double sigma);

  /// Feasibility repair for the dynamic re-solve: if cover_row(i, j, k) is
  /// below `target` (= wHat_k for an inserted edge), raise x_i(k) and
  /// x_j(k) by equal halves of the deficit so the row reaches the target.
  /// Only the two endpoint duals move — the deterministic "raise only what
  /// the delta touched" pass of the warm-start recipe. Returns true iff a
  /// raise happened.
  bool raise_cover(Vertex i, Vertex j, int k, double target);

  /// Replace the state with a fresh point (used for the initial solution).
  void assign(const DualPoint& p);

  /// The raw iterate, xik in activation order.
  DualSnapshot snapshot() const;

  /// Rebuild the exact state a snapshot captured: xik entries are applied
  /// in activation order, sets in stored order, and the membership/dedup
  /// indexes are replayed exactly as add_odd_set built them (first id wins
  /// on a hash collision) — so a resumed solve is bitwise identical to an
  /// uninterrupted one. The snapshot must fit this state's n and levels.
  void restore(const DualSnapshot& from);

  /// Number of distinct odd-set variables currently in the support.
  std::size_t odd_set_support() const noexcept { return sets_.size(); }

  /// Effective z value of stored set s (for inspection/tests).
  const std::vector<OddSetVar>& odd_sets() const noexcept { return sets_; }
  double odd_set_value(std::size_t s) const noexcept {
    return sets_[s].value * scale_;
  }

 private:
  void add_odd_set(const OddSetVar& var, double factor);
  double add_set_terms_at(double row, Vertex i, int k, Vertex j) const;

  std::size_t n_;
  int levels_;
  double scale_ = 1.0;
  FlatDuals xik_;           // raw, dense n*L with active-key list
  std::vector<double> xi_;  // raw max per vertex
  std::vector<OddSetVar> sets_;                      // raw values
  std::vector<std::vector<std::uint32_t>> sets_at_;  // vertex -> set ids
  /// Dedup index: (content hash, set id), sorted by hash.
  std::vector<std::pair<std::uint64_t, std::uint32_t>> set_index_;
};

}  // namespace dp::core
