#pragma once
// Edge-strength (connectivity) estimation by layered subsampling —
// Algorithm 6 of the paper (after Ahn-Guha-McGregor PODS'12 / Fung et al.
// STOC'11 / Nagamochi-Ibaraki).
//
// Level i holds subsample G_i of G at rate 2^-i (nested: G_i contains G_{i+1}).
// Within each level we greedily pack k spanning forests F_1..F_k; an edge
// whose endpoints remain connected in the LAST forest at level i has >= k
// edge-disjoint-ish connectivity there, certifying strength ~ k * 2^i.
// Sampling each edge with probability ~ rho / strength then preserves all
// cuts within 1 +- xi whp (Benczur-Karger).
//
// estimate_strengths_into is the one entry point; the deferred
// probabilities (sparsify/deferred) call it once per weight class.
// Subsample depths come from a counter-based RNG (pure function of (seed,
// edge index)) and every subsampling level packs its forests as an
// independent job, so the output is bitwise identical for any thread
// count; all buffers live in a caller-owned StrengthScratch so
// steady-state rounds allocate nothing. Level 0 (which holds EVERY edge
// and would otherwise serialize the whole pass) additionally splits into
// vertex-disjoint region jobs: connected components of the input are
// grouped into at most kStrengthRegions balanced buckets, and since forest
// packing never crosses a component boundary, packing each bucket
// independently (in ascending edge order) reproduces the serial placement
// indices exactly — the split depends only on the input, never on the
// thread count.

#include <cstdint>
#include <vector>

#include "graph/graph.hpp"
#include "graph/union_find.hpp"

namespace dp {

class ThreadPool;

namespace detail {

/// Greedy Nagamochi-Ibaraki forest decomposition with nesting: an edge is
/// placed into the first forest whose components its endpoints straddle.
/// Connectivity in forest j certifies >= j edge-disjoint-ish connectivity,
/// so the placement index is a per-edge strength certificate. The forests
/// are nested (connected in F_j implies connected in F_{j-1}), which makes
/// the placement search a binary search. reset() keeps the forest arrays so
/// a scratch-owned packer reuses its allocations across rounds; a kept
/// forest is re-initialised only when insert() activates it again.
class ForestPacker {
 public:
  ForestPacker() = default;
  explicit ForestPacker(std::size_t n) { reset(n); }

  void reset(std::size_t n) {
    n_ = n;
    active_ = 0;
  }

  /// Insert edge (u, v); returns its (1-based) placement index.
  std::size_t insert(std::uint32_t u, std::uint32_t v) {
    // Binary search the first forest where u and v are disconnected.
    std::size_t lo = 0;        // invariant: connected in all < lo
    std::size_t hi = active_;  // disconnected somewhere in [lo, hi]
    while (lo < hi) {
      const std::size_t mid = (lo + hi) / 2;
      if (forests_[mid].connected(u, v)) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    if (lo == active_) {
      if (active_ == forests_.size()) {
        forests_.emplace_back(n_);
      } else {
        forests_[active_].reset(n_);
      }
      ++active_;
    }
    forests_[lo].unite(u, v);
    return lo + 1;
  }

 private:
  std::size_t n_ = 0;
  std::size_t active_ = 0;
  std::vector<UnionFind> forests_;
};

}  // namespace detail

/// Upper bound on vertex-disjoint region jobs for the level-0 forest
/// packing (each region job owns its own ForestPacker whose forests carry
/// n-sized union-find state, so the cap bounds scratch memory; the split
/// never depends on the pool size).
inline constexpr std::size_t kStrengthRegions = 8;

/// Reusable buffers for estimate_strengths_into. One scratch serves any
/// sequence of calls; buffers grow to the high-water mark and stay.
struct StrengthScratch {
  std::vector<std::uint8_t> level_cap;       // per edge: deepest level
  std::vector<std::uint32_t> level_offset;   // CSR offsets, one per level
  std::vector<std::uint32_t> level_members;  // edge ids grouped by level
  std::vector<std::uint32_t> cursor;         // fill cursors, one per level
  std::vector<double> candidate;             // per (level, member) strength
  std::vector<detail::ForestPacker> packers;  // one per region/level job
  // Level-0 region split (vertex-disjoint component buckets).
  UnionFind components;
  std::vector<std::uint32_t> comp_count;      // per root: edge count
  std::vector<std::uint32_t> comp_order;      // roots by first appearance
  std::vector<std::uint8_t> comp_bucket;      // per root: region id
  std::vector<std::uint32_t> region_offset;   // CSR offsets, regions + 1
  std::vector<std::uint32_t> region_members;  // edge ids grouped by region
  std::vector<std::uint32_t> region_cursor;   // fill cursors, one per region
};

/// Deterministic parallel strength estimation into a caller-owned output
/// (resized to edges.size()): strength[e] >= 1 for every edge, larger =
/// better connected. Runs in O(m log m alpha(n)) time. Subsample depths
/// are counter-based draws and the per-level forest packings run as
/// independent jobs on `pool`, so the result depends only on (n, edges,
/// seed) — never on the thread count.
void estimate_strengths_into(std::size_t n, const std::vector<Edge>& edges,
                             std::uint64_t seed,
                             std::vector<double>& strength,
                             StrengthScratch& scratch,
                             ThreadPool* pool = nullptr);

}  // namespace dp
