#pragma once
// Gomory-Hu tree (Gusfield's simplification): n-1 max-flow computations
// produce a tree whose path-minimum edge equals the s-t min cut for every
// vertex pair. The odd-set separation of Lemma 24/25 enumerates tree edges
// to find all low-capacity odd cuts (Padberg-Rao).
//
// Construction runs on a FlowArena (contiguous CSR, capacity restore
// between the n-1 flows, no per-flow allocation); finalize() precomputes
// depths and a children CSR so min_cut is a pure path walk and cut_side
// does no per-call allocation.

#include <cstdint>
#include <vector>

#include "graph/flow_arena.hpp"
#include "graph/graph.hpp"

namespace dp {

struct GomoryHuTree {
  /// parent[v] for v != root; parent[root] == root. Vertices excluded from
  /// construction (see gomory_hu_from_arena's `alive` mask) are their own
  /// parent with cut 0.
  std::vector<std::uint32_t> parent;
  /// cut_value[v] = min-cut between v and parent[v].
  std::vector<std::int64_t> cut_value;
  /// Tree root (0 for the full-graph builder).
  std::uint32_t root = 0;
  /// Precomputed by finalize(): depth[v] = tree distance to v's root, and
  /// a children CSR (child ids of v are child_list[child_off[v]..[v+1])).
  std::vector<std::int32_t> depth;
  std::vector<std::uint32_t> child_off;
  std::vector<std::uint32_t> child_list;

  std::size_t size() const noexcept { return parent.size(); }

  /// Build depth and the children CSR from `parent`. Called by the
  /// builders; required before min_cut / cut_side.
  void finalize();

  /// Min s-t cut value via the path minimum in the tree: a pure walk on
  /// the precomputed depths, no allocation. Returns 0 across components.
  std::int64_t min_cut(std::uint32_t s, std::uint32_t t) const;

  /// The side of the (v, parent[v]) fundamental cut containing v:
  /// exactly the vertices whose tree path to the root passes through v.
  /// Appends to `out` (cleared first); no per-call allocation beyond the
  /// caller's buffer.
  void cut_side_into(std::uint32_t v, std::vector<std::uint32_t>& out) const;

  /// Allocating convenience wrapper around cut_side_into.
  std::vector<std::uint32_t> cut_side(std::uint32_t v) const;
};

/// Build the Gomory-Hu tree of an undirected graph with integer edge
/// capacities. `cap[e]` is the capacity of graph edge e (parallel edges are
/// summed by a sort-and-merge pass — no node allocations). Isolated
/// vertices get cut 0 to the root.
GomoryHuTree gomory_hu(std::size_t n,
                       const std::vector<Edge>& edges,
                       const std::vector<std::int64_t>& cap);

/// Gusfield on a prebuilt arena (capacities restored between flows). If
/// `alive` is non-null only vertices with alive[v] != 0 participate — the
/// root is the first alive vertex and every excluded vertex becomes a
/// self-rooted singleton with cut 0. This is the residual-round entry
/// point for odd-set separation: each round disables the vertices it
/// contracted, adjusts base capacities, and runs one full Gusfield build
/// on the live vertices without reconstructing the network.
GomoryHuTree gomory_hu_from_arena(FlowArena& net,
                                  const std::vector<char>* alive = nullptr);

/// As above, but rebuilding into an existing tree so its buffers are
/// reused across residual rounds.
void gomory_hu_from_arena(FlowArena& net, const std::vector<char>* alive,
                          GomoryHuTree& tree);

}  // namespace dp
