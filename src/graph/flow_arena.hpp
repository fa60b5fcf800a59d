#pragma once
// Arena-backed CSR max-flow network for repeated min-cut computations.
//
// The Gomory-Hu construction (Gusfield variant) runs n-1 max-flows on the
// SAME capacitated graph, and the odd-set separation of Lemma 25 then runs
// several residual rounds on SHRINKING versions of that graph. A throwaway
// linked-list Dinic pays allocation and pointer-chasing costs on every
// flow; this arena builds one contiguous CSR (offset/to/pair/cap arrays)
// once, restores capacities by a single memcpy between flows, and supports
// vertex contraction (disable_vertex + base-capacity edits) so residual
// rounds shrink the network in place instead of rebuilding it.

#include <cstdint>
#include <vector>

namespace dp {

/// One aggregated undirected edge for FlowArena::build (parallel edges
/// must already be summed; see aggregate_parallel_edges).
struct ArenaEdge {
  std::uint32_t u = 0;
  std::uint32_t v = 0;
  std::int64_t cap = 0;
};

/// Sum parallel edges in place: sort by (u, v) and merge equal endpoint
/// pairs (one flat sort-and-merge pass, no node allocations). Endpoints
/// must already satisfy u <= v per entry.
void aggregate_parallel_edges(std::vector<ArenaEdge>& edges);

class FlowArena {
 public:
  using Cap = std::int64_t;

  FlowArena() = default;

  /// Build the CSR from undirected edges: each edge becomes two arcs with
  /// capacity `cap` (one per direction), each serving as the other's
  /// residual. Self-loops are skipped. Reuses buffers across builds.
  void build(std::size_t n, const std::vector<ArenaEdge>& edges);

  std::size_t num_vertices() const noexcept { return n_; }
  std::size_t num_edges() const noexcept { return m_; }

  /// Number of max_flow invocations ever run (the max_flows counter of
  /// odd-set separation).
  std::size_t flows_run() const noexcept { return flows_run_; }

  /// Replace the rest-state capacity of BOTH directions of edge i (index
  /// into the build() edge list). Takes effect at the next max_flow.
  void set_edge_base_cap(std::size_t i, Cap cap);

  /// Rest-state capacity of edge i (u->v direction).
  Cap edge_base_cap(std::size_t i) const {
    return base_cap_[edge_arc_[i]];
  }

  /// Zero the rest-state capacity of every arc incident to v (both
  /// directions), isolating it from all future flows. The contraction
  /// primitive for residual odd-set rounds.
  void disable_vertex(std::uint32_t v);

  /// Max flow s->t (Dinic) from the rest-state capacities. The restore is
  /// incremental: only arcs dirtied by the PREVIOUS flow are reset, so a
  /// small flow on a big arena costs O(touched), not O(arcs).
  Cap max_flow(std::uint32_t s, std::uint32_t t);

  /// After max_flow: the s-side of a minimum cut (vertices reachable from
  /// s in the residual graph), written into `side` (resized to n).
  /// Non-const: reuses the arena's BFS scratch.
  void min_cut_side(std::uint32_t s, std::vector<char>& side);

 private:
  bool bfs(std::uint32_t s, std::uint32_t t);
  Cap dfs(std::uint32_t u, std::uint32_t t, Cap limit);

  std::size_t n_ = 0;
  std::size_t m_ = 0;
  std::vector<std::uint32_t> off_;       // n+1 CSR offsets
  std::vector<std::uint32_t> to_;        // 2m arc heads
  std::vector<std::uint32_t> pair_;      // 2m paired (residual) arc index
  std::vector<Cap> cap_;                 // 2m working capacities
  std::vector<Cap> base_cap_;            // 2m rest-state capacities
  std::vector<std::uint32_t> edge_arc_;  // m: edge i -> u->v arc index
  // Reusable flow scratch.
  std::vector<int> level_;
  std::vector<std::uint32_t> iter_;
  std::vector<std::uint32_t> queue_;
  std::vector<std::uint32_t> dirty_;  // arcs touched by the last flow
  std::size_t flows_run_ = 0;
};

}  // namespace dp
