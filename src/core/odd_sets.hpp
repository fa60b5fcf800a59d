#pragma once
// Dense odd-set separation — Lemmas 16, 24 and 25 of the paper.
//
// Given non-negative edge values q_ij and vertex values qHat_i with
// sum_j q_ij <= qHat_i, find a maximal collection of MUTUALLY DISJOINT odd
// sets U (||U||_b odd, 3 <= |U|, ||U||_b <= 4/eps) whose internal q-mass is
// large:  sum_{(i,j) in U} q_ij >= (sum_{i in U} qHat_i - 1) / 2.
//
// Following Lemma 24, values are discretized by 8 eps^-3 into an auxiliary
// unweighted multigraph H with a special node s absorbing each vertex's
// deficiency qHat_i - sum_j q_ij; dense odd sets are exactly the odd cuts of
// H with capacity below kappa = floor(8 eps^-3), found Padberg-Rao style on
// a Gomory-Hu tree of H (Lemma 25). The tree is built on an arena-backed
// CSR flow network (graph/flow_arena.hpp) that is constructed once and
// reset between the Gusfield flows; the residual rounds that make the
// collection maximal contract taken vertices in place instead of
// rebuilding H, and each rebuilds the tree with one full Gusfield build
// on the live vertices. Above the configured size limit an exhaustive tree
// search is replaced by a component/triangle heuristic — missing a set
// only slows dual progress, it never breaks soundness because the
// MicroOracle revalidates Equation (4) for every candidate.

#include <cstdint>
#include <utility>
#include <vector>

#include "graph/gomory_hu.hpp"
#include "graph/graph.hpp"

namespace dp::core {

struct OddSetQueryEdge {
  Vertex u;
  Vertex v;
  double q;
};

struct OddSetOptions {
  /// The level graph's eps: sets are capped at ||U||_b <= 4/eps and values
  /// discretized by 8/eps^3.
  double eps = 0.1;
  /// Use the exact Gomory-Hu search only when the number of active vertices
  /// is at most this; otherwise use the heuristic finder.
  std::size_t gomory_hu_limit = 1200;
};

/// Reusable separation engine. Owns flat scratch with touched-entry resets,
/// so repeated calls — the per-level fan-out of one oracle invocation, or
/// successive residual rounds — run without n-sized allocations in the
/// steady state. One instance per concurrent caller (find() mutates the
/// scratch); output is a pure function of the arguments, identical to the
/// find_dense_odd_sets free function.
class OddSetSeparator {
 public:
  /// Disjoint dense odd sets (each sorted by vertex id). `q_hat` must have
  /// one entry per vertex (entries for inactive vertices are ignored).
  std::vector<std::vector<Vertex>> find(
      std::size_t n, const std::vector<OddSetQueryEdge>& q_edges,
      const std::vector<double>& q_hat, const Capacities& b,
      const OddSetOptions& options);

  /// Max-flows run by the exact path's Gusfield builds (Lemma 25), summed
  /// over every find() on this engine.
  std::size_t max_flows() const noexcept { return net_.flows_run(); }

 private:
  void ensure(std::size_t n);
  std::uint32_t root_of(std::uint32_t v) noexcept;

  std::vector<std::vector<Vertex>> heuristic(
      const std::vector<OddSetQueryEdge>& q,
      const std::vector<double>& q_hat, const Capacities& b,
      std::int64_t max_b);

  std::vector<std::vector<Vertex>> exact(
      const std::vector<OddSetQueryEdge>& q,
      const std::vector<double>& q_hat, const Capacities& b,
      std::int64_t kappa, double unit, std::int64_t max_b, int max_rounds);

  // All n-sized buffers hold their rest value between calls (flags 0,
  // incident 0, parent identity, comp -1); find() restores them by walking
  // the touched (active) entries only.
  std::vector<char> seen_;
  std::vector<double> incident_;
  std::vector<std::uint32_t> parent_;
  std::vector<std::uint32_t> rank_;
  std::vector<std::int32_t> comp_of_;
  std::vector<char> taken_;
  std::vector<Vertex> active_;
  std::vector<std::uint32_t> comp_counts_;
  std::vector<std::uint32_t> comp_off_;
  std::vector<std::uint32_t> comp_cursor_;
  std::vector<Vertex> comp_members_;
  std::vector<std::pair<double, std::vector<Vertex>>> candidates_;
  // Exact-path scratch (active-set sized, reused across rounds and calls:
  // the arena and tree keep their buffers, everything else is assign()ed
  // per call without reallocation in the steady state).
  FlowArena net_;
  GomoryHuTree tree_;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> raw_;
  std::vector<ArenaEdge> agg_;
  std::vector<std::int64_t> incident_cap_;
  std::vector<std::int64_t> deficiency_;
  std::vector<std::size_t> s_edge_;
  std::vector<char> alive_;
  std::vector<char> fresh_;
  std::vector<char> inside_;
  std::vector<std::uint32_t> side_;
};

/// Stateless convenience wrapper around a throwaway OddSetSeparator.
std::vector<std::vector<Vertex>> find_dense_odd_sets(
    std::size_t n, const std::vector<OddSetQueryEdge>& q_edges,
    const std::vector<double>& q_hat, const Capacities& b,
    const OddSetOptions& options);

}  // namespace dp::core
