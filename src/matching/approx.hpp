#pragma once
// Offline approximate weighted matching on in-memory (sub)graphs.
//
// Algorithm 2 of the paper invokes a near-linear offline
// (1-a3)-approximation (Duan-Pettie / Ahn-Guha SODA'14) on the union of the
// stored deferred sparsifiers. This module provides that role:
//   * exact blossom for small instances (n <= exact_threshold), and
//   * greedy + local-search (one-for-two swaps, two-for-one augmentations,
//     free-edge insertion) to convergence otherwise.
// The local search alone guarantees >= 1/2 and empirically lands at 0.9+ of
// optimal (validated against the exact solvers in the test suite).
//
// Re-entrancy: every entry point is a pure function of its arguments — all
// working state (MatchState, sweep orders, the RNG) is local, and the only
// mutation of the input graph is its mutex-guarded lazy CSR build. The
// round pipeline relies on this: OfflineResolve calls these solvers on a
// pool worker concurrently with the inner-iteration sweeps.

#include <cstdint>
#include <vector>

#include "matching/matching.hpp"

namespace dp {

struct ApproxOptions {
  /// Use the exact O(n^3) blossom when the graph has at most this many
  /// vertices (0 disables exact dispatch).
  std::size_t exact_threshold = 400;
  /// Maximum improvement sweeps of local search.
  std::size_t max_rounds = 64;
  /// Random seed for sweep order.
  std::uint64_t seed = 1;
};

/// Whether approx_weighted_matching(g, opts) runs the exact blossom:
/// exact_threshold > 0 and g has at most that many vertices.
bool approx_dispatches_exact(const Graph& g, const ApproxOptions& opts);

/// Approximate maximum weight matching: the exact blossom when
/// approx_dispatches_exact, local search otherwise (sorting g only then).
Matching approx_weighted_matching(const Graph& g, const ApproxOptions& opts);
Matching approx_weighted_matching(const Graph& g);

// The local search and the b-matching solver each come in two forms. The
// order-taking form scans `order`, which must be edges_by_weight_desc(g);
// the round pipeline passes one filtered from the input's sort
// (subset_weight_order). The other form sorts g and calls it.

/// Local-search-only solver (never dispatches to exact); exposed for
/// benchmarking the components separately.
Matching local_search_matching(const Graph& g, std::vector<EdgeId> order,
                               std::size_t max_rounds, std::uint64_t seed);
Matching local_search_matching(const Graph& g, std::size_t max_rounds,
                               std::uint64_t seed);

/// Approximate maximum weight uncapacitated b-matching: weight-greedy with
/// saturation followed by unit-transfer local search.
BMatching approx_weighted_b_matching(const Graph& g, const Capacities& b,
                                     const std::vector<EdgeId>& order,
                                     std::size_t max_rounds = 32);
BMatching approx_weighted_b_matching(const Graph& g, const Capacities& b,
                                     std::size_t max_rounds = 32);

}  // namespace dp
