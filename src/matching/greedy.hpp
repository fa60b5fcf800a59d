#pragma once
// Greedy and maximal matchings / b-matchings.
//
// * greedy_matching: sort by weight, take feasible — the classic 1/2
//   approximation, used as a baseline throughout the benchmarks.
// * maximal_matching: arbitrary-order maximal matching (1/2 for cardinality).

#include <cstdint>
#include <optional>
#include <vector>

#include "matching/matching.hpp"

namespace dp {

/// Edge ids by weight descending, ties in id order: the one weight order
/// that every greedy and local-search routine scans, so a caller running
/// several of them sorts once. It is the permutation a stable comparator
/// sort on `>` gives, computed by a stable LSD radix sort over 64-bit keys
/// that preserve weight order (six passes of 11-bit digits), so it costs
/// a few linear passes at any size. -0.0 ties with +0.0. NaN weights have
/// no defined position; LevelGraph and DynamicGraph reject non-finite
/// weights with ConfigError.
std::vector<EdgeId> edges_by_weight_desc(const Graph& g);

/// The weight order of a subgraph whose local edge i is edge ids[i] of g,
/// filtered from g's order (`order`, edges_by_weight_desc(g)) instead of
/// sorted again: the members of `ids` in `order`'s sequence, each renamed
/// to its position in `ids`. Local ids then ascend with g's ids, so ties
/// keep id order and the result is exactly edges_by_weight_desc of the
/// subgraph. One sequential O(|order|) pass through a job-local
/// global-to-local id map (4 bytes per edge of g). Throws
/// std::invalid_argument unless `ids` strictly ascend and each is below
/// order.size(): any other numbering would silently reorder ties.
std::vector<EdgeId> subset_weight_order(const std::vector<EdgeId>& order,
                                        const std::vector<EdgeId>& ids);

/// edges_by_weight_desc(g) derived from an earlier version of g instead of
/// sorted. `prev_order` is edges_by_weight_desc of the earlier graph,
/// `renamed` maps each of its ids to g's id for the same edge (kNoEdge for
/// an edge g lacks), and `inserted` holds g's other ids. An edge that kept
/// its weight keeps its place relative to the others, so the survivors are
/// read off `prev_order` in sequence and the inserts, sorted alone by
/// (weight, id), merged in. The same pass checks what it writes: m ids,
/// each below m, with (descending weight key, id) strictly ascending. Only
/// the sort's permutation passes, so any input that fails (an order of
/// another graph, a wrong renaming, a reweighted survivor) yields nullopt,
/// never a wrong order.
std::optional<std::vector<EdgeId>> merge_weight_order(
    const Graph& g, const std::vector<EdgeId>& prev_order,
    const std::vector<EdgeId>& renamed, const std::vector<EdgeId>& inserted);

/// Weight-sorted greedy matching (>= 1/2 of optimal weight):
/// greedy_matching_in_order on edges_by_weight_desc(g).
Matching greedy_matching(const Graph& g);

/// Take every edge of `order`, in order, whose endpoints are both free.
Matching greedy_matching_in_order(const Graph& g,
                                  const std::vector<EdgeId>& order);

/// Maximal matching scanning edges in stored order.
Matching maximal_matching(const Graph& g);

/// Maximal matching over an arbitrary subset of edge ids, scanning in the
/// given order and respecting pre-matched vertices (mate array updated).
void extend_maximal_matching(const Graph& g,
                             const std::vector<EdgeId>& candidates,
                             std::vector<Vertex>& mate, Matching& m);

/// Weight-sorted greedy b-matching: multiplicity = residual min(b_u, b_v)
/// at selection time (uncapacitated b-matching, Lemma 20 saturation).
BMatching greedy_b_matching(const Graph& g, const Capacities& b);

/// The saturating greedy b-matching scanning the edges of `order`.
BMatching greedy_b_matching_in_order(const Graph& g, const Capacities& b,
                                     const std::vector<EdgeId>& order);

}  // namespace dp
