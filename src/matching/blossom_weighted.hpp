#pragma once
// Exact maximum-weight matching in general graphs: Edmonds-Galil primal-dual
// blossom algorithm, O(n^3). Internally works on integer weights;
// floating-point inputs are scaled (see max_weight_matching). Serves as the
// exact offline solver for graphs up to a few hundred vertices and as the
// benchmark's exact-OPT reference.
//
// Storage. The algorithm is the classical formulation on a (2n+2)^2 matrix
// of arcs (u, v, w): vertices 1..n, blossom ids n+1..2n+1. Only what cannot
// be inferred from a cell's position is stored:
//   - the (n+1)^2 block between original vertices as int64 weights; an
//     original cell's endpoints are its position and are never rewritten;
//   - for each blossom id b, row b (2n+2 arcs), column b over the original
//     rows (n+1 arcs; cells between two blossom ids live in the row of the
//     first) and b's flo_from row (n+1 ints), allocated when the algorithm
//     first takes id b and initialised to the dense matrix's contents:
//     endpoints at their position, weight 0. An original vertex's flo_from
//     row is the identity and is not stored.
// That is 8(n+1)^2 + 52 k (n+1) bytes for k blossom ids taken, against
// 72 (n+1)^2 for the dense matrix plus its flo_from table: at n = 600,
// 2.9 MB plus 31 KB per id instead of 26 MB. An expanded blossom's id is
// reused, and the live blossoms form a laminar family whose members have
// at least three children each, so k <= (n-1)/2 and the worst case is
// about 34 (n+1)^2 bytes; gnm instances at n = 200-450 take 0-170 ids.
//
// Every cell the algorithm reads, including the weight-0 cells whose
// endpoints add_blossom's slack comparison uses, holds what the dense
// matrix held at that point, and scan orders, scaling and tie-breaking are
// the dense solver's. So the returned matchings are the dense solver's
// edge for edge; BlossomWeighted.GoldenEdgeSequences pins them.

#include <cstdint>

#include "matching/matching.hpp"

namespace dp {

/// Exact maximum weight matching of g. Weights must be non-negative.
///
/// If every weight is integral the computation is exact. Otherwise weights
/// are scaled so that the largest is 2^40 and rounded — the result is exact
/// for the rounded weights, i.e. within n * W / 2^40 of the true optimum.
Matching max_weight_matching(const Graph& g);

/// Exact maximum weight matching with explicitly provided integer weights
/// (parallel to g.edges()). Each mated pair maps back to its first edge in
/// id order of maximum weight; g's adjacency view is not built.
Matching max_weight_matching_integral(const Graph& g,
                                      const std::vector<std::int64_t>& w);

}  // namespace dp
