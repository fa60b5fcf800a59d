#pragma once
// Batched edge deltas: the unit of churn for the dynamic-graph substrate.
//
// A delta is a batch of removes and inserts applied atomically to a
// DynamicGraph, bumping its generation by one. Within a batch removes
// apply before inserts, so remove+insert of the same endpoints in one
// batch reweights the edge. Batches are normalized before application —
// canonical (min, max) endpoint keys, self-loop inserts dropped, same-key
// repeats deduplicated — so the applied effect is a pure function of the
// batch's net content, not of the order the caller appended operations.

#include <cstdint>
#include <vector>

#include "graph/graph.hpp"

namespace dp::dyn {

/// Canonical undirected edge key: min(u, v) in the high 32 bits, max in
/// the low. Sorting by key is the canonical edge order used throughout the
/// dynamic layer (materialization, logs, feasibility repair).
constexpr std::uint64_t edge_key(Vertex u, Vertex v) noexcept {
  const std::uint64_t lo = u < v ? u : v;
  const std::uint64_t hi = u < v ? v : u;
  return (lo << 32) | hi;
}

struct EdgeInsert {
  Vertex u = 0;
  Vertex v = 0;
  double w = 1.0;

  friend bool operator==(const EdgeInsert&, const EdgeInsert&) = default;
};

struct EdgeRemove {
  Vertex u = 0;
  Vertex v = 0;

  friend bool operator==(const EdgeRemove&, const EdgeRemove&) = default;
};

/// One batch of churn. `removes` apply first, then `inserts`.
struct EdgeDelta {
  std::vector<EdgeRemove> removes;
  std::vector<EdgeInsert> inserts;

  bool empty() const noexcept { return removes.empty() && inserts.empty(); }
  std::size_t size() const noexcept {
    return removes.size() + inserts.size();
  }
};

/// normalize() output: canonical ops sorted ascending by edge key, one op
/// per key per side (the FIRST insert of a key wins; repeats are counted,
/// not applied), self-loop inserts dropped.
struct NormalizedDelta {
  std::vector<std::uint64_t> remove_keys;  // sorted ascending, unique
  std::vector<EdgeInsert> inserts;         // u < v, sorted by key, unique
  std::size_t dropped_self_loops = 0;
  std::size_t duplicate_inserts = 0;
  std::size_t duplicate_removes = 0;
};

NormalizedDelta normalize(const EdgeDelta& delta);

/// Where a normalized net delta's edges sit in the post-delta graph, read
/// off in one pass over both (Solver::resolve).
struct DeltaIds {
  /// Post-delta ids of the inserted edges, ordered by insert key and by id
  /// within one key: the order the feasibility repair raises rows in.
  std::vector<EdgeId> inserted;
  /// Pre-delta id -> post-delta id, kNoEdge for a removed or reweighted
  /// edge, with the pre-delta edges numbered in key order, as
  /// DynamicGraph::materialize numbers them after generation 0. Empty when
  /// the post-delta keys do not strictly ascend (a base graph or a
  /// caller-built one): its predecessor's numbering is then unknown.
  std::vector<EdgeId> renamed;
};

DeltaIds delta_ids(const Graph& post, const NormalizedDelta& delta);

}  // namespace dp::dyn
