#pragma once
// DynamicGraph: batched edge churn over a base graph, with a generation
// counter, an effective-op delta log, and canonical materialization.
//
// The live edge set is a sorted (key, weight) table plus a per-generation
// log of the EFFECTIVE operations (what actually changed after
// normalization/dedup), so delta_since() replays churn exactly — duplicate
// inserts and phantom removes never pollute it.
//
// Canonical materialization: materialize() returns the live edge set
// sorted ascending by canonical (min, max) key, i.e. a pure function of
// the live edge SET — any two churn histories reaching the same set yield
// bitwise-identical Graphs and therefore bitwise-identical solves.
// Exception: at generation 0 the untouched base graph is returned as-is,
// preserving the caller's edge ids for the static workloads.
//
// Not internally synchronized: callers (the serving layer) guard a
// DynamicGraph with the snapshot mutex and hand out the immutable
// materialized Graph via shared_ptr.

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "dynamic/delta.hpp"
#include "graph/graph.hpp"

namespace dp::dyn {

/// What one apply() actually did, after normalization. A same-key
/// reweight (remove+insert in one batch) counts in both `inserted` and
/// `removed`.
struct DeltaSummary {
  std::uint64_t generation = 0;  // generation after this apply
  std::size_t inserted = 0;
  std::size_t removed = 0;
  std::size_t duplicate_inserts = 0;  // key already live at same weight
  std::size_t phantom_removes = 0;    // key not live
  std::size_t dropped_self_loops = 0;
};

class DynamicGraph {
 public:
  /// Takes ownership of the base graph. The base must be simple (the live
  /// set is keyed by endpoint pair); a parallel edge raises ConfigError.
  explicit DynamicGraph(Graph base);

  std::size_t num_vertices() const noexcept { return n_; }
  std::size_t num_live_edges() const noexcept { return live_.size(); }
  std::uint64_t generation() const noexcept { return generation_; }

  /// Apply one batch atomically; bumps the generation by exactly one (even
  /// for an all-phantom batch — the generation counts applied batches, so
  /// checkpoint identity is conservative). Endpoints outside [0, n) raise
  /// ConfigError; nothing is applied in that case.
  DeltaSummary apply(const EdgeDelta& delta);

  /// Canonical post-delta graph (see file comment). Cached per generation.
  std::shared_ptr<const Graph> materialize() const;

  /// Net effective delta from `generation` to now, canonical-keyed and
  /// sorted: an edge removed then re-inserted at the same weight since
  /// `generation` yields no op; a reweight yields remove+insert. This is
  /// what the solver's warm re-solve repairs against.
  EdgeDelta delta_since(std::uint64_t generation) const;

 private:
  struct LogEntry {
    std::uint64_t generation = 0;        // generation this entry produced
    std::vector<EdgeInsert> inserted;    // canonical u < v, key-sorted
    std::vector<EdgeInsert> removed;     // ditto, with the removed weight
  };

  std::optional<double> live_weight(std::uint64_t key) const;

  std::size_t n_ = 0;
  std::shared_ptr<const Graph> base_;
  std::vector<std::pair<std::uint64_t, double>> live_;  // sorted by key
  std::uint64_t generation_ = 0;
  std::vector<LogEntry> log_;
  mutable std::shared_ptr<const Graph> cache_;
  mutable std::uint64_t cache_generation_ = 0;
};

}  // namespace dp::dyn
