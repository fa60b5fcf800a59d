#pragma once
// Semi-streaming access substrate. Each round iteration makes exactly ONE
// sequential pass over the edge stream:
//
//   - multiplier_sweep consumes the arrivals in stream order, handing each
//     retained edge to the kernel at its retained index (and charges the
//     round's single pass);
//   - the draw re-walks the same (already charged) pass in a per-round
//     SHUFFLED arrival order — demonstrating that the counter-based masks
//     are arrival-order-invariant — and stores only the sampled edges.
//
// Between passes the algorithm's model state is the stored sample
// (O(n^{1+1/p}) incidences, metered via store/release) plus the O(n L)
// dual state; tests gate peak stored edges = o(m).
//
// Edge sources: this is the one backend whose discipline is genuinely
// sequential, so it accepts a FILE-BACKED source (stream/edge_file). In
// file mode the substrate runs TABLE-FREE: passes decode checksummed
// blocks on the pass thread (IO bytes and stalls land on this substrate's
// meter), each retained arrival is handed to the kernel as a one-element
// base-relative span built from the decoded record, and stored-sample
// attributes live in a per-round cache of exactly the drawn union — so
// the resident edge-attribute state is the one IO block buffer plus the
// o(m) stored sample, never the m-edge input. In graph mode behaviour is
// unchanged (table-backed, RAM passes).
//
// Fault tolerance (util/fault): when a FaultPlan is installed, each pass
// can die mid-pass at a deterministic arrival offset (FaultSite::
// kStreamPass; phase 0 = the multiplier sweep, phase 1 = the draw's
// physical re-walk). On the file backend the offset is aligned DOWN to a
// block boundary, so the fault keys by block and a kill/resume lands at an
// identical decode point every attempt. A failed pass is retried from the
// start — safe because the kernel fills and the draw masks are pure per
// index — with every physical re-walk charged as an extra pass and counted
// as a fault on the meter. An exhausted retry budget propagates the
// SubstrateFault (the solver then degrades gracefully).

#include <cstdint>
#include <memory>
#include <vector>

#include "access/substrate.hpp"
#include "stream/edge_stream.hpp"

namespace dp::access {

class StreamingSubstrate final : public Substrate {
 public:
  StreamingSubstrate() = default;

  const char* name() const noexcept override { return "streaming"; }

  bool accepts_file_source() const noexcept override { return true; }

  void multiplier_sweep(const SweepKernel& kernel) override;

  const core::SamplingRound& draw(const std::vector<double>& prob,
                                  std::size_t t, std::uint64_t round,
                                  std::uint64_t seed) override;

  void stored_attrs(const std::uint32_t* idxs, std::size_t count,
                    RetainedEdge* out) const override;

  void fetch_edges(const std::uint32_t* idxs, std::size_t count,
                   Edge* out) const override;

  void materialize_union(const std::vector<std::uint32_t>& indices,
                         std::vector<EdgeId>& ids,
                         std::vector<Edge>& edges) const override;

  void release_stored(std::size_t k) override;

 protected:
  bool materializes_table() const noexcept override {
    return !source_.file_backed();
  }
  void on_bind() override;

 private:
  /// Attributes of retained index `idx` straight from the file record +
  /// level graph (no cache). Const and race-free: safe from the offline
  /// job thread concurrently with an in-flight pass.
  RetainedEdge load_attr(std::uint32_t idx) const;

  /// File mode keys faults by BLOCK: align the arrival offset down to a
  /// block boundary so every attempt dies at the same decode point.
  std::uint64_t align_fault(std::uint64_t fail_at) const noexcept;

  // The stream is unmetered: the substrate charges its meter explicitly so
  // the draw's physical re-walk of the round's pass is not double-counted.
  // (In file mode the FILE meters IO bytes and stalls — those are
  // physical-IO quantities of each walk, not per-round model charges.)
  std::unique_ptr<EdgeStream> stream_;
  std::vector<std::uint32_t> retained_of_;  // stream position -> retained idx
  core::SamplingEngine engine_;             // sequential (no pool)
  std::uint64_t pass_ordinal_ = 0;          // logical passes this solve

  // File-mode per-round stored-attribute cache: exactly the drawn union,
  // sorted by retained index (budget-charged; dropped at release_stored).
  // Replaced only on the main pipeline thread between rounds — the
  // concurrently running offline job never reads it (materialize_union is
  // cache-free in file mode).
  std::vector<std::uint32_t> cache_idx_;
  std::vector<RetainedEdge> cache_attr_;
};

}  // namespace dp::access
