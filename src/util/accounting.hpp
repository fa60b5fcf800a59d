#pragma once
// Resource metering.
//
// The paper's theorems bound *resources of the computation model* — adaptive
// sampling rounds, streaming passes, centrally stored edges, per-vertex
// messages — rather than wall-clock time. The substrates in this library
// meter those quantities through a shared ResourceMeter so that benchmarks
// report exactly what Theorem 1 / Theorem 15 bound.

#include <array>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <string>

namespace dp {

/// Counters for the resource-constrained models of Section 1 of the paper.
/// The counter list lives in ONE place: the Counter enum below, with its
/// names in kCounterNames. merge(), summary() and the round checkpoint's
/// meter block all loop over it, and the enum order IS the checkpoint wire
/// order — a new counter goes at the end, gets a name and a mutator/getter
/// pair, and bumps RoundCheckpoint::kVersion.
///
/// All counters are plain (non-atomic). Concurrent phases never share one
/// meter: each stage/thread writes its own ResourceMeter and the owner
/// aggregates them with merge() at a stage boundary, in a fixed stage
/// order (the round pipeline's Merge stage is the canonical example) — so
/// the totals are identical whatever thread interleaving produced them.
/// merge() adds every running counter and combines peaks as
/// max(own peak, other's peak, combined running stored). Note this treats
/// the two meters' transient peaks as NON-concurrent: stages that
/// genuinely hold storage at the same time must charge the held storage
/// to one meter (as the pipeline does — the round's stored edges live on
/// the Draw stage's meter until the post-merge release).
class ResourceMeter {
 public:
  enum Counter : std::size_t {
    kRounds, kPasses, kStoredEdges, kPeakEdges, kMessages,
    kInnerIterations, kOracleCalls, kFaults, kMaxFlows, kMaxFlowsSaved,
    kGhFullBuilds, kGhIncremental, kGhTreeReuses, kSavedRounds, kSavedPasses,
    kRepairedRows, kIoBytes, kIoStalls, kPrefetchHits, kShuffleBytes,
    kResidentEdges, kPeakResidentEdges,
    kCounterCount  // not a counter: the number of counters
  };
  /// Each counter's getter name, in enum order (summary() prints these).
  static constexpr const char* kCounterNames[] = {
      "rounds", "passes", "stored_edges", "peak_edges", "messages",
      "inner_iterations", "oracle_calls", "faults", "max_flows",
      "max_flows_saved", "gh_full_builds", "gh_incremental",
      "gh_tree_reuses", "saved_rounds", "saved_passes", "repaired_rows",
      "io_bytes", "io_stalls", "prefetch_hits", "shuffle_bytes",
      "resident_edges", "peak_resident_edges"};
  static_assert(std::size(kCounterNames) == kCounterCount,
                "one name per counter");

  using Counters = std::array<std::uint64_t, kCounterCount>;

  ResourceMeter() = default;
  /// A meter holding exactly `values` (checkpoint restore, counter deltas).
  /// Unlike the mutators below it does not enforce running <= peak.
  explicit ResourceMeter(const Counters& values) noexcept : c_(values) {}

  const Counters& counters() const noexcept { return c_; }

  /// One adaptive sampling round (e.g. one MapReduce round).
  void add_round(std::size_t k = 1) noexcept { c_[kRounds] += k; }

  /// One sequential pass over the input stream.
  void add_pass(std::size_t k = 1) noexcept { c_[kPasses] += k; }

  /// Edges currently held in central memory. Tracks a running total and the
  /// peak, which is the "space" of Theorem 15.
  void store_edges(std::size_t k) noexcept {
    raise(kStoredEdges, kPeakEdges, k);
  }
  void release_edges(std::size_t k) noexcept { lower(kStoredEdges, k); }

  /// Generic message count (MapReduce shuffle volume).
  void add_messages(std::size_t k) noexcept { c_[kMessages] += k; }

  /// Inner (non-adaptive) iterations executed on stored data. The paper's
  /// key distinction: these do NOT touch the input.
  void add_inner_iterations(std::size_t k = 1) noexcept {
    c_[kInnerIterations] += k;
  }

  /// Oracle invocations (MicroOracle calls in Theorem 1).
  void add_oracle_calls(std::size_t k = 1) noexcept { c_[kOracleCalls] += k; }

  /// Injected (or real) substrate faults survived via retry. The cost of
  /// each retry lands on the counters above — an extra pass, re-shuffled
  /// messages — so faults() is the denominator of per-fault recovery cost.
  void add_faults(std::size_t k = 1) noexcept { c_[kFaults] += k; }

  /// Max-flow computations run by odd-set separation (Gusfield, Lemma 25),
  /// and flows skipped by the incremental per-subtree Gomory-Hu reuse
  /// after contraction — the hot-path saving made observable.
  void add_max_flows(std::size_t k) noexcept { c_[kMaxFlows] += k; }
  void add_max_flows_saved(std::size_t k) noexcept {
    c_[kMaxFlowsSaved] += k;
  }

  /// Gomory-Hu tree (re)build outcomes: full Gusfield rebuilds,
  /// incremental post-contraction updates, whole-tree cache hits.
  void add_gh_full_builds(std::size_t k) noexcept { c_[kGhFullBuilds] += k; }
  void add_gh_incremental(std::size_t k) noexcept { c_[kGhIncremental] += k; }
  void add_gh_tree_reuses(std::size_t k) noexcept { c_[kGhTreeReuses] += k; }

  /// Dynamic re-solve accounting: MW rounds and substrate passes the
  /// warm-started path did NOT pay relative to the previous solve's cost,
  /// plus covering rows raised by the feasibility-repair pass — the
  /// o(full-solve) claim made observable as first-class counters.
  void add_saved_rounds(std::size_t k) noexcept { c_[kSavedRounds] += k; }
  void add_saved_passes(std::size_t k) noexcept { c_[kSavedPasses] += k; }
  void add_repaired_rows(std::size_t k) noexcept { c_[kRepairedRows] += k; }

  /// Out-of-core IO accounting (stream/edge_file): bytes physically read
  /// from the edge file, and blocks the pass had to WAIT for (stalls).
  /// Passes decode every block on their own thread, so io_stalls counts
  /// every decoded block. Nothing charges prefetch_hits since the edge
  /// file lost its prefetching IO thread; its slot stays, so the counter
  /// order (and the checkpoint meter block) is unchanged and
  /// prefetch_hits() reads 0.
  void add_io_bytes(std::size_t k) noexcept { c_[kIoBytes] += k; }
  void add_io_stalls(std::size_t k = 1) noexcept { c_[kIoStalls] += k; }

  /// MapReduce shuffle volume in BYTES (messages counts records; each
  /// shuffled record is a fixed-width key/value pair, so the simulator
  /// charges bytes alongside).
  void add_shuffle_bytes(std::size_t k) noexcept { c_[kShuffleBytes] += k; }

  /// Resident edge-attribute state of the access layer: full per-edge
  /// attribute records (attribute table, IO block buffers, stored-sample
  /// attribute caches) a substrate holds in process memory, in edge units.
  /// Distinct from store_edges (the MODEL's stored-sample space): resident
  /// is what SolverOptions::memory_budget_edges caps — the out-of-core
  /// backends keep it o(m) while the in-memory reference pins the whole
  /// attribute table.
  void hold_resident(std::size_t k) noexcept {
    raise(kResidentEdges, kPeakResidentEdges, k);
  }
  void release_resident(std::size_t k) noexcept { lower(kResidentEdges, k); }

  std::size_t rounds() const noexcept { return c_[kRounds]; }
  std::size_t passes() const noexcept { return c_[kPasses]; }
  std::size_t stored_edges() const noexcept { return c_[kStoredEdges]; }
  std::size_t peak_edges() const noexcept { return c_[kPeakEdges]; }
  std::size_t messages() const noexcept { return c_[kMessages]; }
  std::size_t inner_iterations() const noexcept {
    return c_[kInnerIterations];
  }
  std::size_t oracle_calls() const noexcept { return c_[kOracleCalls]; }
  std::size_t faults() const noexcept { return c_[kFaults]; }
  std::size_t max_flows() const noexcept { return c_[kMaxFlows]; }
  std::size_t max_flows_saved() const noexcept { return c_[kMaxFlowsSaved]; }
  std::size_t gh_full_builds() const noexcept { return c_[kGhFullBuilds]; }
  std::size_t gh_incremental() const noexcept { return c_[kGhIncremental]; }
  std::size_t gh_tree_reuses() const noexcept { return c_[kGhTreeReuses]; }
  std::size_t saved_rounds() const noexcept { return c_[kSavedRounds]; }
  std::size_t saved_passes() const noexcept { return c_[kSavedPasses]; }
  std::size_t repaired_rows() const noexcept { return c_[kRepairedRows]; }
  std::size_t io_bytes() const noexcept { return c_[kIoBytes]; }
  std::size_t io_stalls() const noexcept { return c_[kIoStalls]; }
  std::size_t prefetch_hits() const noexcept { return c_[kPrefetchHits]; }
  std::size_t shuffle_bytes() const noexcept { return c_[kShuffleBytes]; }
  std::size_t resident_edges() const noexcept { return c_[kResidentEdges]; }
  std::size_t peak_resident_edges() const noexcept {
    return c_[kPeakResidentEdges];
  }

  void reset() noexcept { *this = ResourceMeter{}; }

  /// Merge counters from another meter (peak = max of peaks and of the
  /// combined running count).
  void merge(const ResourceMeter& other) noexcept;

  /// Human-readable one-line summary: name=value for every counter.
  std::string summary() const;

 private:
  /// Gauge pair: raise the running count and lift its peak along.
  void raise(Counter running, Counter peak, std::uint64_t k) noexcept {
    c_[running] += k;
    if (c_[running] > c_[peak]) c_[peak] = c_[running];
  }
  void lower(Counter running, std::uint64_t k) noexcept {
    c_[running] = k > c_[running] ? 0 : c_[running] - k;
  }

  Counters c_{};
};

}  // namespace dp
