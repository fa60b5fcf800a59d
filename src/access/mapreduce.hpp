#pragma once
// MapReduce access substrate (the model of Lattanzi et al. SPAA'11, as
// used by Section 4 of the paper). One sampling round = one REAL simulator
// round: mappers evaluate the counter-based inclusion masks over their
// input shards, the shuffle routes (sparsifier, edge) pairs, and one
// reducer per sparsifier collects its support under the O(n^{1+1/p})
// reducer-memory cap — which the simulator ENFORCES (a violating solve
// throws ReducerMemoryExceeded rather than silently overfitting the
// model).
//
// Sharding: the retained attribute table is sharded by VERTEX RANGE —
// machine s owns the edges whose u endpoint falls in [s n/S, (s+1) n/S) —
// and the multiplier sweep walks each machine's members as maximal
// consecutive runs through the base-relative kernel. Each machine carries
// its own ResourceMeter (shard_meters()): sweep passes, draw rounds, map
// emissions and their shuffle bytes, an independent per-machine breakdown
// of the totals on the main meter (never merged into it — the simulator
// already charges the totals there).
//
// Reducer output: every reducer returns its sparsifier support as bitmap
// words (mapreduce::emit_support_words) — one record per 64-index word
// that holds a member, key (reducer key << 32) | word, value the word's
// bits. This is safe for the model's accounting: the meters count mapper
// emissions (the shuffle) and fault re-fetches, never reducer output, and
// the words are read only to rebuild the round's supports (sample_round)
// or a batch's candidate bitmaps (below). Results, meters and checkpoints
// do not depend on it.
//
// Map output: the mappers read their shard of the round's input in place
// and the simulator partitions their emissions by key as they are made
// (mapreduce::Emitter), so each shuffled (sparsifier, edge) record is held
// once, as the 8-byte edge index in machine s's run for its reducer key.
// The meters still charge every record as one 16-byte message — the
// shuffle the model counts — along with fault waste and re-fetches, and
// the per-machine emission counts in shard_meters(). The runs stay
// allocated between the solve's simulator rounds until end_solve().
//
// Round compression (paper Section 4.2): with Config::round_compression =
// k > 1, ONE simulator round pre-draws the counter-based masks of the next
// k sampling rounds at an ENVELOPE probability min(1, boost * p). Because
// the per-bit Bernoulli compare is monotone in p (mask(p) is bitwise a
// subset of mask(p') whenever p <= p'), each later round filters its
// cached candidate set with its EXACT probabilities locally — zero
// additional simulator rounds, bitwise identical supports — as long as the
// actual probabilities (capped at 1, which already draws every bit) stay
// under the envelope (validated per round; a violation just starts a
// fresh batch). The reducer cap applies to every
// (round-in-batch, sparsifier) key of the batch round, so compression
// cannot smuggle space past the model: a cap violation during the
// pre-draw falls back to per-round draws and disables compression for the
// rest of the solve. Saved simulator rounds/passes land on the meter as
// saved_rounds/saved_passes, making simulator rounds < outer rounds
// directly observable. The words of the batch round's (j, q) reducers
// are ORed into one candidate bitmap per round-in-batch j and read
// ascending: an edge drawn by several sparsifiers is one bit, so no sort
// is needed to deduplicate the candidates.

#include <cstdint>
#include <memory>
#include <vector>

#include "access/substrate.hpp"
#include "mapreduce/mapreduce.hpp"

namespace dp::access {

class MapReduceSubstrate final : public Substrate {
 public:
  struct Config {
    /// Simulated machines (mapper shards / vertex-range sweep shards).
    std::size_t machines = 8;
    /// Per-reducer memory cap; 0 = derive ceil(8 n^{1+1/p}) + 64 from
    /// space_exponent at bind (the paper's central-processing budget).
    std::size_t reducer_memory = 0;
    /// Space exponent p > 1 used when deriving the reducer cap.
    double space_exponent = 2.0;
    /// Simulator worker threads (0 = hardware concurrency). Outputs are
    /// independent of this value.
    std::size_t threads = 0;
    /// Batch this many successive sampling rounds into one simulator round
    /// (Section 4.2 round compression). 1 = off. Outputs are bitwise
    /// independent of this value; only the round/shuffle accounting moves.
    std::size_t round_compression = 1;
    /// Envelope multiplier for compressed pre-draws: the batch round draws
    /// at min(1, boost * p) and later rounds filter exactly. Larger boost
    /// survives more between-round probability growth but ships more
    /// candidates through the capped reducers.
    double compression_boost = 4.0;
  };

  MapReduceSubstrate() = default;
  explicit MapReduceSubstrate(const Config& config) : config_(config) {}

  const char* name() const noexcept override { return "mapreduce"; }

  void multiplier_sweep(const SweepKernel& kernel) override;

  const core::SamplingRound& draw(const std::vector<double>& prob,
                                  std::size_t t, std::uint64_t round,
                                  std::uint64_t seed) override;

  /// Frees the simulator's shuffle buffers. A solve keeps them across its
  /// simulator rounds, so a later batch pre-draw refills the memory the
  /// first one took instead of stacking on the round pipeline's scratch:
  /// the solve's peak memory is the same whether it runs one batch or
  /// several.
  void end_solve() noexcept override;

  /// The reducer cap in force after bind() (derived or configured).
  std::size_t reducer_memory() const noexcept { return reducer_memory_; }

  /// Simulator rounds executed so far. Without round compression this
  /// equals the sampling rounds drawn; with it, strictly fewer.
  std::size_t simulator_rounds() const noexcept {
    return sim_ == nullptr ? 0 : sim_->rounds_executed();
  }

  /// Whether round compression is still active (it self-disables if a
  /// batch pre-draw violates the reducer cap).
  bool compression_active() const noexcept { return compress_k_ > 1; }

  /// Per-machine resource breakdown (size = machines, reset at bind):
  /// sweep passes, draw rounds, map emissions (messages + shuffle bytes).
  /// An independent view — NOT merged into meter(), which the simulator
  /// already charges with the totals.
  const std::vector<ResourceMeter>& shard_meters() const noexcept {
    return shard_meters_;
  }

 protected:
  void on_bind() override;

 private:
  /// One machine's maximal run of consecutive retained indices.
  struct ShardRun {
    std::uint32_t lo;
    std::uint32_t hi;
  };

  /// Is the live batch usable for (prob, t, round, seed)? Checks batch
  /// identity and the envelope invariant prob[e] <= envelope_[e].
  bool cached_draw_valid(const std::vector<double>& prob, std::size_t t,
                         std::uint64_t round, std::uint64_t seed) const;

  /// Execute the batch pre-draw simulator round based at `round`. Returns
  /// false (and disables compression) on ReducerMemoryExceeded.
  bool predraw_batch(const std::vector<double>& prob, std::size_t t,
                     std::uint64_t round, std::uint64_t seed);

  /// Filter round `round`'s cached candidates with its exact
  /// probabilities and adopt the resulting supports.
  const core::SamplingRound& adopt_cached(const std::vector<double>& prob,
                                          std::size_t t, std::uint64_t round);

  /// Fold the simulator's last map phase into the per-shard meters.
  void charge_shard_draw();

  Config config_;
  std::size_t reducer_memory_ = 0;
  std::unique_ptr<mapreduce::Simulator> sim_;
  core::SamplingEngine engine_;

  // Vertex-range sharding of the retained table (built at bind).
  std::vector<std::vector<ShardRun>> shard_runs_;
  std::vector<std::size_t> shard_members_;
  std::vector<ResourceMeter> shard_meters_;

  // Round-compression batch state.
  std::size_t compress_k_ = 1;    // live k (1 after cap fallback)
  bool batch_valid_ = false;
  std::uint64_t batch_base_ = 0;  // sampling round of the batch pre-draw
  std::size_t batch_t_ = 0;
  std::uint64_t batch_seed_ = 0;
  std::vector<double> envelope_;  // pre-draw probabilities (batch base)
  // Per round-in-batch j: bitmap of the pre-drawn candidate indices.
  std::vector<std::vector<std::uint64_t>> batch_bitmaps_;
  std::vector<std::vector<std::uint32_t>> supports_scratch_;
};

}  // namespace dp::access
