#pragma once
// Deterministic batched sampling rounds — the data-access side of
// Algorithm 2 (Definition 4 / Lemma 17).
//
// One adaptive sampling round draws t independent deferred sparsifiers from
// the same per-edge inclusion probabilities. The seed implementation ran t
// dependent Bernoulli sweeps off one stateful generator, which (a) serialized
// the t * m draws and (b) tied every draw to the full history of draws before
// it, locking the round out of the fixed-chunk determinism contract that
// covers the rest of the solve loop.
//
// SamplingEngine replaces that with ONE sweep: the inclusion decisions of all
// t sparsifiers for edge `idx` pack into a t-bit mask computed by a
// counter-based RNG (util/rng's CounterRng) as a pure function of
// (seed, round, q, idx). Consequences:
//
//  - the sweep chunk-parallelizes over the edges (run_chunks), and the stored
//    sets are bitwise identical for any thread count;
//  - any access substrate that can enumerate (idx, prob) pairs reproduces the
//    exact same sets: the in-memory sweep (draw), a semi-streaming pass in
//    any arrival order (draw_stream_mapped), and the MapReduce mapper
//    (mapreduce::sample_round) are interchangeable, and the access
//    substrates built on them meter the same round/pass/store accounting;
//  - per-sparsifier supports and the round's union extract from the masks
//    into one CSR (replacing the per-round vector-of-vectors), and all round
//    state lives in reusable engine buffers.

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "graph/graph.hpp"
#include "sparsify/deferred.hpp"
#include "stream/edge_stream.hpp"
#include "util/accounting.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace dp::core {

/// Upper bound on sparsifiers per round (one bit each in the packed
/// 32-bit mask; the solver's automatic t is clamped to [2, 24], so 32 is
/// headroom, and the narrow mask halves the memory traffic of the draw,
/// extraction and consumption sweeps).
inline constexpr std::size_t kMaxSparsifiersPerRound = 32;

/// The per-round draw stream: callers fork once per round and pass the
/// forked stream to sampling_mask, which then hashes only the edge index.
inline CounterRng sampling_round_rng(std::uint64_t seed,
                                     std::uint64_t round) noexcept {
  return CounterRng(seed).fork(round);
}

/// Inclusion mask of edge `idx` for one round: bit q is set iff the edge
/// belongs to sparsifier q (q < t <= 32). A pure function of
/// (seed, round, q, idx) — `round_rng` must come from sampling_round_rng —
/// which is the shared definition that makes every substrate (in-memory
/// sweep, streaming pass, MapReduce mapper) produce bitwise identical
/// stored sets. The Bernoulli compare happens in the integer domain
/// (threshold = p * 2^64, computed once per edge), so the per-sparsifier
/// draw is one mix + one compare, branchless.
inline std::uint32_t sampling_mask(const CounterRng& round_rng, std::size_t t,
                                   std::uint64_t idx, double p) noexcept {
  if (!(p > 0.0) || t == 0) return 0;
  const std::uint32_t full =
      t >= 32 ? ~std::uint32_t{0}
              : (std::uint32_t{1} << t) - std::uint32_t{1};
  if (p >= 1.0) return full;
  const auto threshold = static_cast<std::uint64_t>(p * 0x1.0p64);
  const std::uint64_t base = round_rng.bits(idx);
  std::uint32_t mask = 0;
  // Unrolled by hand: t is a runtime value, and without the unroll the
  // compiler chains the (independent) per-q mixes instead of pipelining
  // them — worth ~1.7x on the fractional-probability sweep.
  std::size_t q = 0;
  for (; q + 4 <= t; q += 4) {
    mask |= static_cast<std::uint32_t>(mix_combine(base, q) < threshold)
            << q;
    mask |= static_cast<std::uint32_t>(mix_combine(base, q + 1) < threshold)
            << (q + 1);
    mask |= static_cast<std::uint32_t>(mix_combine(base, q + 2) < threshold)
            << (q + 2);
    mask |= static_cast<std::uint32_t>(mix_combine(base, q + 3) < threshold)
            << (q + 3);
  }
  for (; q < t; ++q) {
    mask |= static_cast<std::uint32_t>(mix_combine(base, q) < threshold)
            << q;
  }
  return mask;
}

/// One round's draws: per-edge masks plus the CSR-extracted union support.
/// Per-sparsifier supports are NOT materialized — each is consumed exactly
/// once by the solver's inner loop, so iterating the union with a bit test
/// (for_each_stored) costs less than building t index lists ever would.
/// Owned and recycled by a SamplingEngine; views stay valid until the
/// engine's next draw.
class SamplingRound {
 public:
  std::size_t num_sparsifiers() const noexcept { return t_; }
  std::size_t num_edges() const noexcept { return masks_.size(); }

  /// Total stored (edge, sparsifier) incidences of the round.
  std::size_t stored_total() const noexcept { return stored_total_; }

  /// Invoke fn(idx) for every edge index held by sparsifier q, ascending.
  template <typename Fn>
  void for_each_stored(std::size_t q, Fn&& fn) const {
    const std::uint32_t* masks = masks_.data();
    for (const std::uint32_t idx : union_) {
      if ((masks[idx] >> q) & 1) fn(idx);
    }
  }

  /// Materialized support of sparsifier q (ascending) — a convenience for
  /// tests and diagnostics; hot paths should use for_each_stored.
  std::vector<std::uint32_t> sparsifier(std::size_t q) const {
    std::vector<std::uint32_t> out;
    for_each_stored(q, [&](std::uint32_t idx) { out.push_back(idx); });
    return out;
  }

  /// Ascending indices of edges stored by at least one sparsifier.
  const std::vector<std::uint32_t>& union_support() const noexcept {
    return union_;
  }

  /// Packed per-edge inclusion masks (bit q = sparsifier q).
  const std::vector<std::uint32_t>& masks() const noexcept { return masks_; }

 private:
  friend class SamplingEngine;

  std::size_t t_ = 0;
  std::size_t stored_total_ = 0;
  std::vector<std::uint32_t> masks_;
  std::vector<std::uint32_t> union_;
};

/// Reusable, deterministic batched sampling subsystem. One engine serves all
/// rounds of a solve: probability computation (chunk-parallel deferred
/// sparsifier probabilities with reusable scratch) and the batched draw.
/// All entry points are bitwise thread-count-invariant.
class SamplingEngine {
 public:
  /// `pool`/`grain` follow the solver's fixed-chunk determinism contract
  /// (pool == nullptr runs inline; the output never depends on either).
  explicit SamplingEngine(ThreadPool* pool = nullptr,
                          std::size_t grain = 2048)
      : pool_(pool), grain_(grain == 0 ? 1 : grain) {}

  /// Deferred-sparsifier inclusion probabilities for the round's promise
  /// weights. Returns a reference to an internal buffer that stays valid
  /// until the next probabilities() call.
  const std::vector<double>& probabilities(std::size_t n,
                                           const std::vector<Edge>& edges,
                                           const std::vector<double>& promise,
                                           const DeferredOptions& options,
                                           std::uint64_t seed) {
    deferred_probabilities_into(n, edges, promise, options, seed, prob_,
                                scratch_, pool_);
    return prob_;
  }

  /// Draw all t sparsifiers of round `round` in one chunk-parallel sweep
  /// over `prob`. Charges `meter` (if given) one adaptive round, one pass,
  /// and the stored incidences — the same accounting as the streaming and
  /// MapReduce paths. The returned round is valid until the next draw.
  const SamplingRound& draw(const std::vector<double>& prob, std::size_t t,
                            std::uint64_t round, std::uint64_t seed,
                            ResourceMeter* meter = nullptr);

  /// Sentinel for draw_stream_mapped's position map: stream position is
  /// not a retained edge.
  static constexpr std::uint32_t kNotRetained = ~std::uint32_t{0};

  /// Streaming-substrate draw: one sequential pass over `stream` in the
  /// shuffled arrival order of `order_seed` (modeling adversarial arrival;
  /// masks are pure functions of the retained index, so the stored sets
  /// are bitwise identical to draw() regardless of order). `retained_of`
  /// maps each stream position (graph edge id) to its retained index, or
  /// kNotRetained for dropped edges; `prob` is retained-indexed. Charges
  /// nothing — the caller owns the round's pass accounting.
  ///
  /// `arrival_probe` (optional) is invoked with the arrival ordinal
  /// 0, 1, ... BEFORE each edge is processed — the streaming substrate's
  /// mid-pass fault-injection hook (util/fault): a probe that throws
  /// models the pass dying at that arrival. The engine's buffers are reset
  /// at entry, so an aborted draw can simply be re-invoked.
  const SamplingRound& draw_stream_mapped(
      const EdgeStream& stream, const std::vector<std::uint32_t>& retained_of,
      std::uint64_t order_seed, const std::vector<double>& prob,
      std::size_t t, std::uint64_t round, std::uint64_t seed,
      const std::function<void(std::uint64_t)>* arrival_probe = nullptr);

  /// MapReduce-substrate adoption: rebuild the round from per-sparsifier
  /// supports (reducer outputs, each ascending). Produces the same masks /
  /// union / stored_total as draw() would for the probabilities the
  /// mappers evaluated. Charges nothing.
  const SamplingRound& adopt_supports(
      std::size_t num_edges, std::size_t t,
      const std::vector<std::vector<std::uint32_t>>& supports);

  const SamplingRound& last_round() const noexcept { return round_; }

 private:
  /// Extract the union support + stored_total from round_.masks_.
  void extract_union();

  ThreadPool* pool_;
  std::size_t grain_;
  DeferredScratch scratch_;
  std::vector<double> prob_;
  std::vector<std::uint32_t> chunk_counts_;  // per (chunk, q) counts/cursors
  SamplingRound round_;
};

}  // namespace dp::core
