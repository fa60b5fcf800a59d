#include "access/mapreduce.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <span>

#include "util/thread_pool.hpp"

namespace dp::access {

void MapReduceSubstrate::on_bind() {
  reducer_memory_ = config_.reducer_memory;
  if (reducer_memory_ == 0) {
    const double n = static_cast<double>(n_);
    const double p = std::max(config_.space_exponent, 1.01);
    reducer_memory_ =
        static_cast<std::size_t>(std::ceil(8.0 * std::pow(n, 1.0 + 1.0 / p)))
        + 64;
  }
  mapreduce::Config sim_config;
  sim_config.machines = config_.machines == 0 ? 1 : config_.machines;
  sim_config.reducer_memory = reducer_memory_;
  sim_config.threads = config_.threads;
  // plan_ is the substrate's own stable copy (set before bind), so the
  // simulator's pointer stays valid for the whole solve.
  sim_config.faults = &plan_;
  sim_ = std::make_unique<mapreduce::Simulator>(sim_config, &meter_);
  engine_ = core::SamplingEngine(nullptr, grain_);

  // Vertex-range sharding: machine s owns the retained edges whose u
  // endpoint falls in [s n/S, (s+1) n/S), walked as maximal consecutive
  // runs so the sweep stays span-based through the kernel.
  const std::size_t shards = sim_config.machines;
  shard_runs_.assign(shards, {});
  shard_members_.assign(shards, 0);
  shard_meters_.assign(shards, ResourceMeter{});
  const std::size_t m = table_.size();
  for (std::size_t idx = 0; idx < m; ++idx) {
    const std::size_t s =
        n_ == 0 ? 0
                : std::min(shards - 1,
                           static_cast<std::size_t>(table_[idx].u) * shards /
                               n_);
    ++shard_members_[s];
    std::vector<ShardRun>& runs = shard_runs_[s];
    if (!runs.empty() && runs.back().hi == idx) {
      runs.back().hi = static_cast<std::uint32_t>(idx + 1);
    } else {
      runs.push_back(ShardRun{static_cast<std::uint32_t>(idx),
                              static_cast<std::uint32_t>(idx + 1)});
    }
  }

  compress_k_ = config_.round_compression == 0 ? 1 : config_.round_compression;
  batch_valid_ = false;
  envelope_.clear();
  batch_bitmaps_.clear();
}

void MapReduceSubstrate::multiplier_sweep(const SweepKernel& kernel) {
  // Map-side computation of the upcoming round: each machine sweeps its
  // vertex-range shard, dispatched concurrently like the machines the
  // model describes (the kernel is pure per index, so the output is
  // bitwise identical to any serial walk). The simulator round itself
  // (and its charge) is the draw's shuffle/reduce. The stop is polled at
  // access entry only — shard workers must never throw.
  poll_stop("mapreduce.map");
  const RetainedEdge* edges = table_.data();
  const std::size_t shards = shard_runs_.size();
  run_jobs(pool_, shards, [&](std::size_t s) {
    for (const ShardRun& run : shard_runs_[s]) {
      kernel(run.lo, run.hi, edges + run.lo);
    }
  });
  // Per-machine accounting folded on the calling thread after the join
  // (deterministic shard order): one pass over its range per machine that
  // owns any edges.
  for (std::size_t s = 0; s < shards; ++s) {
    if (shard_members_[s] > 0) shard_meters_[s].add_pass();
  }
}

void MapReduceSubstrate::end_solve() noexcept {
  if (sim_ != nullptr) sim_->release_buffers();
}

void MapReduceSubstrate::charge_shard_draw() {
  const std::vector<std::size_t>& emissions = sim_->last_map_emissions();
  const std::size_t shards =
      std::min(emissions.size(), shard_meters_.size());
  for (std::size_t s = 0; s < shards; ++s) {
    shard_meters_[s].add_round();
    shard_meters_[s].add_messages(emissions[s]);
    shard_meters_[s].add_shuffle_bytes(emissions[s] *
                                       sizeof(mapreduce::KeyValue));
  }
}

bool MapReduceSubstrate::cached_draw_valid(const std::vector<double>& prob,
                                           std::size_t t, std::uint64_t round,
                                           std::uint64_t seed) const {
  if (!batch_valid_ || t != batch_t_ || seed != batch_seed_) return false;
  if (round <= batch_base_) return false;
  const std::uint64_t j = round - batch_base_;
  if (j >= batch_bitmaps_.size()) return false;
  if (prob.size() != envelope_.size()) return false;
  // Envelope invariant: the pre-draw is a superset of this round's exact
  // draw only while every probability is still under its envelope. A
  // probability at or above 1 draws the full mask, as 1 does.
  for (std::size_t e = 0; e < prob.size(); ++e) {
    if (std::min(prob[e], 1.0) > envelope_[e]) return false;
  }
  return true;
}

bool MapReduceSubstrate::predraw_batch(const std::vector<double>& prob,
                                       std::size_t t, std::uint64_t round,
                                       std::uint64_t seed) {
  const std::size_t k = compress_k_;
  envelope_.resize(prob.size());
  for (std::size_t e = 0; e < prob.size(); ++e) {
    envelope_[e] = std::min(1.0, prob[e] * config_.compression_boost);
  }
  // One simulator round draws all k rounds' envelope masks: the mapper
  // evaluates each round's counter-based mask at the envelope probability
  // and routes (round-in-batch j, sparsifier q) -> key j*64+q, so the
  // reducer cap binds every per-round per-sparsifier support of the batch.
  std::vector<mapreduce::KeyValue> input;
  input.reserve(envelope_.size());
  for (std::size_t idx = 0; idx < envelope_.size(); ++idx) {
    input.push_back({idx, std::bit_cast<std::uint64_t>(envelope_[idx])});
  }
  std::vector<CounterRng> rngs;
  rngs.reserve(k);
  for (std::size_t j = 0; j < k; ++j) {
    rngs.push_back(core::sampling_round_rng(seed, round + j));
  }
  std::vector<mapreduce::KeyValue> output;
  try {
    output = sim_->round(
        input,
        [&](std::span<const mapreduce::KeyValue> shard,
            mapreduce::Emitter& emit) {
          for (const mapreduce::KeyValue& kv : shard) {
            const double env = std::bit_cast<double>(kv.value);
            for (std::size_t j = 0; j < k; ++j) {
              std::uint64_t mask =
                  core::sampling_mask(rngs[j], t, kv.key, env);
              while (mask != 0) {
                emit.push_back(
                    {j * 64 +
                         static_cast<std::uint64_t>(__builtin_ctzll(mask)),
                     kv.key});
                mask &= mask - 1;
              }
            }
          }
        },
        mapreduce::emit_support_words);
  } catch (const mapreduce::ReducerMemoryExceeded&) {
    // The envelope over-shipped to some (j, q) reducer: the model refuses
    // the batch. Degrade to per-round draws for the rest of the solve —
    // correctness is untouched, only the compression saving is lost.
    compress_k_ = 1;
    batch_valid_ = false;
    return false;
  }
  // Candidate bitmap per round-in-batch j: the OR of the support words of
  // its (j, q) reducers, so an edge drawn by several sparsifiers is one
  // bit. adopt_cached reads it ascending and re-evaluates each candidate's
  // exact mask locally.
  const std::size_t words = (prob.size() + 63) / 64;
  batch_bitmaps_.assign(k, std::vector<std::uint64_t>(words, 0));
  for (const mapreduce::KeyValue& kv : output) {
    const mapreduce::SupportWord w = mapreduce::decode_support_word(kv);
    batch_bitmaps_[w.group / 64][w.word] |= w.bits;
  }
  meter_.add_pass();  // the batch's mappers read the input once
  charge_shard_draw();
  batch_base_ = round;
  batch_t_ = t;
  batch_seed_ = seed;
  batch_valid_ = true;
  return true;
}

const core::SamplingRound& MapReduceSubstrate::adopt_cached(
    const std::vector<double>& prob, std::size_t t, std::uint64_t round) {
  const std::uint64_t j = round - batch_base_;
  const CounterRng round_rng = core::sampling_round_rng(batch_seed_, round);
  supports_scratch_.assign(t, {});
  std::size_t stored_total = 0;
  // Exact local filter: the candidates are a bitwise superset of this
  // round's draw (mask monotone in p), so re-evaluating each candidate's
  // mask at its ACTUAL probability reproduces SamplingEngine::draw's
  // supports exactly — the bitmap is read ascending, so the supports
  // ascend too.
  const std::vector<std::uint64_t>& bitmap = batch_bitmaps_[j];
  for (std::size_t word = 0; word < bitmap.size(); ++word) {
    for (std::uint64_t bits = bitmap[word]; bits != 0; bits &= bits - 1) {
      const auto idx =
          static_cast<std::uint32_t>(word * 64 + std::countr_zero(bits));
      std::uint32_t mask = core::sampling_mask(round_rng, t, idx, prob[idx]);
      while (mask != 0) {
        supports_scratch_[static_cast<std::size_t>(std::countr_zero(mask))]
            .push_back(idx);
        mask &= mask - 1;
        ++stored_total;
      }
    }
  }
  if (j > 0) {
    // This sampling round cost ZERO simulator rounds/passes: the batch
    // round already shipped its candidates. Record the saving; the round
    // counter stays untouched, so meter rounds = simulator rounds < outer
    // rounds.
    meter_.add_saved_rounds(1);
    meter_.add_saved_passes(1);
  }
  meter_.store_edges(stored_total);
  if (j + 1 >= batch_bitmaps_.size()) batch_valid_ = false;  // exhausted
  return engine_.adopt_supports(prob.size(), t, supports_scratch_);
}

const core::SamplingRound& MapReduceSubstrate::draw(
    const std::vector<double>& prob, std::size_t t, std::uint64_t round,
    std::uint64_t seed) {
  poll_stop("mapreduce.round");
  if (compress_k_ > 1) {
    if (cached_draw_valid(prob, t, round, seed)) {
      return adopt_cached(prob, t, round);
    }
    batch_valid_ = false;  // stale/violated batch: start a fresh one here
    if (predraw_batch(prob, t, round, seed)) {
      return adopt_cached(prob, t, round);
    }
    // Cap fallback: compression just disabled itself; fall through.
  }
  // One genuine simulator round: mappers evaluate sampling_mask over their
  // shards, reducer q collects sparsifier q's support under the memory
  // cap. sample_round charges the pass + stored incidences; the simulator
  // (sharing the substrate meter) charges the round and shuffle volume.
  const auto supports =
      mapreduce::sample_round(*sim_, prob, t, round, seed, &meter_);
  charge_shard_draw();
  return engine_.adopt_supports(prob.size(), t, supports);
}

}  // namespace dp::access
