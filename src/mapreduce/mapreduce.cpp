#include "mapreduce/mapreduce.hpp"

#include <algorithm>
#include <bit>
#include <exception>
#include <sstream>
#include <unordered_map>

#include "core/sampling.hpp"
#include "util/rng.hpp"

namespace dp::mapreduce {

ReducerMemoryExceeded::ReducerMemoryExceeded(std::size_t key, std::size_t got,
                                             std::size_t cap)
    : ConfigError(
          [&] {
            std::ostringstream os;
            os << "reducer for key " << key << " received " << got
               << " values, exceeding the memory cap " << cap;
            return os.str();
          }(),
          ErrorContext{fault_site_name(FaultSite::kReducerTask)}) {}

Simulator::Simulator(Config config, ResourceMeter* meter)
    : config_(config), meter_(meter), pool_(config.threads) {
  if (config_.machines == 0) config_.machines = 1;
  if (config_.faults != nullptr) {
    injector_ = FaultInjector(config_.faults->config);
    retry_ = config_.faults->retry;
  }
}

std::vector<KeyValue> Simulator::round(
    const std::vector<KeyValue>& input,
    const std::function<void(const std::vector<KeyValue>&,
                             std::vector<KeyValue>&)>& mapper,
    const std::function<void(std::uint64_t, const std::vector<std::uint64_t>&,
                             std::vector<KeyValue>&)>& reducer) {
  ++rounds_;
  if (meter_ != nullptr) {
    meter_->add_round();
  }

  // ---- Map phase: shard input contiguously, run mappers in parallel. ----
  // Each shard is ONE retriable task (FaultSite::kMapperShard). Pool tasks
  // must never throw (the worker loop would terminate the process), so
  // each slot records its outcome — exception, injected-fault count,
  // wasted emissions — and the calling thread folds the slots in shard
  // order after the join: deterministic accounting, first error wins.
  const std::size_t shards = config_.machines;
  const std::size_t shard_size = (input.size() + shards - 1) / shards;
  const std::uint64_t round_ord = rounds_;
  // The shuffle buffers outlive the round (see release_buffers): each
  // round refills the capacity an earlier one left.
  mapped_.resize(shards);
  for (std::vector<KeyValue>& out : mapped_) out.clear();
  std::vector<std::size_t> map_wasted(shards, 0);
  std::vector<std::size_t> map_faults(shards, 0);
  std::vector<std::exception_ptr> map_errors(shards);
  pool_.parallel_for(0, shards, [&](std::size_t s) {
    const std::size_t lo = s * shard_size;
    const std::size_t hi = std::min(input.size(), lo + shard_size);
    if (lo >= hi && !(s == 0 && input.empty())) return;
    std::vector<KeyValue> shard(input.begin() + static_cast<long>(lo),
                                input.begin() + static_cast<long>(hi));
    for (std::uint64_t attempt = 0;; ++attempt) {
      mapped_[s].clear();
      try {
        mapper(shard, mapped_[s]);
      } catch (...) {
        // The mapper's own exception is deterministic user code, not a
        // transient fault: surface it without retrying.
        map_errors[s] = std::current_exception();
        return;
      }
      if (!injector_.should_fail(FaultSite::kMapperShard, round_ord, s,
                                 attempt)) {
        return;
      }
      // Injected task death after its emissions entered the shuffle
      // fabric: the spilled messages are wasted work, the output is
      // discarded and the task re-executes.
      ++map_faults[s];
      map_wasted[s] += mapped_[s].size();
      if (attempt + 1 >= retry_.max_attempts) {
        mapped_[s].clear();
        map_errors[s] = std::make_exception_ptr(SubstrateFault(
            "mapper shard task failed; retry budget exhausted",
            {fault_site_name(FaultSite::kMapperShard), round_ord, attempt}));
        return;
      }
      retry_.backoff(injector_, FaultSite::kMapperShard, round_ord, s,
                     attempt);
    }
  });
  last_map_emissions_.assign(shards, 0);
  for (std::size_t s = 0; s < shards; ++s) {
    last_map_emissions_[s] = mapped_[s].size();
  }
  if (meter_ != nullptr) {
    std::size_t wasted = 0;
    std::size_t faults = 0;
    for (std::size_t s = 0; s < shards; ++s) {
      wasted += map_wasted[s];
      faults += map_faults[s];
    }
    meter_->add_messages(wasted);
    meter_->add_shuffle_bytes(wasted * sizeof(KeyValue));
    meter_->add_faults(faults);
  }
  for (std::size_t s = 0; s < shards; ++s) {
    if (map_errors[s] != nullptr) std::rethrow_exception(map_errors[s]);
  }

  // ---- Shuffle: group by key (single-threaded; metered as messages). ----
  std::size_t shuffle_volume = 0;
  for (auto& entry : grouped_) entry.second.clear();
  for (const auto& out : mapped_) {
    shuffle_volume += out.size();
    for (const KeyValue& kv : out) grouped_[kv.key].push_back(kv.value);
  }
  // A key this round did not use gives its buffer back, so keys of past
  // rounds never pile up.
  std::erase_if(grouped_,
                [](const auto& entry) { return entry.second.empty(); });
  if (meter_ != nullptr) {
    meter_->add_messages(shuffle_volume);
    meter_->add_shuffle_bytes(shuffle_volume * sizeof(KeyValue));
  }

  // Keys ascending: the reducers' deterministic order, and the cap check's
  // too — so a violation names the smallest offending key whatever order
  // the hash table yields them in.
  std::vector<std::uint64_t> keys;
  keys.reserve(grouped_.size());
  for (const auto& [key, values] : grouped_) keys.push_back(key);
  std::sort(keys.begin(), keys.end());
  if (config_.reducer_memory > 0) {
    for (const std::uint64_t key : keys) {
      const std::size_t got = grouped_.at(key).size();
      if (got > config_.reducer_memory) {
        throw ReducerMemoryExceeded(key, got, config_.reducer_memory);
      }
    }
  }

  // ---- Reduce phase: parallel over keys. ----
  // Each key is ONE retriable task (FaultSite::kReducerTask). A retried
  // reducer re-fetches its grouped input from the shuffle fabric, so every
  // failed attempt re-charges the task's input volume as messages. Same
  // per-slot collection / post-join folding discipline as the map phase.
  std::vector<std::vector<KeyValue>> reduced(keys.size());
  std::vector<std::size_t> red_refetched(keys.size(), 0);
  std::vector<std::size_t> red_faults(keys.size(), 0);
  std::vector<std::exception_ptr> red_errors(keys.size());
  pool_.parallel_for(0, keys.size(), [&](std::size_t i) {
    const std::uint64_t key = keys[i];
    const std::vector<std::uint64_t>& values = grouped_.at(key);
    for (std::uint64_t attempt = 0;; ++attempt) {
      reduced[i].clear();
      try {
        reducer(key, values, reduced[i]);
      } catch (...) {
        red_errors[i] = std::current_exception();
        return;
      }
      if (!injector_.should_fail(FaultSite::kReducerTask, round_ord, key,
                                 attempt)) {
        return;
      }
      ++red_faults[i];
      red_refetched[i] += values.size();
      if (attempt + 1 >= retry_.max_attempts) {
        reduced[i].clear();
        red_errors[i] = std::make_exception_ptr(SubstrateFault(
            "reducer task failed; retry budget exhausted",
            {fault_site_name(FaultSite::kReducerTask), round_ord, attempt}));
        return;
      }
      retry_.backoff(injector_, FaultSite::kReducerTask, round_ord, key,
                     attempt);
    }
  });
  if (meter_ != nullptr) {
    std::size_t refetched = 0;
    std::size_t faults = 0;
    for (std::size_t i = 0; i < keys.size(); ++i) {
      refetched += red_refetched[i];
      faults += red_faults[i];
    }
    meter_->add_messages(refetched);
    meter_->add_shuffle_bytes(refetched * sizeof(KeyValue));
    meter_->add_faults(faults);
  }
  for (std::size_t i = 0; i < keys.size(); ++i) {
    if (red_errors[i] != nullptr) std::rethrow_exception(red_errors[i]);
  }

  std::size_t emitted = 0;
  for (const auto& r : reduced) emitted += r.size();
  std::vector<KeyValue> output;
  output.reserve(emitted);
  for (const auto& r : reduced) {
    output.insert(output.end(), r.begin(), r.end());
  }
  return output;
}

void Simulator::release_buffers() noexcept {
  std::vector<std::vector<KeyValue>>().swap(mapped_);
  std::unordered_map<std::uint64_t, std::vector<std::uint64_t>>().swap(
      grouped_);
}

void emit_support_words(std::uint64_t group,
                        const std::vector<std::uint64_t>& indices,
                        std::vector<KeyValue>& emit) {
  std::uint64_t word = 0;
  std::uint64_t bits = 0;
  for (const std::uint64_t idx : indices) {
    if (bits != 0 && idx / 64 != word) {
      emit.push_back({(group << 32) | word, bits});
      bits = 0;
    }
    word = idx / 64;
    bits |= std::uint64_t{1} << (idx % 64);
  }
  if (bits != 0) emit.push_back({(group << 32) | word, bits});
}

std::vector<std::vector<std::uint32_t>> sample_round(
    Simulator& sim, const std::vector<double>& prob, std::size_t t,
    std::uint64_t round, std::uint64_t seed, ResourceMeter* meter) {
  // Same t cap the in-memory engine enforces (the contract is bitwise
  // agreement with SamplingEngine::draw, including its rejections).
  if (t > core::kMaxSparsifiersPerRound) {
    throw ConfigError("sample_round: at most 32 sparsifiers per round");
  }
  // Input record per edge: key = edge index, value = its inclusion
  // probability (bit-punned; mapreduce values are 64-bit words).
  std::vector<KeyValue> input;
  input.reserve(prob.size());
  for (std::size_t idx = 0; idx < prob.size(); ++idx) {
    input.push_back({idx, std::bit_cast<std::uint64_t>(prob[idx])});
  }

  const CounterRng round_rng = core::sampling_round_rng(seed, round);
  const auto output = sim.round(
      input,
      [&](const std::vector<KeyValue>& shard, std::vector<KeyValue>& emit) {
        for (const KeyValue& kv : shard) {
          std::uint64_t mask = core::sampling_mask(
              round_rng, t, kv.key, std::bit_cast<double>(kv.value));
          while (mask != 0) {
            emit.push_back({static_cast<std::uint64_t>(
                                __builtin_ctzll(mask)),
                            kv.key});
            mask &= mask - 1;
          }
        }
      },
      emit_support_words);

  // Reducer q's words follow reducer q-1's, each ascending: decoding in
  // output order appends every support's members in ascending order.
  std::vector<std::vector<std::uint32_t>> supports(t);
  std::size_t stored_total = 0;
  for (const KeyValue& kv : output) {
    const SupportWord w = decode_support_word(kv);
    std::vector<std::uint32_t>& support = supports[w.group];
    for (std::uint64_t bits = w.bits; bits != 0; bits &= bits - 1) {
      support.push_back(
          static_cast<std::uint32_t>(w.word * 64 + std::countr_zero(bits)));
    }
    stored_total += static_cast<std::size_t>(std::popcount(w.bits));
  }
  if (meter != nullptr) {
    meter->add_pass();
    meter->store_edges(stored_total);
  }
  return supports;
}

}  // namespace dp::mapreduce
