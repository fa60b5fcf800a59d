#pragma once
// MapReduce simulator.
//
// Models the constrained-parallelism setting of the paper (Lattanzi et al.
// SPAA'11, Section 1): computation proceeds in synchronous rounds; each
// round maps over the (distributed) input, shuffles key/value pairs, and
// reduces per key under a per-reducer memory cap. The simulator meters
// rounds, shuffle volume (messages), and enforces the reducer memory cap —
// the quantities the paper's model constrains — while executing mappers and
// reducers in parallel on a thread pool for physical speed.
//
// Values are 64-bit words (enough for edge ids / packed edges / bitmap
// words); richer payloads pack into multiple words. Reducers that return a
// sparsifier support pack it into bitmap words (emit_support_words /
// decode_support_word below).
//
// Partitioned map output: a mapper reads its shard in place (a span over
// the round's input) and emits into its shard's Emitter, which appends
// each value straight to the shard's run for the value's key — the
// partitioner of a real MapReduce runtime. Every shuffled value is held
// once, as one 8-byte word; no regrouped copy is made. Reducer k reads
// k's runs from every shard in shard order (Values). The meters still
// charge each emitted record as one 16-byte KeyValue message (the wire
// format of the shuffle the model counts), whatever the simulator holds.
//
// Fault tolerance (util/fault): with a FaultPlan in Config, individual
// mapper-shard and reducer tasks fail deterministically (FaultSite::
// kMapperShard / kReducerTask, keyed by (simulator round, shard-or-key))
// and are retried per task up to the plan's budget — exactly the recovery
// real MapReduce runtimes perform. A failed mapper's emissions are wasted
// shuffle work (charged as messages, output discarded); a retried reducer
// re-fetches its input values (charged as messages). Task-level failures
// and their charges are collected per task slot and folded into the meter
// AFTER the phase joins, in deterministic shard/key order — so totals are
// thread-count-invariant and mapper/reducer outputs stay bitwise identical
// to a fault-free round. An exhausted budget surfaces as a SubstrateFault
// rethrown on the calling thread (never from inside a pool task).

#include <cstddef>
#include <cstdint>
#include <functional>
#include <iterator>
#include <span>
#include <vector>

#include "util/accounting.hpp"
#include "util/error.hpp"
#include "util/fault.hpp"
#include "util/thread_pool.hpp"

namespace dp::mapreduce {

struct KeyValue {
  std::uint64_t key;
  std::uint64_t value;
};

struct Config {
  /// Number of simulated machines (mapper shards).
  std::size_t machines = 8;
  /// Maximum values a single reducer may receive; 0 = unlimited. Models the
  /// O(n^{1+1/p}) central-processing cap.
  std::size_t reducer_memory = 0;
  /// Worker threads for physical execution (0 = hardware concurrency).
  std::size_t threads = 0;
  /// Task-level fault injection + retry budget; nullptr = fault-free. The
  /// plan must outlive the simulator (the access substrate passes its own
  /// stable copy).
  const FaultPlan* faults = nullptr;
};

/// Thrown when a reducer receives more values than Config::reducer_memory —
/// a deterministic model violation (the algorithm over-shipped to one
/// reducer), NOT a transient fault: it is never retried.
class ReducerMemoryExceeded : public ConfigError {
 public:
  explicit ReducerMemoryExceeded(std::size_t key, std::size_t got,
                                 std::size_t cap);
};

/// Map-side sink of one shard: partitions the shard's emissions by key as
/// they are made. push_back appends kv.value to the shard's run for
/// kv.key, so each key's run keeps its emission order. The runs live in
/// an open-addressing table keyed by their key, and push_back tries the
/// key's home slot inline (a std::unordered_map's bucket modulo per
/// emission slowed the batch pre-draw measurably; see core/README.md).
/// Owned by the Simulator, which keeps a shard's keys and runs (with
/// their capacity) across rounds until release_buffers().
class Emitter {
 public:
  Emitter() : slots_(64) {}

  void push_back(const KeyValue& kv) {
    Slot& slot = slots_[home(kv.key)];
    if (slot.used && slot.key == kv.key) {
      slot.run.push_back(kv.value);
    } else {
      run(kv.key).push_back(kv.value);
    }
  }

 private:
  friend class Simulator;
  struct Slot {
    bool used = false;
    std::uint64_t key = 0;
    std::vector<std::uint64_t> run;  // the key's values, emission order
  };

  std::size_t home(std::uint64_t key) const noexcept {
    return static_cast<std::size_t>((key * 0x9e3779b97f4a7c15ULL) >> shift_);
  }
  /// key's run, found past its home slot or added.
  std::vector<std::uint64_t>& run(std::uint64_t key);
  /// The slot holding key, or the empty slot where it belongs.
  std::size_t probe(std::uint64_t key) const noexcept;
  /// Values emitted since the last clear().
  std::size_t size() const noexcept;
  /// Empty every run, keeping its key and capacity.
  void clear() noexcept;

  std::vector<Slot> slots_;  // load at most 1/2
  std::size_t keys_ = 0;     // used slots
  unsigned shift_ = 58;      // 64 - log2(slots_.size())
};

/// A reducer's input: its key's runs from every shard, in shard order,
/// each in emission order. A read-only view into the Simulator's map
/// output, valid for the duration of the reducer call.
class Values {
 public:
  class iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = std::uint64_t;
    using difference_type = std::ptrdiff_t;
    using pointer = const std::uint64_t*;
    using reference = const std::uint64_t&;

    iterator() = default;
    reference operator*() const noexcept { return *pos_; }
    iterator& operator++() noexcept {
      if (++pos_ == run_end_) enter(run_ + 1);
      return *this;
    }
    iterator operator++(int) noexcept {
      iterator old = *this;
      ++*this;
      return old;
    }
    friend bool operator==(const iterator& a, const iterator& b) noexcept {
      return a.pos_ == b.pos_;  // runs are non-empty and disjoint
    }

   private:
    friend class Values;
    iterator(const std::span<const std::uint64_t>* run,
             const std::span<const std::uint64_t>* last) noexcept
        : last_(last) {
      enter(run);
    }
    void enter(const std::span<const std::uint64_t>* run) noexcept {
      run_ = run;
      pos_ = run == last_ ? nullptr : run->data();
      run_end_ = run == last_ ? nullptr : run->data() + run->size();
    }

    const std::span<const std::uint64_t>* run_ = nullptr;
    const std::span<const std::uint64_t>* last_ = nullptr;
    const std::uint64_t* pos_ = nullptr;  // nullptr = end
    const std::uint64_t* run_end_ = nullptr;
  };

  std::size_t size() const noexcept { return size_; }
  iterator begin() const noexcept {
    return iterator(runs_.data(), runs_.data() + runs_.size());
  }
  iterator end() const noexcept { return iterator(); }

 private:
  friend class Simulator;
  Values(std::span<const std::span<const std::uint64_t>> runs,
         std::size_t size) noexcept
      : runs_(runs), size_(size) {}

  std::span<const std::span<const std::uint64_t>> runs_;  // all non-empty
  std::size_t size_ = 0;
};

class Simulator {
 public:
  explicit Simulator(Config config, ResourceMeter* meter = nullptr);

  /// Execute one MapReduce round.
  ///
  /// * `input` is sharded contiguously across machines.
  /// * `mapper(shard, emit)` runs once per machine over its shard, a view
  ///   into `input`; `emit` partitions its output by key (Emitter).
  /// * `reducer(key, values, emit)` runs once per distinct key. `values`
  ///   arrive in shard order, and within a shard in emission order.
  ///
  /// Keys are checked against the reducer cap in ascending order, so a
  /// violation names the smallest offending key. Returns all reducer
  /// emissions, reducer by reducer in ascending key order. Counts one
  /// round and |shuffle| messages (plus the same volume in bytes — each
  /// shuffled record counts as one fixed 16-byte KeyValue, although the
  /// simulator holds only its 8-byte value — via add_shuffle_bytes,
  /// including wasted and re-fetched fault traffic). Reducer emissions
  /// are not metered. Each shard's runs stay allocated after the round,
  /// and the next round refills them, until release_buffers(); a key that
  /// a round does not emit in a shard frees its run's memory there.
  std::vector<KeyValue> round(
      const std::vector<KeyValue>& input,
      const std::function<void(std::span<const KeyValue>, Emitter&)>& mapper,
      const std::function<void(std::uint64_t, const Values&,
                               std::vector<KeyValue>&)>& reducer);

  /// Free the runs round() keeps. Until then every round reuses them,
  /// so memory the caller allocates between rounds never forces a later
  /// round's shuffle into fresh memory: a job's peak stays that of its
  /// largest round, however many rounds it runs.
  void release_buffers() noexcept;

  std::size_t rounds_executed() const noexcept { return rounds_; }

  /// Per-shard emission counts of the last round's map phase (the
  /// surviving attempt of each shard, in shard order) — the per-machine
  /// shuffle breakdown the access layer folds into its shard meters.
  const std::vector<std::size_t>& last_map_emissions() const noexcept {
    return last_map_emissions_;
  }

 private:
  Config config_;
  ResourceMeter* meter_;
  ThreadPool pool_;
  std::size_t rounds_ = 0;
  std::vector<std::size_t> last_map_emissions_;
  FaultInjector injector_;  // disabled unless config.faults is set
  RetryPolicy retry_;
  // The last round's shuffle: shard s's map output, partitioned by key.
  std::vector<Emitter> mapped_;
};

/// One decoded support word: the members of `group`'s support among the
/// indices [64 word, 64 word + 64).
struct SupportWord {
  std::uint64_t group;  // the emitting reducer's key
  std::uint64_t word;   // index / 64
  std::uint64_t bits;   // bit b set: index 64 word + b is a member
};

/// Reducer that returns the support `indices` of reducer key `group` as
/// bitmap words: one KeyValue per 64-index word holding at least one
/// member, key (group << 32) | word, value the word's bits. Words come
/// out ascending when `indices` ascend — which the shuffle guarantees
/// whenever the mappers walk their contiguous shards in order. Requires
/// group < 2^32 and indices < 2^38. Usable directly as a round's reducer.
void emit_support_words(std::uint64_t group, const Values& indices,
                        std::vector<KeyValue>& emit);

/// Inverse of emit_support_words for one emitted record.
inline SupportWord decode_support_word(const KeyValue& kv) noexcept {
  return {kv.key >> 32, kv.key & 0xffffffffu, kv.value};
}

/// One deferred-sampling round executed as a single MapReduce round: mappers
/// evaluate the counter-based inclusion mask of each edge in their shard
/// (core/sampling's sampling_mask — the same pure function of
/// (seed, round, q, edge) the in-memory SamplingEngine sweeps), emitting
/// (sparsifier q, edge index) pairs; reducer q returns sparsifier q's
/// support as support words. The reducers run in ascending q and each
/// emits its words ascending, so decoding the round's output in order
/// rebuilds every support ascending, with no sort. Returns the t supports
/// — bitwise identical to SamplingEngine::draw / draw_stream_mapped on the
/// same (prob, t, round, seed).
///
/// `meter` (typically the simulator's) is charged one pass (the mappers
/// collectively read the input once) and the stored incidences, mirroring
/// the in-memory engine's accounting; the simulator itself meters the round
/// and the shuffle volume.
std::vector<std::vector<std::uint32_t>> sample_round(
    Simulator& sim, const std::vector<double>& prob, std::size_t t,
    std::uint64_t round, std::uint64_t seed, ResourceMeter* meter = nullptr);

}  // namespace dp::mapreduce
