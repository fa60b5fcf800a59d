// Tests for the fault-tolerant solve (util/fault, core/checkpoint, the
// solver's degradation contract): deterministic injection, typed errors,
// retry transparency (a faulty run's SolverResult is bitwise identical to
// the fault-free run while the meter honestly charges the recovery),
// checkpoint round-trip/corruption, kill-after-round-k resume identity
// across all substrates and thread counts, and the all-or-nothing
// publication of the edge stream's shuffled-order cache under mid-pass
// death.

#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cstdint>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "access/in_memory.hpp"
#include "access/mapreduce.hpp"
#include "access/streaming.hpp"
#include "core/checkpoint.hpp"
#include "core/solver.hpp"
#include "graph/generators.hpp"
#include "stream/edge_stream.hpp"
#include "util/error.hpp"
#include "util/fault.hpp"
#include "util/hash.hpp"

namespace dp::core {
namespace {

SolverOptions base_options() {
  SolverOptions opt;
  opt.eps = 0.2;
  opt.p = 2.0;
  opt.seed = 101;
  opt.max_outer_rounds = 3;
  opt.sparsifiers_per_round = 4;
  return opt;
}

Graph test_graph() {
  Graph g = gen::gnm(120, 900, 511);
  gen::weight_uniform(g, 1.0, 12.0, 512);
  return g;
}

FaultPlan noisy_plan() {
  // Rates well above the 1% floor: a three-round solve has only a handful
  // of passes / task executions, so low rates would often draw zero
  // failures and the recovery path would go unexercised.
  FaultPlan plan;
  plan.config.seed = 0xbeef;
  plan.config.stream_pass_rate = 0.40;
  plan.config.mapper_rate = 0.25;
  plan.config.reducer_rate = 0.15;
  plan.retry.max_attempts = 8;
  return plan;
}

/// Everything the algorithm computes must be equal bitwise (the
/// cross-substrate contract of tests/test_substrate.cpp, reused for
/// faulty and resumed runs).
void expect_same_result(const SolverResult& a, const SolverResult& b,
                        const std::string& label) {
  EXPECT_EQ(a.value, b.value) << label;
  EXPECT_EQ(a.dual_bound, b.dual_bound) << label;
  EXPECT_EQ(a.certified_ratio, b.certified_ratio) << label;
  EXPECT_EQ(a.lambda, b.lambda) << label;
  EXPECT_EQ(a.beta, b.beta) << label;
  EXPECT_EQ(a.outer_rounds, b.outer_rounds) << label;
  EXPECT_EQ(a.oracle_calls, b.oracle_calls) << label;
  ASSERT_EQ(a.history.size(), b.history.size()) << label;
  for (std::size_t r = 0; r < a.history.size(); ++r) {
    EXPECT_EQ(a.history[r].round, b.history[r].round) << label;
    EXPECT_EQ(a.history[r].lambda, b.history[r].lambda) << label;
    EXPECT_EQ(a.history[r].beta, b.history[r].beta) << label;
    EXPECT_EQ(a.history[r].best_value, b.history[r].best_value) << label;
    EXPECT_EQ(a.history[r].stored_edges, b.history[r].stored_edges) << label;
    EXPECT_EQ(a.history[r].oracle_calls, b.history[r].oracle_calls) << label;
  }
  ASSERT_EQ(a.b_matching.num_edges(), b.b_matching.num_edges()) << label;
  for (EdgeId e = 0; e < a.b_matching.num_edges(); ++e) {
    ASSERT_EQ(a.b_matching.multiplicity(e), b.b_matching.multiplicity(e))
        << label << " edge " << e;
  }
}

// ---------------------------------------------------------------------------
// FaultInjector determinism.

TEST(FaultInjector, DecisionsArePureFunctionsOfSeedAndCounters) {
  FaultConfig config;
  config.seed = 77;
  config.stream_pass_rate = 0.3;
  config.mapper_rate = 0.1;
  const FaultInjector a(config);
  const FaultInjector b(config);
  int fails = 0;
  for (std::uint64_t pass = 0; pass < 200; ++pass) {
    for (std::uint64_t attempt = 0; attempt < 3; ++attempt) {
      const bool fa =
          a.should_fail(FaultSite::kStreamPass, pass, 0, attempt);
      EXPECT_EQ(fa, b.should_fail(FaultSite::kStreamPass, pass, 0, attempt));
      fails += fa ? 1 : 0;
      EXPECT_EQ(a.fail_offset(FaultSite::kStreamPass, pass, 0, attempt, 900),
                b.fail_offset(FaultSite::kStreamPass, pass, 0, attempt, 900));
      EXPECT_LT(a.fail_offset(FaultSite::kStreamPass, pass, 0, attempt, 900),
                900u);
    }
  }
  // ~30% of 600 draws: loose two-sided bound, deterministic given the seed.
  EXPECT_GT(fails, 100);
  EXPECT_LT(fails, 300);

  // Different seed, different schedule (with overwhelming probability
  // SOME of the 600 decisions differ).
  FaultConfig other = config;
  other.seed = 78;
  const FaultInjector c(other);
  bool any_diff = false;
  for (std::uint64_t pass = 0; pass < 200 && !any_diff; ++pass) {
    any_diff = a.should_fail(FaultSite::kStreamPass, pass, 0, 0) !=
               c.should_fail(FaultSite::kStreamPass, pass, 0, 0);
  }
  EXPECT_TRUE(any_diff);

  // Disabled injector never fails.
  const FaultInjector off;
  EXPECT_FALSE(off.enabled());
  EXPECT_FALSE(off.should_fail(FaultSite::kStreamPass, 0, 0, 0));
}

TEST(FaultInjector, ScriptedFaultsFireExactly) {
  FaultConfig config;
  config.scripted.push_back({FaultSite::kMapperShard, 2, 5, 0});
  config.scripted.push_back({FaultSite::kReducerTask, 1, 9, kEveryAttempt});
  const FaultInjector inj(config);
  EXPECT_TRUE(inj.enabled());
  EXPECT_TRUE(inj.should_fail(FaultSite::kMapperShard, 2, 5, 0));
  EXPECT_FALSE(inj.should_fail(FaultSite::kMapperShard, 2, 5, 1));  // retry ok
  EXPECT_FALSE(inj.should_fail(FaultSite::kMapperShard, 2, 6, 0));
  EXPECT_FALSE(inj.should_fail(FaultSite::kStreamPass, 2, 5, 0));
  for (std::uint64_t attempt = 0; attempt < 8; ++attempt) {
    EXPECT_TRUE(inj.should_fail(FaultSite::kReducerTask, 1, 9, attempt));
  }
}

// ---------------------------------------------------------------------------
// Typed error hierarchy.

TEST(SolverErrors, HierarchyAndContextFormatting) {
  const SubstrateFault fault("pass died", {"stream.pass", 3, 1});
  EXPECT_NE(dynamic_cast<const SolverError*>(&fault), nullptr);
  const std::string what = fault.what();
  EXPECT_NE(what.find("pass died"), std::string::npos);
  EXPECT_NE(what.find("stream.pass"), std::string::npos);
  EXPECT_NE(what.find("round=3"), std::string::npos);
  EXPECT_NE(what.find("attempt=1"), std::string::npos);
  EXPECT_EQ(fault.context().site, "stream.pass");
  EXPECT_EQ(fault.context().round, 3u);
  EXPECT_EQ(fault.context().attempt, 1u);

  // Context-free errors format without the bracket suffix.
  const ConfigError plain("bad eps");
  EXPECT_STREQ(plain.what(), "bad eps");

  // All three leaf types are SolverErrors (catchable as one family).
  EXPECT_THROW(throw CheckpointCorrupt("x"), SolverError);
  EXPECT_THROW(throw SubstrateFault("x"), SolverError);
  EXPECT_THROW(throw ConfigError("x"), SolverError);
}

// ---------------------------------------------------------------------------
// Retry transparency: injected faults change the meter, never the result.

TEST(FaultTolerance, StreamingFaultsAreInvisibleToTheResult) {
  const Graph g = test_graph();
  SolverOptions ref_opt = base_options();
  ref_opt.oracle.threads = 1;
  access::StreamingSubstrate clean_sub;
  ref_opt.substrate = &clean_sub;
  const SolverResult clean = solve_matching(g, ref_opt);
  const std::size_t clean_passes = clean_sub.meter().passes();
  EXPECT_EQ(clean_sub.meter().faults(), 0u);

  for (const std::size_t threads : {1, 2, 8}) {
    access::StreamingSubstrate faulty_sub;
    SolverOptions opt = base_options();
    opt.oracle.threads = threads;
    opt.substrate = &faulty_sub;
    opt.faults = noisy_plan();
    const SolverResult faulty = solve_matching(g, opt);
    const std::string label = "streaming threads=" + std::to_string(threads);
    expect_same_result(clean, faulty, label);
    EXPECT_EQ(faulty.status, SolverStatus::kComplete) << label;
    // The recovery is visible where it belongs: the meter. Every injected
    // fault re-walked a pass.
    EXPECT_GT(faulty_sub.meter().faults(), 0u) << label;
    EXPECT_EQ(faulty_sub.meter().passes(),
              clean_passes + faulty_sub.meter().faults())
        << label;
  }
}

TEST(FaultTolerance, MapReduceTaskFaultsAreInvisibleToTheResult) {
  const Graph g = test_graph();
  SolverOptions ref_opt = base_options();
  ref_opt.oracle.threads = 1;
  access::MapReduceSubstrate clean_sub;
  ref_opt.substrate = &clean_sub;
  const SolverResult clean = solve_matching(g, ref_opt);
  const std::size_t clean_messages = clean_sub.meter().messages();
  EXPECT_EQ(clean_sub.meter().faults(), 0u);

  for (const std::size_t threads : {1, 2, 8}) {
    access::MapReduceSubstrate faulty_sub;
    SolverOptions opt = base_options();
    opt.oracle.threads = threads;
    opt.substrate = &faulty_sub;
    opt.faults = noisy_plan();
    const SolverResult faulty = solve_matching(g, opt);
    const std::string label = "mapreduce threads=" + std::to_string(threads);
    expect_same_result(clean, faulty, label);
    EXPECT_EQ(faulty.status, SolverStatus::kComplete) << label;
    EXPECT_GT(faulty_sub.meter().faults(), 0u) << label;
    // Wasted mapper emissions / reducer re-fetches are charged as shuffle.
    EXPECT_GT(faulty_sub.meter().messages(), clean_messages) << label;
  }
}

TEST(FaultTolerance, InMemorySubstrateHasNoFailingUnit) {
  const Graph g = test_graph();
  access::InMemorySubstrate sub;
  SolverOptions opt = base_options();
  opt.substrate = &sub;
  opt.faults = noisy_plan();
  const SolverResult result = solve_matching(g, opt);
  EXPECT_EQ(result.status, SolverStatus::kComplete);
  EXPECT_EQ(sub.meter().faults(), 0u);
}

// ---------------------------------------------------------------------------
// Graceful degradation on an exhausted retry budget.

TEST(FaultTolerance, ExhaustedStreamingBudgetDegradesGracefully) {
  const Graph g = test_graph();
  access::StreamingSubstrate sub;
  SolverOptions opt = base_options();
  opt.oracle.threads = 2;
  opt.substrate = &sub;
  // Round 1's opening sweep (pass ordinal 1, phase 0) dies on EVERY
  // attempt: round 0 completes, then the budget exhausts.
  opt.faults.config.scripted.push_back(
      {FaultSite::kStreamPass, 1, 0, kEveryAttempt});
  opt.faults.retry.max_attempts = 3;
  const SolverResult result = solve_matching(g, opt);
  EXPECT_EQ(result.status, SolverStatus::kDegraded);
  EXPECT_EQ(result.outer_rounds, 1u);
  EXPECT_NE(result.fault_detail.find("stream.pass"), std::string::npos);
  // Best-so-far primal with a sound certificate, not an exception.
  EXPECT_GT(result.value, 0.0);
  EXPECT_GT(result.lambda, 0.0);
  EXPECT_GT(result.certified_ratio, 0.0);
  EXPECT_GE(result.dual_bound, result.value);
  EXPECT_EQ(sub.meter().faults(), 3u);  // one per attempt
}

TEST(FaultTolerance, ExhaustedMapperBudgetDegradesGracefully) {
  const Graph g = test_graph();
  access::MapReduceSubstrate sub;
  SolverOptions opt = base_options();
  opt.substrate = &sub;
  // The first simulator round's shard-0 mapper dies on every attempt: the
  // solve degrades before ANY sampling round completes and still returns
  // the initial incumbent.
  opt.faults.config.scripted.push_back(
      {FaultSite::kMapperShard, 1, 0, kEveryAttempt});
  opt.faults.retry.max_attempts = 2;
  const SolverResult result = solve_matching(g, opt);
  EXPECT_EQ(result.status, SolverStatus::kDegraded);
  EXPECT_EQ(result.outer_rounds, 0u);
  EXPECT_NE(result.fault_detail.find("mapreduce.mapper"), std::string::npos);
  EXPECT_GT(result.value, 0.0);
  EXPECT_GT(result.certified_ratio, 0.0);
  EXPECT_GE(result.dual_bound, result.value);
}

// ---------------------------------------------------------------------------
// Checkpoint serialization.

RoundCheckpoint sample_checkpoint() {
  RoundCheckpoint ck;
  ck.solver_seed = 101;
  ck.eps = 0.2;
  ck.p = 2.0;
  ck.sparsifiers = 4;
  ck.sample_seed = 0xabcdef;
  ck.n = 7;
  ck.m = 9;
  ck.retained = 8;
  ck.levels = 5;
  ck.next_round = 2;
  ck.outer_rounds = 2;
  ck.oracle_calls = 17;
  ck.best_value = 12.5;
  ck.beta = 0.75;
  ck.best_support = {{0, 1}, {4, 2}};
  ck.duals.scale = 0.375;
  ck.duals.xik = {{3, 0.5}, {1, 0.25}, {34, 1.0 / 3.0}};  // activation order
  ck.duals.xi = {0.5, 0.25, 0, 0, 0, 0, 1.0 / 3.0};
  ck.duals.odd_sets = {OddSetVar{1, {0, 2, 4}, 0.125},
                       OddSetVar{0, {1, 3, 5}, 0.0625}};
  ck.history = {RoundStats{1, 0.5, 0.7, 11.0, 40, 8},
                RoundStats{2, 0.6, 0.75, 12.5, 44, 9}};
  // Both meters hold 22 distinct counter values that exercise every byte
  // lane, with running <= peak on both gauges.
  for (std::uint64_t which = 0; which < 2; ++which) {
    ResourceMeter::Counters values{};
    for (std::uint64_t c = 0; c < values.size(); ++c) {
      values[c] = (c + 1 + 100 * which) << (2 * c);
    }
    (which == 0 ? ck.solve_meter : ck.substrate_meter) = ResourceMeter(values);
  }
  return ck;
}

TEST(Checkpoint, SerializeDeserializeRoundTrip) {
  const RoundCheckpoint ck = sample_checkpoint();
  const std::vector<std::uint8_t> bytes = ck.serialize();
  const RoundCheckpoint back = RoundCheckpoint::deserialize(bytes);

  EXPECT_EQ(back.solver_seed, ck.solver_seed);
  EXPECT_EQ(back.eps, ck.eps);
  EXPECT_EQ(back.p, ck.p);
  EXPECT_EQ(back.sparsifiers, ck.sparsifiers);
  EXPECT_EQ(back.sample_seed, ck.sample_seed);
  EXPECT_EQ(back.n, ck.n);
  EXPECT_EQ(back.m, ck.m);
  EXPECT_EQ(back.retained, ck.retained);
  EXPECT_EQ(back.levels, ck.levels);
  EXPECT_EQ(back.next_round, ck.next_round);
  EXPECT_EQ(back.outer_rounds, ck.outer_rounds);
  EXPECT_EQ(back.oracle_calls, ck.oracle_calls);
  EXPECT_EQ(back.best_value, ck.best_value);
  EXPECT_EQ(back.beta, ck.beta);
  EXPECT_EQ(back.best_support, ck.best_support);
  EXPECT_EQ(back.duals.scale, ck.duals.scale);
  // Exact doubles AND activation order.
  EXPECT_EQ(back.duals.xik, ck.duals.xik);
  EXPECT_EQ(back.duals.xi, ck.duals.xi);
  ASSERT_EQ(back.duals.odd_sets.size(), ck.duals.odd_sets.size());
  for (std::size_t s = 0; s < ck.duals.odd_sets.size(); ++s) {
    EXPECT_EQ(back.duals.odd_sets[s].level, ck.duals.odd_sets[s].level);
    EXPECT_EQ(back.duals.odd_sets[s].members, ck.duals.odd_sets[s].members);
    EXPECT_EQ(back.duals.odd_sets[s].value, ck.duals.odd_sets[s].value);
  }
  ASSERT_EQ(back.history.size(), ck.history.size());
  for (std::size_t r = 0; r < ck.history.size(); ++r) {
    EXPECT_EQ(back.history[r].round, ck.history[r].round);
    EXPECT_EQ(back.history[r].lambda, ck.history[r].lambda);
    EXPECT_EQ(back.history[r].best_value, ck.history[r].best_value);
  }
  EXPECT_EQ(back.solve_meter.counters(), ck.solve_meter.counters());
  EXPECT_EQ(back.substrate_meter.counters(), ck.substrate_meter.counters());
}

TEST(Checkpoint, WireFormatIsV6) {
  // The checksum64 of sample_checkpoint() as serialized: a changed layout,
  // counter order or payload checksum fails here. The v6 bytes are the v5
  // bytes with the version patched and the payload checksum recomputed by
  // checksum64.
  const std::vector<std::uint8_t> bytes = sample_checkpoint().serialize();
  EXPECT_EQ(RoundCheckpoint::kVersion, 6u);
  EXPECT_EQ(bytes.size(), 836u);
  EXPECT_EQ(checksum64(bytes.data(), bytes.size()), 0xff8ce7500a5b9466ULL);
}

TEST(Checkpoint, RejectsMeterRunningAbovePeak) {
  // A checksum-valid checkpoint whose meter holds a running stored or
  // resident count above its peak cannot come from a solve; deserialize
  // refuses it instead of resuming with an impossible meter.
  using M = ResourceMeter;
  for (const auto& [running, peak] :
       {std::pair{M::kStoredEdges, M::kPeakEdges},
        std::pair{M::kResidentEdges, M::kPeakResidentEdges}}) {
    for (const bool substrate : {false, true}) {
      const std::string label = std::string(M::kCounterNames[running]) +
                                (substrate ? " substrate" : " solve");
      RoundCheckpoint ck = sample_checkpoint();
      M& meter = substrate ? ck.substrate_meter : ck.solve_meter;
      M::Counters values{};
      values[peak] = 5;
      values[running] = 5;
      meter = M(values);
      EXPECT_NO_THROW(RoundCheckpoint::deserialize(ck.serialize())) << label;
      values[running] = 6;
      meter = M(values);
      EXPECT_THROW(RoundCheckpoint::deserialize(ck.serialize()),
                   CheckpointCorrupt)
          << label;
    }
  }
}

TEST(Checkpoint, RejectsAnOddSetCountBeyondThePayload) {
  // A checksum-valid checkpoint whose odd-set count promises more sets than
  // the remaining payload can hold is CheckpointCorrupt — never a
  // length_error or bad_alloc from reserving that many sets.
  const std::vector<std::uint8_t> bytes = sample_checkpoint().serialize();
  EXPECT_NO_THROW(RoundCheckpoint::deserialize(bytes));
  // Header 24 bytes; the payload reaches the odd-set count after identity
  // 76, position 24, incumbent 24 + 16 per support entry, then scale 8,
  // xik count 8 + 16 per pair and xi count 8 + 8 per entry.
  const RoundCheckpoint ck = sample_checkpoint();
  const std::size_t at = 24 + 76 + 24 + 24 + 16 * ck.best_support.size() +
                         8 + 8 + 16 * ck.duals.xik.size() + 8 +
                         8 * ck.duals.xi.size();
  auto u64_at = [&bytes](std::size_t pos) {
    std::uint64_t x = 0;
    for (int i = 0; i < 8; ++i) {
      x |= static_cast<std::uint64_t>(bytes[pos + static_cast<std::size_t>(i)])
           << (8 * i);
    }
    return x;
  };
  ASSERT_EQ(u64_at(at), ck.duals.odd_sets.size());
  for (const int bits : {61, 40}) {
    std::vector<std::uint8_t> patched = bytes;
    const std::uint64_t count = std::uint64_t{1} << bits;
    for (int i = 0; i < 8; ++i) {
      patched[at + static_cast<std::size_t>(i)] =
          static_cast<std::uint8_t>(count >> (8 * i));
    }
    // Re-seal: the checksum covers the payload that follows the header.
    const std::uint64_t sum =
        checksum64(patched.data() + 24, patched.size() - 24);
    for (int i = 0; i < 8; ++i) {
      patched[16 + static_cast<std::size_t>(i)] =
          static_cast<std::uint8_t>(sum >> (8 * i));
    }
    EXPECT_THROW(RoundCheckpoint::deserialize(patched), CheckpointCorrupt)
        << "count 2^" << bits;
  }
}

TEST(Checkpoint, SerializeReservesExactly) {
  // serialize() reserves the exact wire size up front, so it builds the
  // payload without ever regrowing (and copying) its buffer.
  const std::vector<std::uint8_t> sample = sample_checkpoint().serialize();
  EXPECT_EQ(sample.capacity(), sample.size());
  SolverOptions opt = base_options();
  std::size_t checked = 0;
  opt.on_checkpoint = [&checked](const RoundCheckpoint& ck) {
    const std::vector<std::uint8_t> bytes = ck.serialize();
    EXPECT_EQ(bytes.capacity(), bytes.size()) << "round " << ck.next_round;
    ++checked;
    return true;
  };
  (void)solve_matching(test_graph(), opt);
  EXPECT_GT(checked, 0u);
}

TEST(Checkpoint, EveryFlippedByteIsRejected) {
  const std::vector<std::uint8_t> bytes = sample_checkpoint().serialize();
  // Flip each bit of every byte (header AND payload): deserialize must
  // reject each corrupted buffer with CheckpointCorrupt — never crash,
  // never return a half-restored checkpoint.
  for (std::size_t pos = 0; pos < bytes.size(); ++pos) {
    for (int bit = 0; bit < 8; ++bit) {
      std::vector<std::uint8_t> corrupt = bytes;
      corrupt[pos] ^= static_cast<std::uint8_t>(1u << bit);
      EXPECT_THROW(RoundCheckpoint::deserialize(corrupt), CheckpointCorrupt)
          << "byte " << pos << " bit " << bit;
    }
  }
  // Truncations at a sample of lengths are rejected too.
  for (std::size_t len : {std::size_t{0}, std::size_t{3}, std::size_t{23},
                          bytes.size() / 2, bytes.size() - 1}) {
    std::vector<std::uint8_t> prefix(bytes.begin(),
                                     bytes.begin() + static_cast<long>(len));
    EXPECT_THROW(RoundCheckpoint::deserialize(prefix), CheckpointCorrupt)
        << "length " << len;
  }
}

TEST(Checkpoint, TwoFlippedSignBitsAreRejected) {
  // Damage to two words at once must not cancel in the checksum. A
  // multiply-only lane carries a change upward only, so flipping bit 63 of
  // any two words (eps's and p's sign bits, say) would pass it and resume
  // with eps = -0.2 and p = -2.0.
  const RoundCheckpoint ck = sample_checkpoint();
  const std::vector<std::uint8_t> bytes = ck.serialize();
  // Header 24 bytes; the payload starts with solver_seed, eps, p.
  auto u64_at = [&bytes](std::size_t pos) {
    std::uint64_t x = 0;
    for (int i = 0; i < 8; ++i) {
      x |= static_cast<std::uint64_t>(bytes[pos + static_cast<std::size_t>(i)])
           << (8 * i);
    }
    return x;
  };
  ASSERT_EQ(u64_at(24 + 8), std::bit_cast<std::uint64_t>(ck.eps));
  ASSERT_EQ(u64_at(24 + 16), std::bit_cast<std::uint64_t>(ck.p));
  std::vector<std::uint8_t> corrupt = bytes;
  corrupt[24 + 15] ^= 0x80;
  corrupt[24 + 23] ^= 0x80;
  EXPECT_THROW(RoundCheckpoint::deserialize(corrupt), CheckpointCorrupt);
  // The same for the top bit of every pair of 8-byte payload words.
  for (std::size_t a = 24 + 7; a < bytes.size(); a += 8) {
    for (std::size_t b = a + 8; b < bytes.size(); b += 8) {
      corrupt = bytes;
      corrupt[a] ^= 0x80;
      corrupt[b] ^= 0x80;
      EXPECT_THROW(RoundCheckpoint::deserialize(corrupt), CheckpointCorrupt)
          << "bytes " << a << " and " << b;
    }
  }
}

// ---------------------------------------------------------------------------
// Kill-after-round-k resume: bitwise identity across substrates & threads.

enum class SubKind { kInMemory, kStreaming, kMapReduce };

TEST(Checkpoint, KillAndResumeIsBitwiseIdenticalEverywhere) {
  const Graph g = test_graph();
  SolverOptions ref_opt = base_options();
  ref_opt.oracle.threads = 1;
  const SolverResult ref = solve_matching(g, ref_opt);  // clean, fault-free
  ASSERT_GT(ref.outer_rounds, 1u);  // the kill point must be interior

  for (const SubKind kind :
       {SubKind::kInMemory, SubKind::kStreaming, SubKind::kMapReduce}) {
    for (const std::size_t threads : {1, 2, 8}) {
      access::InMemorySubstrate in_memory;
      access::StreamingSubstrate streaming;
      access::MapReduceSubstrate map_reduce;
      access::Substrate* sub = kind == SubKind::kInMemory
                                   ? static_cast<access::Substrate*>(&in_memory)
                               : kind == SubKind::kStreaming
                                   ? static_cast<access::Substrate*>(&streaming)
                                   : &map_reduce;
      const std::string label = std::string(sub->name()) + " threads=" +
                                std::to_string(threads);

      // Phase 1: run WITH fault injection, kill after round 1 via the
      // checkpoint hook (serialize through the wire format — the real
      // crash-recovery path).
      SolverOptions opt = base_options();
      opt.oracle.threads = threads;
      opt.substrate = sub;
      opt.faults = noisy_plan();
      std::vector<std::uint8_t> blob;
      opt.on_checkpoint = [&blob](const RoundCheckpoint& ck) {
        if (ck.next_round == 1) {
          blob = ck.serialize();
          return false;  // die here
        }
        return true;
      };
      const SolverResult killed = solve_matching(g, opt);
      EXPECT_EQ(killed.status, SolverStatus::kInterrupted) << label;
      ASSERT_FALSE(blob.empty()) << label;

      // Phase 2: resume from the serialized checkpoint on a FRESH
      // substrate (the dead worker's state is gone), faults still on.
      const RoundCheckpoint ck = RoundCheckpoint::deserialize(blob);
      access::InMemorySubstrate in_memory2;
      access::StreamingSubstrate streaming2;
      access::MapReduceSubstrate map_reduce2;
      access::Substrate* sub2 =
          kind == SubKind::kInMemory
              ? static_cast<access::Substrate*>(&in_memory2)
          : kind == SubKind::kStreaming
              ? static_cast<access::Substrate*>(&streaming2)
              : &map_reduce2;
      SolverOptions resume_opt = base_options();
      resume_opt.oracle.threads = threads;
      resume_opt.substrate = sub2;
      resume_opt.faults = noisy_plan();
      Solver solver(g, resume_opt);
      const SolverResult resumed = solver.solve(ck);

      // The interrupted + resumed faulty run must be bitwise identical to
      // the clean uninterrupted reference.
      expect_same_result(ref, resumed, label);
      EXPECT_EQ(resumed.status, SolverStatus::kComplete) << label;
    }
  }
}

TEST(Checkpoint, ResumeMeterContinuesWhereTheSolveLeftOff) {
  // Fault-free kill/resume: even the meters (every counter of the solve
  // and substrate meters) must match the uninterrupted run exactly.
  const Graph g = test_graph();
  access::StreamingSubstrate whole_sub;
  SolverOptions whole_opt = base_options();
  whole_opt.substrate = &whole_sub;
  const SolverResult whole = solve_matching(g, whole_opt);
  ASSERT_GT(whole.outer_rounds, 1u);

  access::StreamingSubstrate kill_sub;
  SolverOptions kill_opt = base_options();
  kill_opt.substrate = &kill_sub;
  std::vector<std::uint8_t> blob;
  kill_opt.on_checkpoint = [&blob](const RoundCheckpoint& ck) {
    if (ck.next_round == 2) {
      blob = ck.serialize();
      return false;
    }
    return true;
  };
  (void)solve_matching(g, kill_opt);
  ASSERT_FALSE(blob.empty());

  const RoundCheckpoint ck = RoundCheckpoint::deserialize(blob);
  access::StreamingSubstrate resume_sub;
  SolverOptions resume_opt = base_options();
  resume_opt.substrate = &resume_sub;
  Solver solver(g, resume_opt);
  const SolverResult resumed = solver.solve(ck);

  expect_same_result(whole, resumed, "streaming meter-resume");
  EXPECT_EQ(resumed.meter.summary(), whole.meter.summary());
  EXPECT_EQ(resume_sub.meter().summary(), whole_sub.meter().summary());
}

TEST(Checkpoint, ResumeRejectsAMismatchedConfiguration) {
  const Graph g = test_graph();
  SolverOptions opt = base_options();
  std::vector<std::uint8_t> blob;
  opt.on_checkpoint = [&blob](const RoundCheckpoint& ck) {
    blob = ck.serialize();
    return false;
  };
  (void)solve_matching(g, opt);
  ASSERT_FALSE(blob.empty());
  const RoundCheckpoint ck = RoundCheckpoint::deserialize(blob);

  SolverOptions wrong_eps = base_options();
  wrong_eps.eps = 0.25;
  EXPECT_THROW(Solver(g, wrong_eps).solve(ck), ConfigError);

  SolverOptions wrong_seed = base_options();
  wrong_seed.seed = 102;
  EXPECT_THROW(Solver(g, wrong_seed).solve(ck), ConfigError);

  // Different instance (edge count) is rejected too.
  Graph other = gen::gnm(120, 901, 513);
  gen::weight_uniform(other, 1.0, 12.0, 514);
  EXPECT_THROW(Solver(other, base_options()).solve(ck), ConfigError);

  // SolverOptions::resume_from routes through the same validation.
  SolverOptions via_options = base_options();
  via_options.eps = 0.25;
  via_options.resume_from = &ck;
  EXPECT_THROW(Solver(g, via_options).solve(), ConfigError);
}

TEST(Checkpoint, ResumeRejectsASnapshotOutsideTheInstance) {
  // The checksum proves the bytes are the ones serialize wrote, not that
  // they index this instance: each defect below survives the wire format
  // and must still stop the resume before it writes outside the state.
  const Graph g = test_graph();
  SolverOptions opt = base_options();
  std::vector<std::uint8_t> blob;
  opt.on_checkpoint = [&blob](const RoundCheckpoint& ck) {
    blob = ck.serialize();
    return false;
  };
  (void)solve_matching(g, opt);
  ASSERT_FALSE(blob.empty());
  const RoundCheckpoint cut = RoundCheckpoint::deserialize(blob);
  EXPECT_NO_THROW(Solver(g, base_options()).solve(cut));

  // Each defect passes the reader and must fail the resume.
  const auto expect_rejected = [&g](const RoundCheckpoint& bad,
                                    const char* label) {
    const RoundCheckpoint back = RoundCheckpoint::deserialize(bad.serialize());
    EXPECT_THROW(Solver(g, base_options()).solve(back), CheckpointCorrupt)
        << label;
  };
  RoundCheckpoint key = cut;
  key.duals.xik.emplace_back(cut.n * static_cast<std::uint64_t>(cut.levels),
                             0.5);
  expect_rejected(key, "xik key n*L");
  RoundCheckpoint xi = cut;
  xi.duals.xi.push_back(0.0);
  expect_rejected(xi, "extra xi entry");
  RoundCheckpoint member = cut;
  member.duals.odd_sets.push_back(
      OddSetVar{0, {0, 1, static_cast<Vertex>(cut.n)}, 0.125});
  expect_rejected(member, "odd-set member n");
  RoundCheckpoint edge = cut;
  edge.best_support.emplace_back(cut.m, 1);
  expect_rejected(edge, "support edge m");
}

// ---------------------------------------------------------------------------
// Mid-pass death must never publish a partial shuffled-order cache entry.

TEST(FaultTolerance, ShuffledOrderCachePublishesAllOrNothing) {
  Graph g = gen::gnm(150, 1200, 907);
  gen::weight_uniform(g, 1.0, 4.0, 908);
  const EdgeStream stream(g, nullptr);
  const std::size_t m = g.num_edges();

  constexpr int kThreads = 8;
  constexpr int kIterations = 24;
  std::atomic<int> died{0};
  std::atomic<int> completed{0};
  std::atomic<int> broken_passes{0};
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int tid = 0; tid < kThreads; ++tid) {
    workers.emplace_back([&, tid] {
      for (int it = 0; it < kIterations; ++it) {
        // Four seeds raced by all threads; a deterministic subset of the
        // passes dies mid-pass — including first passes, which are the
        // ones that build and publish the cache entry.
        const auto seed = static_cast<std::uint64_t>(it % 4);
        const std::size_t die_at =
            ((tid + it) % 3 == 0)
                ? (static_cast<std::size_t>(tid) * 131 + it * 37) % m
                : ~std::size_t{0};
        std::vector<char> seen(m, 0);
        std::size_t count = 0;
        try {
          std::size_t arrival = 0;
          stream.for_each_pass_shuffled_indexed(
              seed, [&](EdgeId idx, const Edge&) {
                if (arrival++ == die_at) {
                  throw SubstrateFault("mid-pass death", {"test", 0, 0});
                }
                seen[idx] = 1;
                ++count;
              });
          // A completed pass must have visited a FULL permutation: every
          // edge exactly once — a partially built entry would repeat or
          // drop indices.
          bool full = count == m;
          for (std::size_t e = 0; e < m && full; ++e) full = seen[e] != 0;
          if (!full) broken_passes.fetch_add(1);
          completed.fetch_add(1);
        } catch (const SubstrateFault&) {
          died.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& w : workers) w.join();
  EXPECT_GT(died.load(), 0);
  EXPECT_GT(completed.load(), 0);
  EXPECT_EQ(broken_passes.load(), 0);
}

}  // namespace
}  // namespace dp::core
