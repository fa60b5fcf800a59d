#pragma once
// Deterministic fault injection and retry — the robustness substrate of the
// fault-tolerant solve (see src/core/README.md, "Fault tolerance &
// determinism under retries").
//
// The paper's models (streaming passes, MapReduce rounds) describe
// computations whose units — one pass over the stream, one mapper shard,
// one reducer task — fail routinely at scale. The library injects such
// failures DETERMINISTICALLY: whether the event (site, a, b) fails on
// attempt `attempt` is a pure function of (seed, site, a, b, attempt)
// computed by the counter-based CounterRng, exactly like the sampling
// draws. Consequences:
//
//  - a faulty run is reproducible bit-for-bit from its seed, on any thread
//    count (injection decisions never depend on scheduling);
//  - retries are safe: sampling_mask and the sweep kernels are pure
//    functions of the frozen draw/state, so a re-executed pass or task
//    recomputes the identical output, and the solve's SolverResult is
//    bitwise identical to a fault-free run;
//  - the ResourceMeter honestly charges every retried pass and re-shuffled
//    message, so the model accounting reflects the faulty execution.
//
// Scripted faults (fail exactly the Nth event at a site, on one attempt or
// on every attempt) complement the rate-based injection for targeted tests
// — e.g. exhausting the retry budget to exercise graceful degradation.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/rng.hpp"

namespace dp {

/// Injection sites wired into the access substrates.
enum class FaultSite : std::uint32_t {
  /// Mid-pass EdgeStream failure at a deterministic arrival offset
  /// (streaming substrate; event key a = pass ordinal, b = phase:
  /// 0 = multiplier sweep, 1 = the draw's physical re-walk).
  kStreamPass = 1,
  /// Mapper-shard task failure (MapReduce simulator; a = simulator round
  /// ordinal, b = shard).
  kMapperShard = 2,
  /// Reducer task failure (MapReduce simulator; a = simulator round
  /// ordinal, b = reducer key).
  kReducerTask = 3,
};

const char* fault_site_name(FaultSite site) noexcept;

/// ScriptedFault::attempt wildcard: fail the event on EVERY attempt (the
/// way to exhaust a retry budget deterministically).
inline constexpr std::uint64_t kEveryAttempt = ~std::uint64_t{0};

/// Fail exactly the event (site, a, b), either on one specific attempt or
/// on every attempt (kEveryAttempt).
struct ScriptedFault {
  FaultSite site = FaultSite::kStreamPass;
  std::uint64_t a = 0;
  std::uint64_t b = 0;
  std::uint64_t attempt = kEveryAttempt;
};

struct FaultConfig {
  /// Seed of the injection stream (independent of the solver seed).
  std::uint64_t seed = 0xfa171'7e57ULL;
  /// Per-attempt failure probability of a streaming pass / mapper shard /
  /// reducer task. 0 = never.
  double stream_pass_rate = 0.0;
  double mapper_rate = 0.0;
  double reducer_rate = 0.0;
  /// Targeted failures, checked before the rates.
  std::vector<ScriptedFault> scripted;

  bool enabled() const noexcept {
    return stream_pass_rate > 0.0 || mapper_rate > 0.0 ||
           reducer_rate > 0.0 || !scripted.empty();
  }
};

/// Stateless injection decisions: pure functions of
/// (config.seed, site, a, b, attempt). Thread-safe; copies are cheap.
class FaultInjector {
 public:
  /// Default: injection disabled, every event succeeds.
  FaultInjector() = default;
  explicit FaultInjector(FaultConfig config);

  bool enabled() const noexcept { return enabled_; }

  /// Does event (site, a, b) fail on this attempt?
  bool should_fail(FaultSite site, std::uint64_t a, std::uint64_t b,
                   std::uint64_t attempt) const noexcept;

  /// Deterministic offset in [0, bound) at which a failing mid-pass event
  /// dies (the arrival index of the fatal edge). bound = 0 returns 0.
  std::uint64_t fail_offset(FaultSite site, std::uint64_t a, std::uint64_t b,
                            std::uint64_t attempt,
                            std::uint64_t bound) const noexcept;

 private:
  double rate_for(FaultSite site) const noexcept;

  FaultConfig config_;
  CounterRng rng_{0};
  bool enabled_ = false;
};

/// Retry budget for transient SubstrateFaults: a failed unit re-runs at
/// once, up to max_attempts executions, and the meter charges every
/// re-run.
struct RetryPolicy {
  /// Total executions allowed per event (first try + retries).
  std::size_t max_attempts = 4;
};

/// One solve's complete fault-tolerance plan: what fails and how hard the
/// substrates try before giving up. Copyable; installed on the substrate by
/// the solver (SolverOptions::faults) or directly by a caller.
struct FaultPlan {
  FaultConfig config;
  RetryPolicy retry;
};

}  // namespace dp
