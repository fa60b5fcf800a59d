#include "util/fault.hpp"

#include <utility>

namespace dp {

namespace {

/// Distinct sub-streams of the injection seed, so the fail and offset
/// draws of one event never correlate.
constexpr std::uint64_t kFailSalt = 0x0f41'1u;
constexpr std::uint64_t kOffsetSalt = 0x0ff5'e7u;

}  // namespace

const char* fault_site_name(FaultSite site) noexcept {
  switch (site) {
    case FaultSite::kStreamPass:
      return "stream.pass";
    case FaultSite::kMapperShard:
      return "mapreduce.mapper";
    case FaultSite::kReducerTask:
      return "mapreduce.reducer";
  }
  return "unknown";
}

FaultInjector::FaultInjector(FaultConfig config)
    : config_(std::move(config)),
      rng_(config_.seed),
      enabled_(config_.enabled()) {}

double FaultInjector::rate_for(FaultSite site) const noexcept {
  switch (site) {
    case FaultSite::kStreamPass:
      return config_.stream_pass_rate;
    case FaultSite::kMapperShard:
      return config_.mapper_rate;
    case FaultSite::kReducerTask:
      return config_.reducer_rate;
  }
  return 0.0;
}

bool FaultInjector::should_fail(FaultSite site, std::uint64_t a,
                                std::uint64_t b,
                                std::uint64_t attempt) const noexcept {
  if (!enabled_) return false;
  for (const ScriptedFault& f : config_.scripted) {
    if (f.site == site && f.a == a && f.b == b &&
        (f.attempt == kEveryAttempt || f.attempt == attempt)) {
      return true;
    }
  }
  const double rate = rate_for(site);
  if (!(rate > 0.0)) return false;
  const CounterRng site_rng =
      rng_.fork(kFailSalt ^ static_cast<std::uint64_t>(site));
  return site_rng.uniform_real(a, b, attempt) < rate;
}

std::uint64_t FaultInjector::fail_offset(FaultSite site, std::uint64_t a,
                                         std::uint64_t b,
                                         std::uint64_t attempt,
                                         std::uint64_t bound) const noexcept {
  if (bound == 0) return 0;
  const CounterRng site_rng =
      rng_.fork(kOffsetSalt ^ static_cast<std::uint64_t>(site));
  return site_rng.bits(a, b, attempt) % bound;
}

}  // namespace dp
