#pragma once
// In-memory (RAM) access substrate — the reference backend. Sweeps run as
// fixed-grain parallel chunks on the solver's pool (bitwise
// thread-count-invariant); draws are the batched counter-based sweep of
// core/sampling. Meters one adaptive round + one pass per draw, mirroring
// the accounting the solver reported before the substrate layer existed.

#include "access/substrate.hpp"

namespace dp::access {

class InMemorySubstrate final : public Substrate {
 public:
  InMemorySubstrate() = default;

  const char* name() const noexcept override { return "in_memory"; }

  void multiplier_sweep(const SweepKernel& kernel) override;

  const core::SamplingRound& draw(const std::vector<double>& prob,
                                  std::size_t t, std::uint64_t round,
                                  std::uint64_t seed) override;

 protected:
  void on_bind() override;

 private:
  core::SamplingEngine engine_;
};

}  // namespace dp::access
