#pragma once
// Deterministic pseudo-random number generation.
//
// Every randomized component in the library draws from an explicitly seeded
// Rng so that experiments and tests are reproducible bit-for-bit. The
// generator is xoshiro256** seeded through SplitMix64, which is the
// recommended seeding procedure of the xoshiro authors and is both fast and
// statistically strong enough for sampling-based sketching.

#include <cstdint>
#include <limits>
#include <vector>

#include "util/hash.hpp"

namespace dp {

/// SplitMix64 step: used to expand a 64-bit seed into a full generator state
/// and as a cheap standalone mixer for hashing seeds.
constexpr std::uint64_t splitmix64(std::uint64_t& state) noexcept {
  state += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Counter-based (stateless) generator built on util/hash's mix64: every
/// draw is a pure function of the seed and a caller-supplied counter tuple,
/// so draws can be evaluated in any order, from any thread, and in any
/// execution substrate (in-memory sweep, streaming pass, MapReduce mapper)
/// while reproducing bit-for-bit. This is the randomness contract of the
/// batched sampling engine (core/sampling): the draw for (round, q, edge)
/// never depends on how many draws happened before it.
class CounterRng {
 public:
  explicit constexpr CounterRng(std::uint64_t seed) noexcept
      : seed_(mix64(seed ^ 0xa076'1d64'78bd'642fULL)) {}

  /// Raw 64 bits for a 1-, 2- or 3-word counter.
  constexpr std::uint64_t bits(std::uint64_t a) const noexcept {
    return mix_combine(seed_, a);
  }
  constexpr std::uint64_t bits(std::uint64_t a,
                               std::uint64_t b) const noexcept {
    return mix_combine(mix_combine(seed_, a), b);
  }
  constexpr std::uint64_t bits(std::uint64_t a, std::uint64_t b,
                               std::uint64_t c) const noexcept {
    return mix_combine(mix_combine(mix_combine(seed_, a), b), c);
  }

  /// Uniform real in [0, 1) for the given counter.
  constexpr double uniform_real(std::uint64_t a, std::uint64_t b,
                                std::uint64_t c) const noexcept {
    return static_cast<double>(bits(a, b, c) >> 11) * 0x1.0p-53;
  }

  /// Bernoulli trial with success probability p for the given counter.
  constexpr bool bernoulli(double p, std::uint64_t a, std::uint64_t b,
                           std::uint64_t c) const noexcept {
    return uniform_real(a, b, c) < p;
  }

  /// Number of fair-coin heads before the first tail (geometric, capped at
  /// 64) for the given counter: the subsample depth of an edge in the
  /// layered strength estimation (sparsify/strength), where each level
  /// keeps an edge with probability 1/2.
  int coin_flips_until_tail(std::uint64_t a, std::uint64_t b) const noexcept {
    const std::uint64_t word = bits(a, b);
    return word == ~0ULL ? 64 : __builtin_ctzll(~word);
  }

  /// Derive an independent child stream; deterministic in (seed, salt).
  constexpr CounterRng fork(std::uint64_t salt) const noexcept {
    return CounterRng(mix_combine(seed_, salt));
  }

  constexpr std::uint64_t seed() const noexcept { return seed_; }

 private:
  std::uint64_t seed_;
};

/// xoshiro256** generator. Satisfies UniformRandomBitGenerator so it can be
/// used with <random> distributions, but the members below cover all library
/// needs without the distribution-object overhead.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Construct from a 64-bit seed. Distinct seeds yield independent-looking
  /// streams; the library derives sub-seeds via fork().
  explicit Rng(std::uint64_t seed = 0x5eed0fda1ULL) noexcept { reseed(seed); }

  void reseed(std::uint64_t seed) noexcept {
    std::uint64_t sm = seed;
    for (auto& word : state_) word = splitmix64(sm);
  }

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept {
    return std::numeric_limits<result_type>::max();
  }

  result_type operator()() noexcept { return next(); }

  /// Next raw 64 bits.
  std::uint64_t next() noexcept {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Uniform in [0, bound). bound must be positive. Uses Lemire rejection
  /// sampling so the result is exactly uniform.
  std::uint64_t uniform(std::uint64_t bound) noexcept;

  /// Uniform in [lo, hi] inclusive.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) noexcept;

  /// Uniform real in [0, 1).
  double uniform_real() noexcept {
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
  }

  /// Uniform real in [lo, hi).
  double uniform_real(double lo, double hi) noexcept {
    return lo + (hi - lo) * uniform_real();
  }

  /// Bernoulli trial with success probability p (clamped to [0,1]).
  bool bernoulli(double p) noexcept { return uniform_real() < p; }

  /// Derive an independent child generator; deterministic in (state, salt).
  Rng fork(std::uint64_t salt) noexcept {
    std::uint64_t s = next() ^ (salt * 0x9e3779b97f4a7c15ULL);
    return Rng(splitmix64(s));
  }

  /// Fisher-Yates shuffle of a vector.
  template <typename T>
  void shuffle(std::vector<T>& v) noexcept {
    for (std::size_t i = v.size(); i > 1; --i) {
      std::size_t j = uniform(i);
      std::swap(v[i - 1], v[j]);
    }
  }

  /// Sample k distinct indices from [0, n) without replacement
  /// (Floyd's algorithm when k << n, shuffle prefix otherwise).
  std::vector<std::size_t> sample_without_replacement(std::size_t n,
                                                      std::size_t k);

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }
  std::uint64_t state_[4] = {};
};

}  // namespace dp
