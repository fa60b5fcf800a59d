#pragma once
// Stateless 64-bit mixing and the canonical undirected-edge key.
//
// mix64/mix_combine are what make the sampling draws counter-based: every
// per-(seed, round, q, edge) decision is a pure function of those words
// (core/sampling), so no hash state is drawn, stored or shipped.

#include <cstdint>

namespace dp {

/// Stateless 64-bit finalizer (the SplitMix64 output stage). Bijective, so
/// distinct inputs never collide; the avalanche quality is what makes
/// util/rng's CounterRng usable as a per-(round, q, edge) random draw.
constexpr std::uint64_t mix64(std::uint64_t z) noexcept {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Combine a hash state with one more word (odd multipliers keep the map
/// bijective in `h` for fixed `v` and vice versa).
constexpr std::uint64_t mix_combine(std::uint64_t h, std::uint64_t v) noexcept {
  return mix64(h + 0x9e3779b97f4a7c15ULL + v * 0xff51afd7ed558ccdULL);
}

/// Canonical 64-bit key for an undirected edge (i, j) with i, j < 2^32.
constexpr std::uint64_t edge_key(std::uint32_t i, std::uint32_t j) noexcept {
  return i < j ? (static_cast<std::uint64_t>(i) << 32) | j
               : (static_cast<std::uint64_t>(j) << 32) | i;
}

}  // namespace dp
