#pragma once
// Stateless 64-bit mixing, the canonical undirected-edge key and the
// library's one byte-string checksum.
//
// mix64/mix_combine are what make the sampling draws counter-based: every
// per-(seed, round, q, edge) decision is a pure function of those words
// (core/sampling), so no hash state is drawn, stored or shipped.
// checksum64 seals the two wire formats, DPEF edge files
// (stream/edge_file) and round checkpoints (core/checkpoint).

#include <cstddef>
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

/// Word-wise 64-bit checksum of `len` bytes, for corruption detection (not
/// for adversaries). Four independent lanes take the 8-byte words of each
/// 32-byte stride in turn through xxHash64's round,
/// h = rotl(h + w * P2, 31) * P1; every word is loaded as little-endian,
/// so the value does not depend on the host's byte order. A state seeded
/// with `len` takes the lanes in lane order by the same round, then the
/// words after the last full stride, then the last len % 8 bytes as one
/// zero-padded word. (The round is xxHash64's; the fold and the tail are
/// not, so this is not XXH64.) The round is a bijection in its state and
/// in its word (P1 and P2 are odd), so any change confined to one word
/// changes the result. The rotation carries a change in a word's high bits
/// down to where the next multiply spreads it upward again. A multiply
/// alone carries a change upward only: under h = (h ^ w) * P, flipping
/// bit 63 of any two words (two record weights' sign bits, say) leaves the
/// sum unchanged. The independent lanes keep four rounds in flight.
inline std::uint64_t checksum64(const std::uint8_t* data,
                                std::size_t len) noexcept {
  constexpr std::uint64_t kP1 = 0x9e3779b185ebca87ULL;
  constexpr std::uint64_t kP2 = 0xc2b2ae3d27d4eb4fULL;
  // Spelled out (not a loop) so compilers fuse it into one load on
  // little-endian hosts.
  auto load_le = [](const std::uint8_t* p) {
    return std::uint64_t{p[0]} | std::uint64_t{p[1]} << 8 |
           std::uint64_t{p[2]} << 16 | std::uint64_t{p[3]} << 24 |
           std::uint64_t{p[4]} << 32 | std::uint64_t{p[5]} << 40 |
           std::uint64_t{p[6]} << 48 | std::uint64_t{p[7]} << 56;
  };
  auto round = [](std::uint64_t h, std::uint64_t w) {
    h += w * kP2;
    return ((h << 31) | (h >> 33)) * kP1;
  };
  std::uint64_t lane[4] = {kP1 + kP2, kP2, 0, 0 - kP1};
  const std::size_t strides_end = len - len % 32;
  for (std::size_t at = 0; at < strides_end; at += 32) {
    for (int k = 0; k < 4; ++k) {
      lane[k] = round(lane[k], load_le(data + at + 8 * k));
    }
  }
  std::uint64_t h = len;
  for (const std::uint64_t l : lane) h = round(h, l);
  std::size_t at = strides_end;
  for (; at + 8 <= len; at += 8) h = round(h, load_le(data + at));
  if (at < len) {
    std::uint64_t w = 0;
    for (std::size_t i = at; i < len; ++i) {
      w |= std::uint64_t{data[i]} << (8 * (i - at));
    }
    h = round(h, w);
  }
  return h;
}

}  // namespace dp
