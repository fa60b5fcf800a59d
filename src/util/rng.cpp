#include "util/rng.hpp"

#include <algorithm>
#include <unordered_set>

namespace dp {

std::uint64_t Rng::uniform(std::uint64_t bound) noexcept {
  // Lemire's nearly-divisionless method.
  std::uint64_t x = next();
  __uint128_t m = static_cast<__uint128_t>(x) * bound;
  std::uint64_t l = static_cast<std::uint64_t>(m);
  if (l < bound) {
    std::uint64_t t = -bound % bound;
    while (l < t) {
      x = next();
      m = static_cast<__uint128_t>(x) * bound;
      l = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) noexcept {
  return lo + static_cast<std::int64_t>(
                  uniform(static_cast<std::uint64_t>(hi - lo) + 1));
}

std::vector<std::size_t> Rng::sample_without_replacement(std::size_t n,
                                                         std::size_t k) {
  if (k >= n) {
    std::vector<std::size_t> all(n);
    for (std::size_t i = 0; i < n; ++i) all[i] = i;
    return all;
  }
  if (k * 3 >= n) {
    std::vector<std::size_t> all(n);
    for (std::size_t i = 0; i < n; ++i) all[i] = i;
    // Partial Fisher-Yates: select first k positions.
    for (std::size_t i = 0; i < k; ++i) {
      std::size_t j = i + uniform(n - i);
      std::swap(all[i], all[j]);
    }
    all.resize(k);
    return all;
  }
  // Floyd's algorithm for sparse samples.
  std::unordered_set<std::size_t> chosen;
  chosen.reserve(k * 2);
  std::vector<std::size_t> out;
  out.reserve(k);
  for (std::size_t j = n - k; j < n; ++j) {
    std::size_t t = uniform(j + 1);
    if (chosen.insert(t).second) {
      out.push_back(t);
    } else {
      chosen.insert(j);
      out.push_back(j);
    }
  }
  return out;
}

}  // namespace dp
