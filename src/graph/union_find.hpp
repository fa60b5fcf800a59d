#pragma once
// Disjoint-set forest with union by rank and path halving. Used by the
// strength estimation (sparsify/strength): the nested spanning forests
// packed per subsampling level (Algorithm 6 of the paper) and the
// component split of level 0.

#include <cstddef>
#include <cstdint>
#include <vector>

namespace dp {

class UnionFind {
 public:
  explicit UnionFind(std::size_t n = 0) { reset(n); }

  void reset(std::size_t n);

  std::size_t size() const noexcept { return parent_.size(); }

  /// Representative of x's component (path halving; amortized ~O(alpha)).
  std::uint32_t find(std::uint32_t x) noexcept;

  /// Merge components of a and b; returns true if they were distinct.
  bool unite(std::uint32_t a, std::uint32_t b) noexcept;

  bool connected(std::uint32_t a, std::uint32_t b) noexcept {
    return find(a) == find(b);
  }

  std::size_t num_components() const noexcept { return components_; }

  /// Size of the component containing x.
  std::size_t component_size(std::uint32_t x) noexcept {
    return size_[find(x)];
  }

 private:
  std::vector<std::uint32_t> parent_;
  std::vector<std::uint32_t> size_;
  std::size_t components_ = 0;
};

}  // namespace dp
