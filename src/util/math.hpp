#pragma once
// Numeric helpers shared across the library: geometric weight classes
// (Definitions 2/3 of the paper) and small statistics.

#include <cmath>
#include <cstdint>
#include <vector>

namespace dp {

/// Geometric discretization of edge weights into classes
/// w_hat_k = (1+eps)^k (Definition 3). Weights below `floor_weight` are
/// clamped into class 0; the paper rescales so the smallest retained weight
/// is W*/B, which callers implement via `floor_weight`.
class WeightClasses {
 public:
  WeightClasses(double eps, double floor_weight = 1.0)
      : eps_(eps), floor_(floor_weight), log_base_(std::log1p(eps)) {}

  /// Class index k >= 0 such that floor*(1+eps)^k <= w, i.e. the paper's
  /// level of an edge. Weights below the floor map to class 0.
  int level_of(double w) const noexcept {
    if (w <= floor_) return 0;
    return static_cast<int>(std::floor(std::log(w / floor_) / log_base_ +
                                       1e-12));
  }

  /// Representative (rounded-down) weight of class k: floor*(1+eps)^k.
  double weight_of(int k) const noexcept {
    return floor_ * std::pow(1.0 + eps_, k);
  }

  double eps() const noexcept { return eps_; }
  double floor_weight() const noexcept { return floor_; }

  /// Number of classes needed for max weight W and total capacity B when the
  /// floor is W/B: L+1 = O(log_{1+eps} B) (Definition 3).
  int num_levels(double max_weight) const noexcept {
    return level_of(max_weight) + 1;
  }

 private:
  double eps_;
  double floor_;
  double log_base_;
};

/// Least-squares slope of log(y) against log(x); bench_runtime reports
/// the measured time-vs-m exponent with it.
double loglog_slope(const std::vector<double>& x, const std::vector<double>& y);

}  // namespace dp
