#include "core/flat_duals.hpp"

#include <algorithm>

namespace dp::core {

std::vector<SparseDuals::value_type>::iterator SparseDuals::lower_bound(
    std::uint64_t key) noexcept {
  return std::lower_bound(
      entries_.begin(), entries_.end(), key,
      [](const value_type& e, std::uint64_t k) { return e.first < k; });
}

SparseDuals::const_iterator SparseDuals::lower_bound(
    std::uint64_t key) const noexcept {
  return std::lower_bound(
      entries_.begin(), entries_.end(), key,
      [](const value_type& e, std::uint64_t k) { return e.first < k; });
}

double& SparseDuals::operator[](std::uint64_t key) {
  auto it = lower_bound(key);
  if (it == entries_.end() || it->first != key) {
    it = entries_.insert(it, value_type{key, 0.0});
  }
  return it->second;
}

void SparseDuals::append(std::uint64_t key, double value) {
  if (!entries_.empty() && entries_.back().first >= key) {
    // Out-of-order append: fall back to the sorted insert so the invariant
    // survives misuse at a (cold) performance cost.
    (*this)[key] += value;
    return;
  }
  entries_.emplace_back(key, value);
}

void FlatDuals::reset(std::size_t slots) {
  if (slots > val_.size()) {
    val_.assign(slots, 0.0);
    in_.assign(slots, 0);
    active_.clear();
  } else {
    clear();
  }
}

void FlatDuals::clear() noexcept {
  for (const std::uint64_t key : active_) {
    val_[key] = 0.0;
    in_[key] = 0;
  }
  active_.clear();
}

void FlatDuals::scale_all(double factor) noexcept {
  for (const std::uint64_t key : active_) val_[key] *= factor;
}

SparseDuals FlatDuals::to_sparse() const {
  std::vector<std::uint64_t> keys = active_;
  std::sort(keys.begin(), keys.end());
  SparseDuals out;
  out.reserve(keys.size());
  for (const std::uint64_t key : keys) {
    if (val_[key] != 0.0) out.append(key, val_[key]);
  }
  return out;
}

}  // namespace dp::core
