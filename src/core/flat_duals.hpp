#pragma once
// Flat dual-state containers. Dual variables of the layered penalty LP are
// indexed by (vertex i, level k) pairs packed into a single 64-bit key
//   key(i, k) = i * L + k,        L = LevelGraph::num_levels()
// so that sorting keys groups entries by vertex with levels ascending inside
// each group — exactly the per-vertex iteration order the MicroOracle needs.
//
// Two representations (see src/core/README.md for the memory layout):
//   SparseDuals — a key-sorted vector of (key, value) pairs: the wire format
//     for dual points and zeta multipliers crossing subsystem boundaries.
//     Supports the former unordered_map surface (operator[], at, find) for
//     low-volume callers, but hot producers use append() and consumers
//     iterate or merge-join in key order.
//   FlatDuals — a dense value buffer of n*L doubles plus a compact list of
//     active keys: O(1) random access, O(active) clear. Used as reusable
//     scratch inside the oracle and as the backing store of DualState.
//   KeyBitset — one bit per key over [0, n*L): the sort-free way to turn
//     keys marked in any order into the sorted, unique key sequence.

#include <bit>
#include <cstdint>
#include <stdexcept>
#include <vector>

namespace dp::core {

class SparseDuals {
 public:
  using key_type = std::uint64_t;
  using value_type = std::pair<std::uint64_t, double>;
  using const_iterator = std::vector<value_type>::const_iterator;

  SparseDuals() = default;

  bool empty() const noexcept { return entries_.empty(); }
  std::size_t size() const noexcept { return entries_.size(); }
  void clear() noexcept { entries_.clear(); }
  void reserve(std::size_t n) { entries_.reserve(n); }

  const_iterator begin() const noexcept { return entries_.begin(); }
  const_iterator end() const noexcept { return entries_.end(); }

  /// Iterator to the entry with `key`, or end().
  const_iterator find(std::uint64_t key) const noexcept {
    const auto it = lower_bound(key);
    return (it != entries_.end() && it->first == key) ? it : entries_.end();
  }

  /// Value at `key`, 0.0 when absent.
  double get(std::uint64_t key) const noexcept {
    const auto it = lower_bound(key);
    return (it != entries_.end() && it->first == key) ? it->second : 0.0;
  }

  /// Value at `key`; throws std::out_of_range when absent.
  const double& at(std::uint64_t key) const {
    const auto it = lower_bound(key);
    if (it == entries_.end() || it->first != key) {
      throw std::out_of_range("SparseDuals::at: missing key");
    }
    return it->second;
  }

  /// Find-or-insert (keeps key order). O(size) on insert — convenience for
  /// tests and cold paths; hot producers use append().
  double& operator[](std::uint64_t key);

  /// Fast-path insert: `key` must be strictly greater than every stored key.
  void append(std::uint64_t key, double value);

  /// Raw sorted entries (for merge-joins).
  const std::vector<value_type>& entries() const noexcept { return entries_; }

  friend bool operator==(const SparseDuals&, const SparseDuals&) = default;

 private:
  std::vector<value_type>::iterator lower_bound(std::uint64_t key) noexcept;
  const_iterator lower_bound(std::uint64_t key) const noexcept;

  std::vector<value_type> entries_;  // sorted by key, unique
};

class FlatDuals {
 public:
  FlatDuals() = default;
  explicit FlatDuals(std::size_t slots) { reset(slots); }

  /// Ensure capacity for keys in [0, slots) and clear all values.
  void reset(std::size_t slots);

  /// Zero every active entry; O(active), not O(slots).
  void clear() noexcept;

  std::size_t slots() const noexcept { return val_.size(); }
  std::size_t active_count() const noexcept { return active_.size(); }

  /// O(1); inactive keys read as 0.
  double get(std::uint64_t key) const noexcept { return val_[key]; }
  bool contains(std::uint64_t key) const noexcept { return in_[key] != 0; }

  void add(std::uint64_t key, double delta) noexcept {
    if (!in_[key]) {
      in_[key] = 1;
      active_.push_back(key);
    }
    val_[key] += delta;
  }

  void set(std::uint64_t key, double value) noexcept {
    if (!in_[key]) {
      in_[key] = 1;
      active_.push_back(key);
    }
    val_[key] = value;
  }

  /// Multiply every active value by `factor`.
  void scale_all(double factor) noexcept;

  /// Active keys in activation order (the order checkpoints replay).
  const std::vector<std::uint64_t>& active() const noexcept { return active_; }

  /// Export the active entries as a key-sorted SparseDuals, dropping values
  /// with |value| == 0.
  SparseDuals to_sparse() const;

 private:
  std::vector<double> val_;
  std::vector<char> in_;
  std::vector<std::uint64_t> active_;
};

/// A bit per slot over the packed key domain [0, slots). Callers mark keys
/// in any order; drain() then visits every marked key once, in ascending
/// order, with no comparisons — O(marked + slots / 64). The drain zeroes
/// each word as it reads it, so the set is empty again afterwards.
class KeyBitset {
 public:
  /// Ensure room for keys in [0, slots). Growing keeps the set empty.
  void reserve(std::size_t slots) {
    const std::size_t words = (slots + 63) / 64;
    if (words_.size() < words) words_.resize(words, 0);
  }

  void mark(std::uint64_t key) noexcept {
    words_[key >> 6] |= std::uint64_t{1} << (key & 63);
  }

  /// Call fn(key) for every marked key in ascending order, leaving the set
  /// empty.
  template <typename Fn>
  void drain(Fn&& fn) {
    for (std::size_t w = 0; w < words_.size(); ++w) {
      std::uint64_t bits = words_[w];
      if (bits == 0) continue;
      words_[w] = 0;
      const std::uint64_t base = static_cast<std::uint64_t>(w) << 6;
      for (; bits != 0; bits &= bits - 1) {
        fn(base + static_cast<std::uint64_t>(std::countr_zero(bits)));
      }
    }
  }

 private:
  std::vector<std::uint64_t> words_;
};

}  // namespace dp::core
