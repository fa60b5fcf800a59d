#include "core/dual_state.hpp"

#include <algorithm>
#include <cmath>

#include "util/thread_pool.hpp"

namespace dp::core {

namespace {

std::uint64_t set_key(const OddSetVar& var) {
  // FNV-1a over (level, members).
  std::uint64_t h = 1469598103934665603ULL;
  auto mix = [&h](std::uint64_t x) {
    h ^= x;
    h *= 1099511628211ULL;
  };
  mix(static_cast<std::uint64_t>(var.level));
  for (Vertex v : var.members) mix(v + 1);
  return h;
}

}  // namespace

DualState::DualState(std::size_t n, int num_levels)
    : n_(n), levels_(num_levels), xi_(n, 0.0), sets_at_(n) {
  xik_.reset(n * static_cast<std::size_t>(num_levels));
}

double DualState::add_set_terms_at(double row, Vertex i, int k,
                                   Vertex j) const {
  // Per-level odd-set families are disjoint within one oracle output but may
  // overlap across outputs; iterate i's sets and test j's membership.
  for (std::uint32_t s : sets_at_[i]) {
    const OddSetVar& var = sets_[s];
    if (var.level > k) continue;
    if (j == kAnyPartner ||
        std::binary_search(var.members.begin(), var.members.end(), j)) {
      row += var.value * scale_;
    }
  }
  return row;
}

double DualState::objective(const Capacities& b) const {
  double total = 0;
  for (std::size_t i = 0; i < n_; ++i) {
    total += static_cast<double>(b[static_cast<Vertex>(i)]) * xi_[i];
  }
  for (const OddSetVar& var : sets_) {
    std::int64_t bw = 0;
    for (Vertex v : var.members) bw += b[v];
    total += std::floor(static_cast<double>(bw) / 2.0) * var.value;
  }
  return total * scale_;
}

double DualState::lambda(const LevelGraph& lg, ThreadPool* pool,
                         std::size_t grain) const {
  const std::vector<EdgeId>& retained = lg.retained();
  const std::size_t m = retained.size();
  if (m == 0) return 0.0;
  if (grain == 0) grain = 1;
  // Per-chunk minima over fixed chunk boundaries, reduced in chunk order:
  // min is exact, so serial and parallel runs agree bitwise.
  const std::size_t chunks = (m + grain - 1) / grain;
  std::vector<double> partial(chunks, 1e300);
  run_chunks(pool, 0, m, grain,
             [&](std::size_t c, std::size_t lo, std::size_t hi) {
               double best = 1e300;
               for (std::size_t idx = lo; idx < hi; ++idx) {
                 const EdgeId e = retained[idx];
                 const Edge& edge = lg.graph().edge(e);
                 const int k = lg.level(e);
                 const double row = cover_row(edge.u, edge.v, k);
                 best = std::min(best, row / lg.level_weight(k));
               }
               partial[c] = best;
             });
  double best = 1e300;
  for (std::size_t c = 0; c < chunks; ++c) best = std::min(best, partial[c]);
  return best;
}

void DualState::add_odd_set(const OddSetVar& var, double factor) {
  const double raw = var.value * factor / scale_;
  if (raw <= 0) return;
  const std::uint64_t key = set_key(var);
  const auto it = std::lower_bound(
      set_index_.begin(), set_index_.end(), key,
      [](const auto& entry, std::uint64_t k) { return entry.first < k; });
  if (it != set_index_.end() && it->first == key) {
    OddSetVar& existing = sets_[it->second];
    if (existing.level == var.level && existing.members == var.members) {
      existing.value += raw;
      return;
    }
    // Hash collision with different content: fall through to append (the
    // index keeps the first entry; correctness is unaffected, only dedup).
  }
  const auto id = static_cast<std::uint32_t>(sets_.size());
  sets_.push_back(OddSetVar{var.level, var.members, raw});
  for (Vertex v : var.members) sets_at_[v].push_back(id);
  if (it == set_index_.end() || it->first != key) {
    set_index_.insert(it, {key, id});
  }
}

bool DualState::raise_cover(Vertex i, Vertex j, int k, double target) {
  const double row = cover_row(i, j, k);
  if (row >= target) return false;
  // Raw half-deficit per endpoint. The row lands within an ulp of the
  // target; callers certify against (1 - 3 eps) * wHat_k, so the slack is
  // enormous relative to that rounding.
  const double half_raw = (target - row) / 2.0 / scale_;
  const auto ki = static_cast<std::uint64_t>(i) * levels_ + k;
  const auto kj = static_cast<std::uint64_t>(j) * levels_ + k;
  xik_.add(ki, half_raw);
  xik_.add(kj, half_raw);
  if (xik_.get(ki) > xi_[i]) xi_[i] = xik_.get(ki);
  if (xik_.get(kj) > xi_[j]) xi_[j] = xik_.get(kj);
  return true;
}

bool DualSnapshot::fits(std::size_t n, int levels) const noexcept {
  const std::uint64_t key_bound = static_cast<std::uint64_t>(n) * levels;
  if (xi.size() != n) return false;
  for (const auto& [key, value] : xik) {
    if (key >= key_bound) return false;
  }
  for (const OddSetVar& var : odd_sets) {
    for (const Vertex v : var.members) {
      if (v >= n) return false;
    }
  }
  return true;
}

DualSnapshot DualState::snapshot() const {
  DualSnapshot snap;
  snap.scale = scale_;
  snap.xik.reserve(xik_.active_count());
  for (const std::uint64_t key : xik_.active()) {
    snap.xik.emplace_back(key, xik_.get(key));
  }
  snap.xi = xi_;
  snap.odd_sets = sets_;
  return snap;
}

void DualState::restore(const DualSnapshot& from) {
  scale_ = from.scale;
  xik_.reset(n_ * static_cast<std::size_t>(levels_));
  for (const auto& [key, value] : from.xik) xik_.set(key, value);
  xi_ = from.xi;
  sets_ = from.odd_sets;
  set_index_.clear();
  for (auto& at : sets_at_) at.clear();
  for (std::size_t s = 0; s < sets_.size(); ++s) {
    const auto id = static_cast<std::uint32_t>(s);
    for (Vertex v : sets_[s].members) sets_at_[v].push_back(id);
    const std::uint64_t key = set_key(sets_[s]);
    const auto it = std::lower_bound(
        set_index_.begin(), set_index_.end(), key,
        [](const auto& entry, std::uint64_t k) { return entry.first < k; });
    if (it == set_index_.end() || it->first != key) {
      set_index_.insert(it, {key, id});
    }
  }
}

void DualState::blend(const DualPoint& p, double sigma) {
  scale_ *= (1.0 - sigma);
  if (scale_ < 1e-280) {
    // Re-normalize to avoid underflow: fold the scale into the raw values.
    xik_.scale_all(scale_);
    for (double& value : xi_) value *= scale_;
    for (OddSetVar& var : sets_) var.value *= scale_;
    scale_ = 1.0;
  }
  // x_i(k), and per-vertex maxima over the runs of the (key-sorted) point.
  // Entries of one vertex are contiguous, so the point's x_i needs no
  // n-sized scratch: track the running max and flush on vertex change.
  const auto levels = static_cast<std::uint64_t>(levels_);
  std::uint64_t run_vertex = 0;
  double run_max = 0.0;
  auto flush = [&] {
    if (run_max > 0) xi_[run_vertex] += sigma * run_max / scale_;
    run_max = 0.0;
  };
  for (const auto& [key, value] : p.xik) {
    if (value <= 0) continue;
    const std::uint64_t i = key / levels;
    if (run_max > 0 && i != run_vertex) flush();
    run_vertex = i;
    run_max = std::max(run_max, value);
    xik_.add(key, sigma * value / scale_);
  }
  flush();
  for (const OddSetVar& var : p.odd_sets) add_odd_set(var, sigma);
}

void DualState::assign(const DualPoint& p) {
  scale_ = 1.0;
  xik_.clear();
  std::fill(xi_.begin(), xi_.end(), 0.0);
  sets_.clear();
  set_index_.clear();
  for (auto& at : sets_at_) at.clear();
  blend(p, 1.0);
}

}  // namespace dp::core
