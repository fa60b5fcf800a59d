#include "sparsify/deferred.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace dp {

void deferred_probabilities_into(std::size_t n, std::size_t num_edges,
                                 const DeferredEdgeFetch& fetch,
                                 const std::vector<double>& promise,
                                 const DeferredOptions& options,
                                 std::uint64_t seed,
                                 std::vector<double>& prob,
                                 DeferredScratch& scratch, ThreadPool* pool) {
  if (promise.size() != num_edges) {
    throw std::invalid_argument("deferred_probabilities: size mismatch");
  }
  if (options.gamma < 1.0) {
    throw std::invalid_argument("deferred_probabilities: gamma must be >= 1");
  }
  prob.assign(num_edges, 0.0);
  if (num_edges == 0 || n == 0) return;

  // Benczur-Karger per weight class: within each power-of-two class of the
  // promise weights, p_e = min(1, rho / strength_e), with rho inflated by
  // gamma^2 (Lemma 17: p' computed from sigma times O(chi^2) dominates the
  // exact-weight probability).
  //
  // Weight classes group by one stable counting pass over the class digit
  // instead of a std::map of vectors or a sort: edges are visited in
  // ascending index order, so classes come out ascending and each lists
  // its members ascending.
  constexpr std::int32_t kNoClass = std::numeric_limits<std::int32_t>::min();
  std::vector<std::int32_t>& class_of = scratch.class_of;
  class_of.assign(num_edges, kNoClass);
  std::int32_t lo_cls = std::numeric_limits<std::int32_t>::max();
  std::int32_t hi_cls = kNoClass;
  for (std::size_t e = 0; e < num_edges; ++e) {
    if (!(promise[e] > 0)) continue;
    class_of[e] = static_cast<std::int32_t>(std::floor(std::log2(promise[e])));
    lo_cls = std::min(lo_cls, class_of[e]);
    hi_cls = std::max(hi_cls, class_of[e]);
  }
  if (hi_cls == kNoClass) return;  // no positive promise
  const auto classes = static_cast<std::size_t>(hi_cls - lo_cls) + 1;
  std::vector<std::size_t>& offset = scratch.class_offset;
  offset.assign(classes + 1, 0);
  for (const std::int32_t cls : class_of) {
    if (cls != kNoClass) ++offset[static_cast<std::size_t>(cls - lo_cls) + 1];
  }
  for (std::size_t c = 1; c <= classes; ++c) offset[c] += offset[c - 1];
  std::vector<std::uint32_t>& members = scratch.class_members;
  members.resize(offset[classes]);
  for (std::size_t e = 0; e < num_edges; ++e) {
    if (class_of[e] == kNoClass) continue;
    members[offset[static_cast<std::size_t>(class_of[e] - lo_cls)]++] =
        static_cast<std::uint32_t>(e);
  }
  // The scatter advanced offset[c] to the end of class c.

  const CounterRng rng(seed);
  const double log_n =
      std::log(static_cast<double>(std::max<std::size_t>(n, 3)));
  const double rho = options.sampling_constant * options.gamma *
                     options.gamma * log_n / (options.xi * options.xi);

  std::size_t lo = 0;
  for (std::size_t c = 0; c < classes; ++c) {
    const std::size_t hi = offset[c];
    if (hi == lo) continue;
    // Gather the class subgraph through the batched fetch (the vector
    // overload's fetch is a plain indexed copy, so this path is bitwise
    // identical to indexing the edges directly).
    scratch.class_edges.resize(hi - lo);
    fetch(members.data() + lo, hi - lo, scratch.class_edges.data());
    // Per-class seed is a pure function of (seed, class + 2^31), so
    // dropping or adding a class never shifts the draws of the others.
    const auto cls_bits = static_cast<std::uint64_t>(
        std::int64_t{lo_cls} + static_cast<std::int64_t>(c) +
        (std::int64_t{1} << 31));
    estimate_strengths_into(n, scratch.class_edges, rng.bits(cls_bits),
                            scratch.class_strength, scratch.strength, pool);
    for (std::size_t i = lo; i < hi; ++i) {
      prob[members[i]] = std::min(1.0, rho / scratch.class_strength[i - lo]);
    }
    lo = hi;
  }
}

void deferred_probabilities_into(std::size_t n, const std::vector<Edge>& edges,
                                 const std::vector<double>& promise,
                                 const DeferredOptions& options,
                                 std::uint64_t seed,
                                 std::vector<double>& prob,
                                 DeferredScratch& scratch, ThreadPool* pool) {
  const Edge* base = edges.data();
  deferred_probabilities_into(
      n, edges.size(),
      [base](const std::uint32_t* idxs, std::size_t count, Edge* out) {
        for (std::size_t i = 0; i < count; ++i) out[i] = base[idxs[i]];
      },
      promise, options, seed, prob, scratch, pool);
}

}  // namespace dp
