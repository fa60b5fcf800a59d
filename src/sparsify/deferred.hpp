#pragma once
// Deferred cut sparsifier probabilities — Definition 4 / Lemma 17 of the
// paper.
//
// The exact multiplier u_e of an edge is NOT known at sampling time; only a
// promise value sigma_e with sigma_e/gamma <= u_e <= sigma_e*gamma is. Each
// edge is therefore sampled with a probability computed from the promise
// values and inflated by gamma^2, so it dominates the probability the exact
// weights would have demanded; once the exact u values of the stored edges
// are revealed, reweighting each stored edge by u_e / p_e gives a (1 +- xi)
// cut sparsifier of the exact-weighted graph.
//
// This is the mechanism that lets Theorem 1 run O(eps^-1 log gamma)
// multiplicative-weight iterations per single adaptive sampling round: the
// multipliers drift by at most e^eps per iteration, so gamma =
// e^{eps * iterations} bounds the drift and the oversampled structure covers
// every intermediate weight vector.
//
// This file computes the per-edge probabilities only. The draw — t
// sparsifiers per round from one probability vector — is core/sampling's
// sampling_mask, shared by every access substrate.

#include <cstdint>
#include <functional>
#include <vector>

#include "graph/graph.hpp"
#include "sparsify/strength.hpp"

namespace dp {

class ThreadPool;

struct DeferredOptions {
  /// Cut accuracy of the refined sparsifier.
  double xi = 0.125;
  /// Promise distortion gamma >= 1 (exact weights within [sigma/g, sigma*g]).
  double gamma = 1.5;
  /// Oversampling constant (multiplies the gamma^2 factor).
  double sampling_constant = 12.0;
};

/// Reusable buffers for deferred_probabilities_into: weight-class grouping
/// plus the strength scratch. One instance serves any sequence of rounds.
struct DeferredScratch {
  std::vector<std::int32_t> class_of;        // weight class per edge
  std::vector<std::size_t> class_offset;     // counting-pass class bounds
  std::vector<std::uint32_t> class_members;  // edge indices, class-grouped
  std::vector<Edge> class_edges;             // per-class subgraph, reused
  std::vector<double> class_strength;        // per-class strengths, reused
  StrengthScratch strength;
};

/// Per-edge inclusion probabilities from promise weights (strength
/// estimation per weight class + gamma^2 oversampling), computed into a
/// caller-owned vector with all working memory in `scratch` (steady-state
/// rounds allocate nothing). Weight classes group by one stable counting
/// pass, per-class seeds are counter-based (a pure function of (seed,
/// class)), and the strength estimation inside each class runs its
/// per-level jobs on `pool` — so the output is bitwise identical for any
/// thread count and any scratch history. Throws std::invalid_argument if
/// promise.size() differs from the edge count or gamma < 1.
void deferred_probabilities_into(std::size_t n, const std::vector<Edge>& edges,
                                 const std::vector<double>& promise,
                                 const DeferredOptions& options,
                                 std::uint64_t seed,
                                 std::vector<double>& prob,
                                 DeferredScratch& scratch,
                                 ThreadPool* pool = nullptr);

/// Batched edge-record fetch: fill out[0..count) with the records of the
/// given edge indices. The access layer's Substrate::fetch_edges matches
/// this shape, so the probability stage can run against a backend with NO
/// materialized per-edge vector (the file-backed streaming substrate).
using DeferredEdgeFetch = std::function<void(
    const std::uint32_t* idxs, std::size_t count, Edge* out)>;

/// Fetch-based variant of deferred_probabilities_into: identical math and
/// draws (the per-class subgraphs are gathered through `fetch` instead of
/// indexed out of a vector), so the output is bitwise identical to the
/// vector overload on the same (promise, options, seed). `num_edges` is
/// the index-space size (== promise.size()).
void deferred_probabilities_into(std::size_t n, std::size_t num_edges,
                                 const DeferredEdgeFetch& fetch,
                                 const std::vector<double>& promise,
                                 const DeferredOptions& options,
                                 std::uint64_t seed,
                                 std::vector<double>& prob,
                                 DeferredScratch& scratch,
                                 ThreadPool* pool = nullptr);

}  // namespace dp
