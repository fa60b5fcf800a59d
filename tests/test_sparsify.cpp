// Tests for the sparsification substrate: strength estimation and the
// deferred sparsifier probabilities (Definition 4 / Lemma 17), including
// the lemma's cut guarantee for sparsifiers drawn by the solver's own
// sampling masks (core/sampling).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>

#include "core/sampling.hpp"
#include "graph/generators.hpp"
#include "graph/union_find.hpp"
#include "sparsify/deferred.hpp"
#include "sparsify/strength.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace dp {
namespace {

/// deferred_probabilities_into on a fresh scratch with no pool: the
/// reference every reuse and thread-count variant must match bitwise.
std::vector<double> fresh_probabilities(const Graph& g,
                                        const std::vector<double>& promise,
                                        const DeferredOptions& options,
                                        std::uint64_t seed) {
  std::vector<double> prob;
  DeferredScratch scratch;
  deferred_probabilities_into(g.num_vertices(), g.edges(), promise, options,
                              seed, prob, scratch);
  return prob;
}

TEST(Strength, BridgeIsWeakCliqueIsStrong) {
  // Two K8 cliques joined by one bridge.
  Graph g(16);
  for (Vertex i = 0; i < 8; ++i) {
    for (Vertex j = i + 1; j < 8; ++j) {
      g.add_edge(i, j);
      g.add_edge(i + 8, j + 8);
    }
  }
  g.add_edge(0, 8);  // bridge, last edge
  std::vector<double> strength;
  StrengthScratch scratch;
  estimate_strengths_into(16, g.edges(), 5, strength, scratch);
  const double bridge = strength.back();
  double clique_avg = 0;
  for (std::size_t e = 0; e + 1 < strength.size(); ++e) {
    clique_avg += strength[e];
  }
  clique_avg /= static_cast<double>(strength.size() - 1);
  EXPECT_GT(clique_avg, bridge);
  for (double s : strength) EXPECT_GE(s, 1.0);
}

/// Several disjoint random blobs plus isolated vertices — the shape the
/// level-0 region split partitions into vertex-disjoint buckets.
Graph disconnected_blobs(std::size_t blobs, std::size_t blob_n,
                         std::size_t blob_m, std::uint64_t seed) {
  Graph g(blobs * blob_n + 3);  // three isolated vertices at the end
  Rng rng(seed);
  for (std::size_t c = 0; c < blobs; ++c) {
    const auto base = static_cast<Vertex>(c * blob_n);
    // Spanning path keeps the blob connected, then random extra edges.
    for (std::size_t v = 1; v < blob_n; ++v) {
      g.add_edge(base + static_cast<Vertex>(v - 1),
                 base + static_cast<Vertex>(v));
    }
    for (std::size_t e = 0; e + blob_n - 1 < blob_m; ++e) {
      const auto u = static_cast<Vertex>(rng.uniform(blob_n));
      const auto v = static_cast<Vertex>(rng.uniform(blob_n));
      if (u != v) g.add_edge(base + u, base + v);
    }
  }
  return g;
}

TEST(Strength, RegionPackingMatchesGlobalPlacement) {
  // The invariant the level-0 region split relies on: forest packing never
  // crosses a component boundary, so packing each component's edges (in
  // ascending edge order) with its own packer reproduces the placement
  // index of one global serial packing.
  const Graph g = disconnected_blobs(5, 12, 40, 77);
  const std::size_t n = g.num_vertices();
  detail::ForestPacker global(n);
  std::vector<std::size_t> expected(g.num_edges());
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    expected[e] = global.insert(g.edge(e).u, g.edge(e).v);
  }

  UnionFind comps(n);
  for (const Edge& e : g.edges()) comps.unite(e.u, e.v);
  std::map<std::uint32_t, detail::ForestPacker> per_component;
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    const std::uint32_t root = comps.find(g.edge(e).u);
    auto [it, inserted] = per_component.try_emplace(root);
    if (inserted) it->second.reset(n);
    EXPECT_EQ(it->second.insert(g.edge(e).u, g.edge(e).v), expected[e])
        << "edge " << e;
  }
  EXPECT_GT(per_component.size(), 1u);
}

TEST(Strength, ReusedPackerMatchesAFreshOneAcrossSizes) {
  // reset() keeps the forests it had; insert() re-initialises each one as
  // it activates it. One packer reused across vertex counts 50, 20 and 80
  // must place every edge where a fresh packer does: the 20-vertex graph
  // reactivates forests sized for 50, and the 80-vertex one forests sized
  // for 20 or 50.
  detail::ForestPacker reused;
  const std::size_t sizes[][2] = {{50, 600}, {20, 150}, {80, 1500}};
  for (const auto& [n, m] : sizes) {
    const Graph g = gen::gnm(n, m, 300 + n);
    reused.reset(n);
    detail::ForestPacker fresh(n);
    for (EdgeId e = 0; e < g.num_edges(); ++e) {
      const Edge& edge = g.edge(e);
      ASSERT_EQ(reused.insert(edge.u, edge.v), fresh.insert(edge.u, edge.v))
          << "n " << n << " edge " << e;
    }
  }
}

TEST(Strength, IntoIsBitwiseThreadCountInvariant) {
  // The gate for the region-split parallel path: subsample depths and the
  // resulting strengths must be bitwise identical for any thread count,
  // and scratch reuse must not perturb them.
  const Graph g = disconnected_blobs(6, 20, 90, 91);
  const std::uint64_t seed = 1234;
  StrengthScratch scratch;
  std::vector<double> reference;
  estimate_strengths_into(g.num_vertices(), g.edges(), seed, reference,
                          scratch);
  ASSERT_EQ(reference.size(), g.num_edges());
  for (double s : reference) EXPECT_GE(s, 1.0);
  for (const std::size_t threads : {2, 8}) {
    ThreadPool pool(threads);
    StrengthScratch fresh;
    std::vector<double> out;
    for (int rep = 0; rep < 2; ++rep) {  // second rep reuses the scratch
      estimate_strengths_into(g.num_vertices(), g.edges(), seed, out, fresh,
                              &pool);
      EXPECT_EQ(out, reference) << threads << " threads, rep " << rep;
    }
  }
  // A connected graph (one region) must also be invariant.
  Graph dense = gen::gnm(40, 300, 15);
  StrengthScratch dense_scratch;
  std::vector<double> dense_ref, dense_out;
  estimate_strengths_into(dense.num_vertices(), dense.edges(), seed,
                          dense_ref, dense_scratch);
  ThreadPool pool(4);
  estimate_strengths_into(dense.num_vertices(), dense.edges(), seed,
                          dense_out, dense_scratch, &pool);
  EXPECT_EQ(dense_out, dense_ref);
}

/// Largest relative error, over every vertex star and `random_cuts` random
/// bipartitions, of the cuts weighted by `approx` (0 = edge not kept)
/// against the same cuts weighted by `exact`. Cuts of exact weight 0 are
/// skipped.
double max_cut_error(const Graph& g, const std::vector<double>& exact,
                     const std::vector<double>& approx,
                     std::size_t random_cuts, std::uint64_t seed) {
  double worst = 0;
  auto record = [&](double cut, double approx_cut) {
    if (cut > 0) worst = std::max(worst, std::fabs(approx_cut - cut) / cut);
  };
  // Vertex stars (the cuts Lemma 18 uses), all in one pass.
  std::vector<double> star(g.num_vertices(), 0.0);
  std::vector<double> approx_star(g.num_vertices(), 0.0);
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    for (const Vertex v : {g.edge(e).u, g.edge(e).v}) {
      star[v] += exact[e];
      approx_star[v] += approx[e];
    }
  }
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    record(star[v], approx_star[v]);
  }
  Rng rng(seed);
  std::vector<char> side(g.num_vertices());
  for (std::size_t c = 0; c < random_cuts; ++c) {
    for (char& s : side) s = static_cast<char>(rng.next() & 1);
    double cut = 0, approx_cut = 0;
    for (EdgeId e = 0; e < g.num_edges(); ++e) {
      if (side[g.edge(e).u] == side[g.edge(e).v]) continue;
      cut += exact[e];
      approx_cut += approx[e];
    }
    record(cut, approx_cut);
  }
  return worst;
}

class DeferredParam : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DeferredParam, DistortedPromiseStillSparsifies) {
  // Lemma 17 on the solver's path: probabilities from promise weights
  // distorted by up to gamma each way, t sparsifiers drawn by
  // core::sampling_mask, and each sparsifier reweighted by the EXACT
  // weights as u_e / p_e must keep every probed cut within the bound.
  const std::uint64_t seed = GetParam();
  const Graph g = gen::gnm(200, 12000, seed + 31);
  Rng rng(seed);
  DeferredOptions opt;
  opt.xi = 0.2;
  opt.gamma = 2.0;
  opt.sampling_constant = 0.01;
  std::vector<double> exact(g.num_edges()), promise(g.num_edges());
  for (std::size_t e = 0; e < g.num_edges(); ++e) {
    exact[e] = 1.0 + 4.0 * rng.uniform_real();
    const double distort =
        std::pow(opt.gamma, 2.0 * rng.uniform_real() - 1.0);
    promise[e] = exact[e] * distort;
  }
  const std::vector<double> prob =
      fresh_probabilities(g, promise, opt, seed * 3 + 2);
  // Sampling must bite on most edges, or the cut bound holds trivially.
  const auto sampled = static_cast<std::size_t>(std::count_if(
      prob.begin(), prob.end(), [](double p) { return p < 1.0; }));
  ASSERT_GE(2 * sampled, g.num_edges()) << "seed " << seed;

  constexpr std::size_t kSparsifiers = 4;
  const CounterRng round_rng = core::sampling_round_rng(seed * 5 + 1, 0);
  std::vector<std::uint32_t> mask(g.num_edges());
  for (std::size_t e = 0; e < g.num_edges(); ++e) {
    mask[e] = core::sampling_mask(round_rng, kSparsifiers, e, prob[e]);
  }
  std::vector<double> kept(g.num_edges());
  for (std::size_t q = 0; q < kSparsifiers; ++q) {
    for (std::size_t e = 0; e < g.num_edges(); ++e) {
      kept[e] = ((mask[e] >> q) & 1) != 0 ? exact[e] / prob[e] : 0.0;
    }
    const double err = max_cut_error(g, exact, kept, 200, seed);
    EXPECT_LT(err, 2.5 * opt.xi) << "seed " << seed << ", sparsifier " << q;
  }
}

INSTANTIATE_TEST_SUITE_P(RandomGraphs, DeferredParam,
                         ::testing::Range<std::uint64_t>(0, 8));

TEST(Deferred, StoresMoreWithLargerGamma) {
  // Compare expected stored sizes (deterministic probability sums) so the
  // assertion is immune to sampling noise; the gamma^2 oversampling must
  // strictly increase inclusion probabilities wherever they are below 1.
  const Graph g = gen::gnm(150, 8000, 41);
  std::vector<double> promise(g.num_edges(), 1.0);
  DeferredOptions small, large;
  small.xi = large.xi = 0.5;
  small.sampling_constant = large.sampling_constant = 1.0;
  small.gamma = 1.0;
  large.gamma = 3.0;
  const auto pa = fresh_probabilities(g, promise, small, 1);
  const auto pb = fresh_probabilities(g, promise, large, 1);
  double sum_a = 0, sum_b = 0;
  for (double p : pa) sum_a += p;
  for (double p : pb) sum_b += p;
  EXPECT_LT(sum_a, static_cast<double>(g.num_edges()));  // not saturated
  EXPECT_GT(sum_b, sum_a + 1.0);
  for (std::size_t e = 0; e < pa.size(); ++e) {
    EXPECT_GE(pb[e], pa[e] - 1e-12);
  }
}

TEST(Deferred, RejectsPromiseSizeMismatch) {
  const Graph g = gen::gnm(10, 20, 43);
  std::vector<double> prob;
  DeferredScratch scratch;
  EXPECT_THROW(deferred_probabilities_into(g.num_vertices(), g.edges(),
                                           std::vector<double>(3, 1.0),
                                           DeferredOptions{}, 4, prob,
                                           scratch),
               std::invalid_argument);
}

TEST(Deferred, ProbabilitiesThreadCountInvariantAndScratchReusable) {
  // The chunk-parallel path must be bitwise identical for any pool size,
  // equal to a fresh scratch with no pool, and stable when one scratch
  // serves many rounds.
  Graph g = gen::gnm(80, 900, 45);
  gen::weight_zipf(g, 0.8, 46);
  std::vector<double> promise(g.num_edges());
  for (EdgeId e = 0; e < g.num_edges(); ++e) promise[e] = g.edge(e).w;
  DeferredOptions opt;
  opt.xi = 0.4;
  opt.sampling_constant = 0.3;

  const auto reference = fresh_probabilities(g, promise, opt, 11);
  DeferredScratch scratch;
  std::vector<double> prob;
  for (std::size_t threads : {1, 2, 8}) {
    ThreadPool pool(threads);
    for (int repeat = 0; repeat < 2; ++repeat) {  // scratch reuse
      deferred_probabilities_into(g.num_vertices(), g.edges(), promise, opt,
                                  11, prob, scratch, &pool);
      EXPECT_EQ(prob, reference) << "threads " << threads;
    }
  }
}

TEST(Deferred, ScratchReuseAcrossClassRangesMatchesFresh) {
  // The class grouping's counting pass keeps per-class offsets in the
  // scratch; promise vectors whose classes span different ranges (and that
  // mix in non-positive promises, which join no class) must each give the
  // fresh-scratch probabilities bitwise.
  Graph g = gen::gnm(70, 700, 47);
  gen::weight_uniform(g, 1.0, 8.0, 48);
  DeferredOptions opt;
  opt.xi = 0.4;
  opt.sampling_constant = 0.3;
  Rng rng(49);
  auto promises = [&](double lo_exp, double hi_exp, double nonpositive) {
    std::vector<double> promise(g.num_edges());
    for (double& p : promise) {
      const double draw = rng.uniform_real();
      if (draw < nonpositive / 2) {
        p = 0.0;
      } else if (draw < nonpositive) {
        p = -rng.uniform_real(0.1, 5.0);
      } else {
        p = std::exp2(rng.uniform_real(lo_exp, hi_exp));
      }
    }
    return promise;
  };
  const std::vector<std::vector<double>> cases = {
      promises(-1.0, 1.0, 0.0),     // two classes around 1
      promises(-30.0, 25.0, 0.2),   // wide range, negative classes
      promises(10.0, 12.0, 0.5),    // narrow, far from the first
      promises(0.0, 1.0, 1.0),      // nothing positive: no class at all
      promises(-3.0, 40.0, 0.1),
  };
  DeferredScratch scratch;
  std::vector<double> prob;
  for (std::size_t c = 0; c < cases.size(); ++c) {
    const std::uint64_t seed = 60 + c;
    deferred_probabilities_into(g.num_vertices(), g.edges(), cases[c], opt,
                                seed, prob, scratch);
    EXPECT_EQ(prob, fresh_probabilities(g, cases[c], opt, seed))
        << "case " << c;
    // The grouped members are the index halves of the sorted packed
    // (biased class, index) keys.
    std::vector<std::uint64_t> keys;
    for (std::size_t e = 0; e < g.num_edges(); ++e) {
      if (!(cases[c][e] > 0)) continue;
      const auto cls =
          static_cast<std::int64_t>(std::floor(std::log2(cases[c][e])));
      keys.push_back(
          (static_cast<std::uint64_t>(cls + (std::int64_t{1} << 31)) << 32) |
          e);
    }
    std::sort(keys.begin(), keys.end());
    std::vector<std::uint32_t> members;
    for (const std::uint64_t key : keys) {
      members.push_back(static_cast<std::uint32_t>(key & 0xffffffffULL));
    }
    if (!members.empty()) {
      EXPECT_EQ(scratch.class_members, members) << "case " << c;
    }
  }
}

TEST(Deferred, ProbabilitiesSharedAcrossDraws) {
  const Graph g = gen::gnm(50, 400, 44);
  std::vector<double> promise(g.num_edges(), 1.0);
  const auto prob = fresh_probabilities(g, promise, DeferredOptions{}, 5);
  ASSERT_EQ(prob.size(), g.num_edges());
  for (double p : prob) {
    EXPECT_GE(p, 0.0);
    EXPECT_LE(p, 1.0);
  }
}

}  // namespace
}  // namespace dp
