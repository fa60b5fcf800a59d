// Tests for the dynamic-graph substrate (src/dynamic) and the warm-started
// incremental re-solve (Solver::resolve): delta normalization, canonical
// materialization as a pure function of the live edge set, net delta
// reconstruction from the log, resolve value/certified-ratio bitwise-equal
// to a from-scratch solve on the post-delta graph at 1/2/8 threads on the
// in-memory and streaming substrates, randomized churn with chained warm
// starts, the documented fallback when a delta moves the level structure,
// and the typed stale rejection of checkpoints cut before a delta — at the
// Solver layer and at the serving layer.

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "access/in_memory.hpp"
#include "access/streaming.hpp"
#include "core/checkpoint.hpp"
#include "core/solver.hpp"
#include "dynamic/delta.hpp"
#include "dynamic/dynamic_graph.hpp"
#include "graph/generators.hpp"
#include "matching/greedy.hpp"
#include "serve/service.hpp"
#include "test_helpers.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace dp {
namespace {

using dyn::DynamicGraph;
using dyn::EdgeDelta;
using dyn::EdgeInsert;
using dyn::EdgeRemove;

// ---------------------------------------------------------------------------
// Delta normalization and the dynamic graph's batch semantics.

TEST(Dynamic, NormalizeDedupsAndDropsSelfLoops) {
  EdgeDelta d;
  d.inserts.push_back({5, 2, 3.0});
  d.inserts.push_back({2, 5, 7.0});  // duplicate key; first insert wins
  d.inserts.push_back({4, 4, 1.0});  // self loop
  d.removes.push_back({9, 1});
  d.removes.push_back({1, 9});  // duplicate remove
  d.removes.push_back({3, 3});  // self loop
  const dyn::NormalizedDelta nd = dyn::normalize(d);
  ASSERT_EQ(nd.inserts.size(), 1u);
  EXPECT_EQ(nd.inserts[0].u, 2u);
  EXPECT_EQ(nd.inserts[0].v, 5u);
  EXPECT_EQ(nd.inserts[0].w, 3.0);
  ASSERT_EQ(nd.remove_keys.size(), 1u);
  EXPECT_EQ(nd.remove_keys[0], dyn::edge_key(9, 1));
  EXPECT_EQ(nd.dropped_self_loops, 2u);
  EXPECT_EQ(nd.duplicate_inserts, 1u);
  EXPECT_EQ(nd.duplicate_removes, 1u);
}

Graph tiny_graph() {
  Graph g(6);
  g.add_edge(0, 1, 2.0);
  g.add_edge(1, 2, 3.0);
  g.add_edge(2, 3, 4.0);
  g.add_edge(4, 5, 5.0);
  return g;
}

TEST(Dynamic, ApplyCountsEffectiveAndPhantomOps) {
  DynamicGraph dg(tiny_graph());
  EXPECT_EQ(dg.generation(), 0u);
  EXPECT_EQ(dg.num_live_edges(), 4u);

  EdgeDelta d;
  d.removes.push_back({0, 1});   // effective remove
  d.removes.push_back({0, 5});   // phantom: never existed
  d.inserts.push_back({1, 2, 3.0});  // duplicate: live at same weight
  d.inserts.push_back({2, 3, 9.0});  // reweight
  d.inserts.push_back({3, 5, 1.5});  // new edge
  const dyn::DeltaSummary s = dg.apply(d);
  EXPECT_EQ(s.generation, 1u);
  EXPECT_EQ(dg.generation(), 1u);
  // Reweight counts on both sides; the duplicate insert on neither.
  EXPECT_EQ(s.inserted, 2u);
  EXPECT_EQ(s.removed, 2u);
  EXPECT_EQ(s.duplicate_inserts, 1u);
  EXPECT_EQ(s.phantom_removes, 1u);
  EXPECT_EQ(dg.num_live_edges(), 4u);  // -1 remove, +1 insert, 1 reweight

  // An all-phantom batch still bumps the generation: the counter counts
  // applied batches, keeping checkpoint identity conservative.
  EdgeDelta phantom;
  phantom.removes.push_back({0, 1});  // already gone
  const dyn::DeltaSummary s2 = dg.apply(phantom);
  EXPECT_EQ(s2.inserted, 0u);
  EXPECT_EQ(s2.removed, 0u);
  EXPECT_EQ(s2.phantom_removes, 1u);
  EXPECT_EQ(dg.generation(), 2u);
}

TEST(Dynamic, ApplyRejectsOutOfRangeEndpointsTyped) {
  DynamicGraph dg(tiny_graph());
  EdgeDelta d;
  d.inserts.push_back({2, 17, 1.0});
  EXPECT_THROW(dg.apply(d), ConfigError);
  EXPECT_EQ(dg.generation(), 0u);  // nothing applied
  EXPECT_EQ(dg.num_live_edges(), 4u);
}

TEST(Dynamic, ApplyRejectsNonFiniteInsertWeightTyped) {
  for (const double w : {std::numeric_limits<double>::quiet_NaN(),
                         std::numeric_limits<double>::infinity(),
                         -std::numeric_limits<double>::infinity()}) {
    DynamicGraph dg(tiny_graph());
    EdgeDelta d;
    d.inserts.push_back({3, 5, w});
    EXPECT_THROW(dg.apply(d), ConfigError) << w;
    EXPECT_EQ(dg.generation(), 0u) << w;  // nothing applied
    EXPECT_EQ(dg.num_live_edges(), 4u) << w;
  }
}

TEST(Dynamic, MaterializeGenerationZeroIsTheBaseGraph) {
  Graph base = tiny_graph();
  DynamicGraph dg{Graph(base)};
  const auto g = dg.materialize();
  ASSERT_EQ(g->num_edges(), base.num_edges());
  for (EdgeId e = 0; e < base.num_edges(); ++e) {
    EXPECT_EQ(g->edge(e).u, base.edge(e).u);
    EXPECT_EQ(g->edge(e).v, base.edge(e).v);
    EXPECT_EQ(g->edge(e).w, base.edge(e).w);
  }
}

TEST(Dynamic, CanonicalMaterializationIsHistoryIndependent) {
  // Two different churn histories reaching the same live set must produce
  // bitwise-identical graphs (same edge order, endpoints, weights).
  DynamicGraph a(tiny_graph());
  DynamicGraph b(tiny_graph());

  {  // History A: one batch.
    EdgeDelta d;
    d.removes.push_back({2, 3});
    d.inserts.push_back({0, 3, 7.0});
    d.inserts.push_back({1, 4, 2.5});
    a.apply(d);
  }
  {  // History B: the same net effect in three batches, with detours.
    EdgeDelta d1;
    d1.inserts.push_back({1, 4, 99.0});  // wrong weight first
    b.apply(d1);
    EdgeDelta d2;
    d2.removes.push_back({2, 3});
    d2.removes.push_back({1, 4});
    b.apply(d2);
    EdgeDelta d3;
    d3.inserts.push_back({1, 4, 2.5});
    d3.inserts.push_back({0, 3, 7.0});
    b.apply(d3);
  }

  const auto ga = a.materialize();
  const auto gb = b.materialize();
  ASSERT_EQ(ga->num_edges(), gb->num_edges());
  for (EdgeId e = 0; e < ga->num_edges(); ++e) {
    EXPECT_EQ(ga->edge(e).u, gb->edge(e).u);
    EXPECT_EQ(ga->edge(e).v, gb->edge(e).v);
    EXPECT_EQ(ga->edge(e).w, gb->edge(e).w);
  }
}

TEST(Dynamic, DeltaSinceNetsOutCancellingChurn) {
  DynamicGraph dg(tiny_graph());
  EdgeDelta d1;
  d1.removes.push_back({1, 2});
  dg.apply(d1);
  EdgeDelta d2;
  d2.inserts.push_back({1, 2, 3.0});  // re-insert at the original weight
  d2.inserts.push_back({0, 4, 6.0});  // genuinely new
  dg.apply(d2);
  EdgeDelta d3;
  d3.inserts.push_back({2, 3, 8.0});  // reweight (was 4.0)
  dg.apply(d3);

  const EdgeDelta net = dg.delta_since(0);
  // remove+reinsert of (1,2) at the same weight nets to nothing; (0,4) is
  // a net insert; (2,3) is a net reweight = remove + insert.
  ASSERT_EQ(net.removes.size(), 1u);
  EXPECT_EQ(net.removes[0].u, 2u);
  EXPECT_EQ(net.removes[0].v, 3u);
  ASSERT_EQ(net.inserts.size(), 2u);
  EXPECT_EQ(net.inserts[0].u, 0u);
  EXPECT_EQ(net.inserts[0].v, 4u);
  EXPECT_EQ(net.inserts[0].w, 6.0);
  EXPECT_EQ(net.inserts[1].u, 2u);
  EXPECT_EQ(net.inserts[1].v, 3u);
  EXPECT_EQ(net.inserts[1].w, 8.0);
  // From the current generation the delta is empty.
  const EdgeDelta none = dg.delta_since(dg.generation());
  EXPECT_TRUE(none.removes.empty());
  EXPECT_TRUE(none.inserts.empty());
}

// ---------------------------------------------------------------------------
// Warm-started incremental re-solve.

core::SolverOptions resolve_options() {
  core::SolverOptions opt;
  opt.eps = 0.2;
  opt.p = 2.0;
  opt.seed = 424;
  opt.sparsifiers_per_round = 4;
  return opt;
}

Graph resolve_graph() {
  Graph g = gen::gnm(120, 900, 911);
  gen::weight_uniform(g, 1.0, 12.0, 912);
  return g;
}

/// A churn batch touching k existing edges and inserting k new ones, with
/// a phantom delete and a duplicate insert mixed in.
EdgeDelta churn_batch(const Graph& g, std::uint64_t seed, std::size_t k) {
  Rng rng(seed);
  EdgeDelta d;
  const auto n = static_cast<std::uint64_t>(g.num_vertices());
  for (std::size_t i = 0; i < k; ++i) {
    const Edge& e = g.edge(static_cast<EdgeId>(
        rng.uniform(static_cast<std::uint64_t>(g.num_edges()))));
    d.removes.push_back({e.u, e.v});
    const auto u = static_cast<Vertex>(rng.uniform(n));
    const auto v = static_cast<Vertex>(rng.uniform(n));
    if (u != v) {
      d.inserts.push_back(
          {u, v, 1.0 + static_cast<double>(rng.uniform(11))});
    }
  }
  d.removes.push_back({static_cast<Vertex>(0),
                       static_cast<Vertex>(g.num_vertices() - 1)});
  if (!d.inserts.empty()) d.inserts.push_back(d.inserts.front());
  return d;
}

TEST(Dynamic, ResolveMatchesScratchBitwiseAcrossThreadsAndSubstrates) {
  DynamicGraph dg(resolve_graph());
  const auto pre = dg.materialize();

  // Cold solve on the pre-delta graph produces the warm handle.
  core::SolverOptions copt = resolve_options();
  const core::SolverResult cold = core::solve_matching(*pre, copt);
  ASSERT_NE(cold.warm, nullptr);
  ASSERT_GT(cold.outer_rounds, 0u);
  ASSERT_GT(cold.lambda, 0.0);  // a usable certificate level to re-attain

  // k-edge churn, k ~ 1% of m.
  dg.apply(churn_batch(*pre, 5150, 9));
  const auto post = dg.materialize();
  const EdgeDelta delta = dg.delta_since(0);

  for (const std::size_t threads : {1, 2, 8}) {
    for (const bool use_streaming : {false, true}) {
      access::InMemorySubstrate in_memory;
      access::StreamingSubstrate streaming;

      core::SolverOptions sopt = resolve_options();
      sopt.oracle.threads = threads;
      sopt.substrate = use_streaming
                           ? static_cast<access::Substrate*>(&streaming)
                           : &in_memory;
      sopt.graph_generation = dg.generation();
      const core::SolverResult scratch = core::solve_matching(*post, sopt);

      access::InMemorySubstrate in_memory2;
      access::StreamingSubstrate streaming2;
      core::SolverOptions ropt = resolve_options();
      ropt.oracle.threads = threads;
      ropt.substrate = use_streaming
                           ? static_cast<access::Substrate*>(&streaming2)
                           : &in_memory2;
      ropt.graph_generation = dg.generation();
      core::Solver solver(*post, ropt);
      const core::SolverResult warm = solver.resolve(*cold.warm, delta);

      const std::string label = std::string(use_streaming ? "streaming"
                                                          : "in-memory") +
                                " threads=" + std::to_string(threads);
      EXPECT_TRUE(warm.warm_resolve) << label;
      EXPECT_TRUE(warm.resolve_fallback.empty()) << label;
      // The acceptance contract: value and certified ratio bitwise-equal
      // to the from-scratch solve on the post-delta graph.
      EXPECT_EQ(warm.value, scratch.value) << label;
      EXPECT_EQ(warm.certified_ratio, scratch.certified_ratio) << label;
      EXPECT_EQ(warm.lambda, warm.lambda) << label;  // not NaN
      // o(full-solve): strictly fewer MW rounds than from-scratch, with
      // the saving metered first-class.
      EXPECT_LT(warm.outer_rounds, scratch.outer_rounds) << label;
      EXPECT_GT(warm.meter.saved_rounds(), 0u) << label;
      EXPECT_GT(warm.meter.repaired_rows(), 0u) << label;
      // The re-anchor stores the retained set for its offline solve and
      // releases exactly what it stored.
      EXPECT_EQ(warm.meter.stored_edges(), 0u) << label;
      EXPECT_GT(warm.meter.peak_edges(), 0u) << label;
    }
  }
}

TEST(Dynamic, ChainedChurnKeepsResolveEqualToScratch) {
  // Interleaved insert/delete churn over several generations; each hop
  // re-solves warm from the PREVIOUS hop's handle and must stay equal to
  // from-scratch.
  DynamicGraph dg(resolve_graph());

  core::SolverOptions copt = resolve_options();
  core::SolverResult prev = core::solve_matching(*dg.materialize(), copt);
  ASSERT_NE(prev.warm, nullptr);
  std::uint64_t prev_gen = dg.generation();

  for (std::uint64_t hop = 0; hop < 3; ++hop) {
    const auto live = dg.materialize();
    dg.apply(churn_batch(*live, 6200 + hop, 6));
    const auto post = dg.materialize();
    const EdgeDelta delta = dg.delta_since(prev_gen);

    core::SolverOptions sopt = resolve_options();
    sopt.graph_generation = dg.generation();
    const core::SolverResult scratch = core::solve_matching(*post, sopt);

    core::SolverOptions ropt = resolve_options();
    ropt.graph_generation = dg.generation();
    core::Solver solver(*post, ropt);
    const core::SolverResult warm = solver.resolve(*prev.warm, delta);

    const std::string label = "hop=" + std::to_string(hop);
    EXPECT_TRUE(warm.warm_resolve) << label;
    EXPECT_EQ(warm.value, scratch.value) << label;
    EXPECT_EQ(warm.certified_ratio, scratch.certified_ratio) << label;
    // The chained handle keeps the FULL-solve baseline, so savings stay
    // visible on every hop.
    EXPECT_GT(warm.meter.saved_rounds(), 0u) << label;
    ASSERT_NE(warm.warm, nullptr) << label;
    EXPECT_EQ(warm.warm->graph_generation, dg.generation()) << label;
    prev = warm;
    prev_gen = dg.generation();
  }
}

TEST(Dynamic, ResolveFallsBackWhenLevelStructureMoves) {
  DynamicGraph dg(resolve_graph());
  const auto pre = dg.materialize();
  core::SolverOptions copt = resolve_options();
  const core::SolverResult cold = core::solve_matching(*pre, copt);
  ASSERT_NE(cold.warm, nullptr);

  // A delta that moves W* re-maps every level: the stale duals certify
  // nothing, so resolve must fall back to scratch — and say why.
  EdgeDelta d;
  d.inserts.push_back({0, 1, 5000.0});
  dg.apply(d);
  const auto post = dg.materialize();

  core::SolverOptions ropt = resolve_options();
  ropt.graph_generation = dg.generation();
  core::Solver solver(*post, ropt);
  const core::SolverResult warm = solver.resolve(*cold.warm, dg.delta_since(0));
  EXPECT_FALSE(warm.warm_resolve);
  EXPECT_NE(warm.resolve_fallback.find("level structure"), std::string::npos)
      << warm.resolve_fallback;

  core::SolverOptions sopt = resolve_options();
  sopt.graph_generation = dg.generation();
  const core::SolverResult scratch = core::solve_matching(*post, sopt);
  EXPECT_EQ(warm.value, scratch.value);
  EXPECT_EQ(warm.certified_ratio, scratch.certified_ratio);
}

TEST(Dynamic, ResolveFallsBackOnConfigurationChange) {
  DynamicGraph dg(resolve_graph());
  core::SolverOptions copt = resolve_options();
  const core::SolverResult cold = core::solve_matching(*dg.materialize(), copt);
  ASSERT_NE(cold.warm, nullptr);
  dg.apply(churn_batch(*dg.materialize(), 7300, 4));
  const auto post = dg.materialize();

  core::SolverOptions ropt = resolve_options();
  ropt.seed = copt.seed + 1;  // different seed = different identity
  ropt.graph_generation = dg.generation();
  core::Solver solver(*post, ropt);
  const core::SolverResult r = solver.resolve(*cold.warm, dg.delta_since(0));
  EXPECT_FALSE(r.warm_resolve);
  EXPECT_NE(r.resolve_fallback.find("configuration"), std::string::npos);
  EXPECT_GT(r.value, 0.0);
}

TEST(Dynamic, ResolveFallsBackOnAMalformedWarmHandle) {
  // A warm handle whose duals index outside the post-delta instance would
  // drive dense writes out of range; resolve must refuse it and solve from
  // scratch instead.
  DynamicGraph dg(resolve_graph());
  const core::SolverResult cold =
      core::solve_matching(*dg.materialize(), resolve_options());
  ASSERT_NE(cold.warm, nullptr);
  dg.apply(churn_batch(*dg.materialize(), 5150, 9));
  const auto post = dg.materialize();
  const EdgeDelta delta = dg.delta_since(0);
  const core::WarmStart& good = *cold.warm;

  core::WarmStart key = good;
  key.duals.xik.emplace_back(good.n * static_cast<std::uint64_t>(good.levels),
                             0.5);
  core::WarmStart xi = good;
  xi.duals.xi.push_back(0.0);
  core::WarmStart member = good;
  member.duals.odd_sets.push_back(
      core::OddSetVar{0, {0, 1, static_cast<Vertex>(good.n)}, 0.125});
  for (const auto& [label, bad] :
       {std::pair{"xik key n*L", &key}, std::pair{"extra xi entry", &xi},
        std::pair{"odd-set member n", &member}}) {
    core::SolverOptions ropt = resolve_options();
    ropt.graph_generation = dg.generation();
    core::Solver solver(*post, ropt);
    const core::SolverResult r = solver.resolve(*bad, delta);
    EXPECT_EQ(r.resolve_fallback, "malformed warm-start handle") << label;
    EXPECT_FALSE(r.warm_resolve) << label;
    EXPECT_GT(r.value, 0.0) << label;
  }
}

/// Everything a resolve computes, the warm handle (duals and weight order)
/// included, equal bitwise.
void expect_same_resolve(const core::SolverResult& a,
                         const core::SolverResult& b,
                         const std::string& label) {
  EXPECT_EQ(a.warm_resolve, b.warm_resolve) << label;
  EXPECT_EQ(a.resolve_fallback, b.resolve_fallback) << label;
  EXPECT_EQ(a.value, b.value) << label;
  EXPECT_EQ(a.dual_bound, b.dual_bound) << label;
  EXPECT_EQ(a.certified_ratio, b.certified_ratio) << label;
  EXPECT_EQ(a.lambda, b.lambda) << label;
  EXPECT_EQ(a.outer_rounds, b.outer_rounds) << label;
  EXPECT_EQ(a.meter.summary(), b.meter.summary()) << label;
  EXPECT_EQ(a.matching.edges(), b.matching.edges()) << label;
  ASSERT_NE(a.warm, nullptr) << label;
  ASSERT_NE(b.warm, nullptr) << label;
  EXPECT_EQ(a.warm->duals.xik, b.warm->duals.xik) << label;
  EXPECT_EQ(a.warm->duals.xi, b.warm->duals.xi) << label;
  EXPECT_EQ(a.warm->duals.odd_sets.size(), b.warm->duals.odd_sets.size())
      << label;
  EXPECT_EQ(*a.warm->weight_order, *b.warm->weight_order) << label;
}

TEST(Dynamic, ResolveSortsWhenTheMergedOrderFailsItsCheck) {
  // A key-sorted base, so the good handle's order merges from generation
  // 0 on; two hops, so one delta can skip the first.
  DynamicGraph dg(test::key_sorted(resolve_graph()));
  const core::SolverResult cold =
      core::solve_matching(*dg.materialize(), resolve_options());
  ASSERT_NE(cold.warm, nullptr);
  ASSERT_NE(cold.warm->weight_order, nullptr);
  dg.apply(churn_batch(*dg.materialize(), 5150, 9));
  dg.apply(churn_batch(*dg.materialize(), 5151, 9));
  const auto post = dg.materialize();
  const EdgeDelta delta = dg.delta_since(0);

  // What resolve merges, nullopt where it sorts.
  const auto merged = [](const Graph& g, const core::WarmStart& w,
                         const EdgeDelta& d) {
    const dyn::DeltaIds ids = dyn::delta_ids(g, dyn::normalize(d));
    return merge_weight_order(g, *w.weight_order, ids.renamed, ids.inserted);
  };
  // Each resolve must equal the one that sorts from the start.
  const auto check = [&dg](const Graph& g, const core::WarmStart& w,
                           const EdgeDelta& d, const std::string& label) {
    core::SolverOptions ropt = resolve_options();
    ropt.graph_generation = dg.generation();
    core::WarmStart sorting = w;
    sorting.weight_order = nullptr;
    const core::SolverResult r = core::Solver(g, ropt).resolve(w, d);
    expect_same_resolve(r, core::Solver(g, ropt).resolve(sorting, d), label);
    EXPECT_EQ(*r.warm->weight_order, edges_by_weight_desc(g)) << label;
  };
  ASSERT_EQ(merged(*post, *cold.warm, delta), edges_by_weight_desc(*post));
  check(*post, *cold.warm, delta, "good handle");

  // Handle orders that fail the merge's check.
  const std::vector<EdgeId>& good = *cold.warm->weight_order;
  const std::size_t m = good.size();
  std::vector<std::pair<std::string, std::vector<EdgeId>>> bad_orders(
      4, {"", good});
  bad_orders[0].first = "too short";
  bad_orders[0].second.pop_back();
  bad_orders[1].first = "an id >= m";
  bad_orders[1].second[3] = static_cast<EdgeId>(m + 5);
  bad_orders[2].first = "a repeated id";
  bad_orders[2].second[1] = good[0];
  bad_orders[3].first = "two ids of unequal weight swapped";
  const Graph pre = test::key_sorted(resolve_graph());
  std::size_t lighter = 1;
  while (pre.edge(good[lighter]).w == pre.edge(good[0]).w) ++lighter;
  std::swap(bad_orders[3].second[0], bad_orders[3].second[lighter]);
  for (const auto& [label, order] : bad_orders) {
    core::WarmStart w = *cold.warm;
    w.weight_order = std::make_shared<const std::vector<EdgeId>>(order);
    EXPECT_EQ(merged(*post, w, delta), std::nullopt) << label;
    check(*post, w, delta, label);
  }

  // A delta that does not match the handle: the second hop alone.
  const EdgeDelta second_hop = dg.delta_since(1);
  EXPECT_EQ(merged(*post, *cold.warm, second_hop), std::nullopt);
  check(*post, *cold.warm, second_hop, "mismatched delta");

  // A caller-built graph outside key order: no renaming, so no merge.
  std::vector<Edge> shuffled_edges = post->edges();
  Rng rng(5152);
  rng.shuffle(shuffled_edges);
  const Graph shuffled(post->num_vertices(), std::move(shuffled_edges));
  const dyn::NormalizedDelta net = dyn::normalize(delta);
  EXPECT_EQ(dyn::delta_ids(shuffled, net).inserted,
            test::inserted_ids(shuffled, net));
  EXPECT_EQ(merged(shuffled, *cold.warm, delta), std::nullopt);
  check(shuffled, *cold.warm, delta, "caller-built graph");

  // A generation-0 base outside key order: its ids are not the key order
  // the renaming assumes.
  DynamicGraph unsorted(resolve_graph());
  const core::SolverResult unsorted_cold =
      core::solve_matching(*unsorted.materialize(), resolve_options());
  ASSERT_NE(unsorted_cold.warm, nullptr);
  unsorted.apply(churn_batch(*unsorted.materialize(), 5150, 9));
  unsorted.apply(churn_batch(*unsorted.materialize(), 5151, 9));
  EXPECT_EQ(merged(*unsorted.materialize(), *unsorted_cold.warm,
                   unsorted.delta_since(0)),
            std::nullopt);
  check(*unsorted.materialize(), *unsorted_cold.warm,
        unsorted.delta_since(0), "unsorted generation-0 base");
}

TEST(Dynamic, ResolveRejectsNonFiniteWeightTyped) {
  const Graph pre = resolve_graph();
  const core::SolverResult cold = core::solve_matching(pre, resolve_options());
  ASSERT_NE(cold.warm, nullptr);
  for (const double w : {std::numeric_limits<double>::quiet_NaN(),
                         std::numeric_limits<double>::infinity(),
                         -std::numeric_limits<double>::infinity()}) {
    // A post-delta graph built directly (DynamicGraph::apply refuses the
    // reweight): edge 7 reweighted to w.
    std::vector<Edge> edges = pre.edges();
    edges[7].w = w;
    const Graph post(pre.num_vertices(), std::move(edges));
    EdgeDelta delta;
    delta.inserts.push_back({post.edge(7).u, post.edge(7).v, w});
    core::SolverOptions ropt = resolve_options();
    ropt.graph_generation = 1;
    core::Solver solver(post, ropt);
    EXPECT_THROW(solver.resolve(*cold.warm, delta), ConfigError) << w;
  }
}

// ---------------------------------------------------------------------------
// Stale checkpoints: typed rejection at the solver layer.

TEST(Dynamic, StaleCheckpointRejectedTypedBySolver) {
  const Graph g = resolve_graph();
  core::SolverOptions opt = resolve_options();
  opt.max_outer_rounds = 6;
  std::shared_ptr<const core::RoundCheckpoint> ck;
  opt.on_checkpoint = [&](const core::RoundCheckpoint& c) {
    ck = std::make_shared<core::RoundCheckpoint>(c);
    return false;  // stop after round 1 with a checkpoint in hand
  };
  const core::SolverResult r = core::solve_matching(g, opt);
  ASSERT_EQ(r.status, core::SolverStatus::kInterrupted);
  ASSERT_NE(ck, nullptr);
  EXPECT_EQ(ck->graph_generation, 0u);

  // The same graph SHAPE after a remove+insert delta: n, m and the
  // retained count can all survive unchanged — only the generation says
  // the checkpoint no longer matches. Resume must be a typed ConfigError,
  // never a silent wrong-graph solve.
  core::SolverOptions stale = resolve_options();
  stale.max_outer_rounds = 6;
  stale.graph_generation = 1;
  core::Solver solver(g, stale);
  try {
    solver.solve(*ck);
    FAIL() << "expected ConfigError for stale graph generation";
  } catch (const ConfigError& err) {
    EXPECT_NE(std::string(err.what()).find("stale graph generation"),
              std::string::npos);
    EXPECT_EQ(err.context().site, "solver.resume");
  }

  // Matching generation resumes fine (same graph, generation threaded).
  core::SolverOptions fresh = resolve_options();
  fresh.max_outer_rounds = 6;
  fresh.graph_generation = 0;
  core::Solver ok(g, fresh);
  const core::SolverResult resumed = ok.solve(*ck);
  EXPECT_GT(resumed.outer_rounds, 0u);
}

TEST(Dynamic, CheckpointSerializationCarriesGraphGeneration) {
  const Graph g = resolve_graph();
  core::SolverOptions opt = resolve_options();
  opt.max_outer_rounds = 2;
  opt.graph_generation = 17;
  std::shared_ptr<const core::RoundCheckpoint> ck;
  opt.on_checkpoint = [&](const core::RoundCheckpoint& c) {
    ck = std::make_shared<core::RoundCheckpoint>(c);
    return false;
  };
  core::solve_matching(g, opt);
  ASSERT_NE(ck, nullptr);
  EXPECT_EQ(ck->graph_generation, 17u);
  const std::vector<std::uint8_t> bytes = ck->serialize();
  const core::RoundCheckpoint back = core::RoundCheckpoint::deserialize(bytes);
  EXPECT_EQ(back.graph_generation, 17u);
}

// ---------------------------------------------------------------------------
// Serving layer: apply-delta and incremental-resolve request classes.

TEST(Dynamic, ServiceAppliesDeltasAndResolvesWarm) {
  serve::ServiceOptions sopt;
  sopt.workers = 1;
  sopt.solver = resolve_options();
  serve::MatchingService svc(sopt);
  const std::size_t snap = svc.add_snapshot(resolve_graph());

  serve::Request solve_req;
  solve_req.type = serve::RequestType::kSolve;
  solve_req.snapshot = snap;
  const serve::Response solved = svc.submit(solve_req).wait();
  ASSERT_EQ(solved.status, serve::ResponseStatus::kOk);
  EXPECT_EQ(solved.generation, 0u);

  // Apply a churn batch through the service.
  const Graph base = resolve_graph();
  serve::Request apply_req;
  apply_req.type = serve::RequestType::kApplyDelta;
  apply_req.snapshot = snap;
  apply_req.delta = std::make_shared<EdgeDelta>(churn_batch(base, 8400, 8));
  const serve::Response applied = svc.submit(apply_req).wait();
  ASSERT_EQ(applied.status, serve::ResponseStatus::kOk);
  EXPECT_EQ(applied.generation, 1u);
  EXPECT_FALSE(applied.certified);
  EXPECT_NE(applied.detail.find("inserted="), std::string::npos);

  // Incremental resolve rides the retained warm handle.
  serve::Request resolve_req;
  resolve_req.type = serve::RequestType::kResolve;
  resolve_req.snapshot = snap;
  const serve::Response resolved = svc.submit(resolve_req).wait();
  ASSERT_EQ(resolved.status, serve::ResponseStatus::kOk);
  EXPECT_TRUE(resolved.certified);
  EXPECT_TRUE(resolved.warm_resolve);
  EXPECT_EQ(resolved.generation, 1u);

  // The service's answer equals a direct from-scratch solve on the same
  // post-delta graph (the canonical materialization is a pure function of
  // the live set, so we can rebuild it here).
  DynamicGraph shadow{Graph(base)};
  shadow.apply(*apply_req.delta);
  core::SolverOptions direct = resolve_options();
  direct.graph_generation = 1;
  const core::SolverResult scratch =
      core::solve_matching(*shadow.materialize(), direct);
  EXPECT_EQ(resolved.value, scratch.value);
  EXPECT_EQ(resolved.certified_ratio, scratch.certified_ratio);

  const serve::ServiceStats st = svc.stats();
  EXPECT_EQ(st.deltas_applied, 1u);
  EXPECT_EQ(st.resolves_warm, 1u);
  EXPECT_EQ(st.resolves_scratch, 0u);
}

TEST(Dynamic, ServiceRejectsNonFiniteInsertTyped) {
  serve::ServiceOptions sopt;
  sopt.workers = 1;
  sopt.solver = resolve_options();
  serve::MatchingService svc(sopt);
  const std::size_t snap = svc.add_snapshot(tiny_graph());

  serve::Request bad;
  bad.type = serve::RequestType::kApplyDelta;
  bad.snapshot = snap;
  auto nan_insert = std::make_shared<EdgeDelta>();
  nan_insert->inserts.push_back(
      {3, 5, std::numeric_limits<double>::quiet_NaN()});
  bad.delta = nan_insert;
  const serve::Response rejected = svc.submit(bad).wait();
  EXPECT_EQ(rejected.status, serve::ResponseStatus::kError);
  EXPECT_NE(rejected.detail.find("not finite"), std::string::npos)
      << rejected.detail;

  // The snapshot kept its generation: the next valid batch is the first.
  serve::Request good = bad;
  auto finite_insert = std::make_shared<EdgeDelta>();
  finite_insert->inserts.push_back({3, 5, 1.5});
  good.delta = finite_insert;
  const serve::Response applied = svc.submit(good).wait();
  ASSERT_EQ(applied.status, serve::ResponseStatus::kOk);
  EXPECT_EQ(applied.generation, 1u);
}

TEST(Dynamic, ServiceResolveWithoutWarmHandleFallsBackToFullSolve) {
  serve::ServiceOptions sopt;
  sopt.workers = 1;
  sopt.solver = resolve_options();
  serve::MatchingService svc(sopt);
  const std::size_t snap = svc.add_snapshot(resolve_graph());

  serve::Request resolve_req;
  resolve_req.type = serve::RequestType::kResolve;
  resolve_req.snapshot = snap;
  const serve::Response r = svc.submit(resolve_req).wait();
  ASSERT_EQ(r.status, serve::ResponseStatus::kOk);
  EXPECT_TRUE(r.certified);
  EXPECT_FALSE(r.warm_resolve);
  EXPECT_NE(r.detail.find("no warm handle"), std::string::npos);
  EXPECT_EQ(svc.stats().resolves_scratch, 1u);
}

TEST(Dynamic, ServiceRejectsStaleResumeTyped) {
  serve::ServiceOptions sopt;
  sopt.workers = 1;
  sopt.solver = resolve_options();
  serve::MatchingService svc(sopt);
  const std::size_t snap = svc.add_snapshot(resolve_graph());

  // A checkpoint minted at generation 0 (shape does not matter: the
  // service's guard is the generation counter alone).
  auto ck = std::make_shared<core::RoundCheckpoint>();
  ck->graph_generation = 0;

  serve::Request apply_req;
  apply_req.type = serve::RequestType::kApplyDelta;
  apply_req.snapshot = snap;
  apply_req.delta =
      std::make_shared<EdgeDelta>(churn_batch(resolve_graph(), 9500, 3));
  ASSERT_EQ(svc.submit(apply_req).wait().status, serve::ResponseStatus::kOk);

  serve::Request resume_req;
  resume_req.type = serve::RequestType::kSolve;
  resume_req.snapshot = snap;
  resume_req.resume = ck;
  const serve::Response r = svc.submit(resume_req).wait();
  EXPECT_EQ(r.status, serve::ResponseStatus::kStaleResume);
  EXPECT_FALSE(r.certified);
  EXPECT_EQ(r.generation, 1u);
  EXPECT_NE(r.detail.find("predates"), std::string::npos);
  EXPECT_EQ(svc.stats().stale_resumes, 1u);
  EXPECT_EQ(std::string(serve::response_status_name(
                serve::ResponseStatus::kStaleResume)),
            "stale_resume");
}

}  // namespace
}  // namespace dp
