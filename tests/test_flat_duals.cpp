// Tests for the flat dual-state subsystem: the SparseDuals/FlatDuals
// containers, the O(1) level-weight prefix queries, and — most importantly —
// randomized equivalence of the flat MicroOracle path against the retained
// map-based reference (core/oracle_ref.hpp), plus bitwise determinism of
// the parallel sweeps across thread counts.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <memory>

#include "core/dual_state.hpp"
#include "core/flat_duals.hpp"
#include "core/oracle.hpp"
#include "core/oracle_ref.hpp"
#include "core/weight_levels.hpp"
#include "graph/generators.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace dp::core {
namespace {

TEST(SparseDuals, MapSurfaceAndAppend) {
  SparseDuals d;
  EXPECT_TRUE(d.empty());
  d[7] = 1.5;
  d[3] = 2.5;  // sorted insert in front
  d[7] += 0.5;
  EXPECT_EQ(d.size(), 2u);
  EXPECT_DOUBLE_EQ(d.at(3), 2.5);
  EXPECT_DOUBLE_EQ(d.at(7), 2.0);
  EXPECT_DOUBLE_EQ(d.get(5), 0.0);
  EXPECT_EQ(d.find(5), d.end());
  ASSERT_NE(d.find(3), d.end());
  EXPECT_DOUBLE_EQ(d.find(3)->second, 2.5);
  EXPECT_THROW(d.at(5), std::out_of_range);
  // Keys iterate in sorted order.
  d.append(11, 4.0);
  std::vector<std::uint64_t> keys;
  for (const auto& [key, value] : d) keys.push_back(key);
  EXPECT_EQ(keys, (std::vector<std::uint64_t>{3, 7, 11}));
  // Out-of-order append degrades to the sorted insert instead of breaking
  // the invariant.
  d.append(5, 1.0);
  EXPECT_DOUBLE_EQ(d.at(5), 1.0);
  keys.clear();
  for (const auto& [key, value] : d) keys.push_back(key);
  EXPECT_TRUE(std::is_sorted(keys.begin(), keys.end()));
}

TEST(FlatDuals, ActiveListAndClear) {
  FlatDuals f(100);
  f.add(10, 1.0);
  f.add(10, 0.5);
  f.set(42, 3.0);
  EXPECT_EQ(f.active_count(), 2u);
  EXPECT_DOUBLE_EQ(f.get(10), 1.5);
  EXPECT_DOUBLE_EQ(f.get(42), 3.0);
  EXPECT_DOUBLE_EQ(f.get(11), 0.0);
  EXPECT_TRUE(f.contains(42));
  EXPECT_FALSE(f.contains(11));
  f.scale_all(2.0);
  EXPECT_DOUBLE_EQ(f.get(10), 3.0);
  const SparseDuals sparse = f.to_sparse();
  EXPECT_EQ(sparse.size(), 2u);
  EXPECT_DOUBLE_EQ(sparse.get(42), 6.0);
  f.clear();
  EXPECT_EQ(f.active_count(), 0u);
  EXPECT_DOUBLE_EQ(f.get(10), 0.0);
  EXPECT_FALSE(f.contains(10));
}

TEST(KeyBitset, DrainMatchesSortUnique) {
  Rng rng(17);
  for (const std::uint64_t domain : {1u, 63u, 64u, 65u, 19350u}) {
    KeyBitset set;
    set.reserve(domain);
    std::vector<std::uint64_t> drained;
    auto drain = [&] {
      drained.clear();
      set.drain([&](std::uint64_t key) { drained.push_back(key); });
    };
    drain();  // nothing marked yet
    EXPECT_TRUE(drained.empty()) << "domain " << domain;
    // Three mark/drain cycles on the one instance: each drain must return
    // exactly its own cycle's keys, so the set starts empty every time.
    for (int cycle = 0; cycle < 3; ++cycle) {
      std::vector<std::uint64_t> keys;
      for (const std::uint64_t edge : {std::uint64_t{0}, std::uint64_t{63},
                                       std::uint64_t{64}, domain - 1}) {
        if (edge < domain && rng.uniform_real() < 0.7) keys.push_back(edge);
      }
      const std::size_t count = rng.uniform(2 * domain + 1);
      for (std::size_t i = 0; i < count; ++i) {
        keys.push_back(rng.uniform(domain));
      }
      // Duplicates, marked out of order.
      const std::size_t dups = keys.size() / 2;
      for (std::size_t i = 0; i < dups; ++i) {
        keys.push_back(keys[rng.uniform(keys.size())]);
      }
      rng.shuffle(keys);
      for (const std::uint64_t key : keys) set.mark(key);
      drain();
      std::sort(keys.begin(), keys.end());
      keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
      EXPECT_EQ(drained, keys) << "domain " << domain << " cycle " << cycle;
    }
    drain();
    EXPECT_TRUE(drained.empty()) << "domain " << domain;
  }
}

TEST(WeightLevels, PrefixRangeMatchesLoop) {
  Graph g(4);
  g.add_edge(0, 1, 1.0);
  g.add_edge(1, 2, 7.0);
  g.add_edge(2, 3, 64.0);
  const LevelGraph lg(g, Capacities::unit(4), 0.2);
  const int L = lg.num_levels();
  for (int lo = -2; lo <= L + 1; ++lo) {
    for (int hi = lo; hi <= L + 1; ++hi) {
      double expect = 0;
      for (int l = std::max(lo, 0); l <= std::min(hi, L - 1); ++l) {
        expect += lg.level_weight(l);
      }
      EXPECT_NEAR(lg.level_weight_range(lo, hi), expect, 1e-9 * (1 + expect))
          << "range [" << lo << ", " << hi << "]";
    }
  }
  EXPECT_DOUBLE_EQ(lg.level_weight_range(3, 2), 0.0);
}

TEST(ThreadPool, ParallelChunksBoundariesIgnorePoolSize) {
  // Chunk decomposition must depend only on the grain. Compare the chunk
  // triples observed with 1 worker vs 4 workers.
  auto collect = [](std::size_t workers) {
    ThreadPool pool(workers);
    std::vector<std::array<std::size_t, 3>> chunks(64);
    std::atomic<std::size_t> count{0};
    pool.parallel_chunks(5, 103, 13,
                         [&](std::size_t c, std::size_t lo, std::size_t hi) {
                           chunks[c] = {c, lo, hi};
                           ++count;
                         });
    chunks.resize(count.load());
    return chunks;
  };
  const auto one = collect(1);
  const auto four = collect(4);
  ASSERT_EQ(one.size(), four.size());
  for (std::size_t c = 0; c < one.size(); ++c) {
    EXPECT_EQ(one[c], four[c]);
  }
  // Full coverage, no overlap.
  std::size_t covered = 0;
  for (const auto& [c, lo, hi] : one) covered += hi - lo;
  EXPECT_EQ(covered, 103u - 5u);
}

TEST(GraphAdjacency, ConcurrentLazyBuildIsConsistent) {
  Graph g = gen::gnm(200, 1200, 5);
  // First touch happens concurrently from many tasks: the mutex-guarded
  // build must produce one consistent CSR view.
  ThreadPool pool(4);
  std::vector<std::size_t> degree_sum(8, 0);
  pool.parallel_for(0, degree_sum.size(), [&](std::size_t t) {
    std::size_t sum = 0;
    for (Vertex v = 0; v < 200; ++v) sum += g.degree(v);
    degree_sum[t] = sum;
  });
  for (std::size_t t = 1; t < degree_sum.size(); ++t) {
    EXPECT_EQ(degree_sum[t], degree_sum[0]);
  }
  EXPECT_EQ(degree_sum[0], 2 * g.num_edges());
  // add_edge invalidates; an explicit rebuild before the next parallel use
  // is the documented contract.
  g.add_edge(0, 199, 2.0);
  g.build_adjacency();
  pool.parallel_for(0, degree_sum.size(), [&](std::size_t t) {
    std::size_t sum = 0;
    for (Vertex v = 0; v < 200; ++v) sum += g.degree(v);
    degree_sum[t] = sum;
  });
  EXPECT_EQ(degree_sum[0], 2 * g.num_edges());
}

// ---- Randomized oracle equivalence ----------------------------------------

struct OracleInstance {
  std::unique_ptr<Graph> g;
  Capacities b;
  std::unique_ptr<LevelGraph> lg;
  std::vector<StoredMultiplier> us;
  ZetaMap zeta;
  double beta = 0;
};

OracleInstance make_instance(std::uint64_t seed, bool b_matching) {
  Rng rng(seed);
  OracleInstance inst;
  const std::size_t n = 40 + rng.uniform(120);
  const std::size_t m = 2 * n + rng.uniform(4 * n);
  inst.g = std::make_unique<Graph>(gen::gnm(n, m, seed * 7 + 1));
  gen::weight_uniform(*inst.g, 1.0, 24.0, seed * 7 + 2);
  if (b_matching) {
    std::vector<std::int64_t> caps(n);
    for (auto& c : caps) c = 1 + static_cast<std::int64_t>(rng.uniform(3));
    inst.b = Capacities(std::move(caps));
  } else {
    inst.b = Capacities::unit(n);
  }
  inst.lg = std::make_unique<LevelGraph>(*inst.g, inst.b, 0.2);
  const auto L = static_cast<std::uint64_t>(inst.lg->num_levels());
  std::vector<std::uint64_t> row_keys;
  for (EdgeId e : inst.lg->retained()) {
    if (rng.uniform_real() < 0.5) continue;
    inst.us.push_back(StoredMultiplier{e, rng.uniform_real(0.05, 2.0)});
    const Edge& edge = inst.g->edge(e);
    const auto k = static_cast<std::uint64_t>(inst.lg->level(e));
    row_keys.push_back(static_cast<std::uint64_t>(edge.u) * L + k);
    row_keys.push_back(static_cast<std::uint64_t>(edge.v) * L + k);
  }
  // Rows in only one of the two supports: for odd seeds, zeta also gets
  // rows no stored edge touches; every seed leaves some stored-edge rows
  // without zeta.
  if (seed % 2 == 1) {
    for (int extra = 0; extra < 25; ++extra) {
      row_keys.push_back(rng.uniform(n) * L + rng.uniform(L));
    }
  }
  std::sort(row_keys.begin(), row_keys.end());
  row_keys.erase(std::unique(row_keys.begin(), row_keys.end()),
                 row_keys.end());
  for (const std::uint64_t kk : row_keys) {
    if (rng.uniform_real() < 0.3) continue;  // leave some rows without zeta
    inst.zeta.append(kk, rng.uniform_real(0.001, 0.5));
  }
  inst.beta = rng.uniform_real(0.5, 4.0) * static_cast<double>(n);
  return inst;
}

void expect_points_match(const DualPoint& flat, const DualPoint& mapped,
                         double tol) {
  ASSERT_EQ(flat.xik.size(), mapped.xik.size());
  auto fit = flat.xik.begin();
  for (const auto& [key, value] : mapped.xik) {
    ASSERT_NE(fit, flat.xik.end());
    EXPECT_EQ(fit->first, key);
    EXPECT_NEAR(fit->second, value, tol * (1.0 + std::abs(value)));
    ++fit;
  }
  ASSERT_EQ(flat.odd_sets.size(), mapped.odd_sets.size());
  for (std::size_t s = 0; s < flat.odd_sets.size(); ++s) {
    EXPECT_EQ(flat.odd_sets[s].level, mapped.odd_sets[s].level);
    EXPECT_EQ(flat.odd_sets[s].members, mapped.odd_sets[s].members);
    EXPECT_NEAR(flat.odd_sets[s].value, mapped.odd_sets[s].value,
                tol * (1.0 + std::abs(mapped.odd_sets[s].value)));
  }
}

TEST(OracleEquivalence, RunMatchesMapReferenceRandomized) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const bool b_matching = seed % 3 == 0;
    const OracleInstance inst = make_instance(seed, b_matching);
    OracleConfig config;
    config.threads = 1;
    const MicroOracle flat(*inst.lg, inst.b, config);
    const ref::MicroOracleRef mapped(*inst.lg, inst.b, config);
    for (const double rho : {0.02, 0.2, 1.0, 5.0}) {
      const MicroResult a = flat.run(inst.us, inst.zeta, inst.beta, rho);
      const MicroResult c = mapped.run(inst.us, inst.zeta, inst.beta, rho);
      ASSERT_EQ(a.kind, c.kind) << "seed " << seed << " rho " << rho;
      EXPECT_NEAR(a.gamma, c.gamma, 1e-9 * (1.0 + std::abs(c.gamma)));
      expect_points_match(a.x, c.x, 1e-9);
      // The weighted Po/qo functionals agree on either path's point.
      EXPECT_NEAR(flat.weighted_po(a.x, inst.zeta),
                  mapped.weighted_po(a.x, inst.zeta),
                  1e-9 * (1.0 + std::abs(flat.weighted_po(a.x, inst.zeta))));
      EXPECT_NEAR(flat.weighted_qo(inst.zeta), mapped.weighted_qo(inst.zeta),
                  1e-9 * (1.0 + flat.weighted_qo(inst.zeta)));
    }
  }
}

TEST(OracleEquivalence, LagrangianMatchesMapReference) {
  for (std::uint64_t seed = 21; seed <= 26; ++seed) {
    const OracleInstance inst = make_instance(seed, seed % 2 == 0);
    OracleConfig config;
    config.threads = 1;
    const MicroOracle flat(*inst.lg, inst.b, config);
    const ref::MicroOracleRef mapped(*inst.lg, inst.b, config);
    const MicroResult a = flat.run_lagrangian(inst.us, inst.zeta, inst.beta);
    const MicroResult c =
        mapped.run_lagrangian(inst.us, inst.zeta, inst.beta);
    ASSERT_EQ(a.kind, c.kind) << "seed " << seed;
    if (a.kind == MicroResult::Kind::kDual) {
      // The binary search can take ulp-divergent branches, so compare the
      // aggregate functionals instead of coordinates.
      const double po_a = flat.weighted_po(a.x, inst.zeta);
      const double po_c = flat.weighted_po(c.x, inst.zeta);
      EXPECT_NEAR(po_a, po_c, 1e-6 * (1.0 + std::abs(po_c)));
    }
  }
}

void expect_results_bitwise_equal(const MicroResult& a, const MicroResult& c) {
  ASSERT_EQ(a.kind, c.kind);
  EXPECT_EQ(a.gamma, c.gamma);
  EXPECT_TRUE(a.x.xik == c.x.xik);
  ASSERT_EQ(a.x.odd_sets.size(), c.x.odd_sets.size());
  for (std::size_t s = 0; s < a.x.odd_sets.size(); ++s) {
    EXPECT_EQ(a.x.odd_sets[s].level, c.x.odd_sets[s].level);
    EXPECT_EQ(a.x.odd_sets[s].members, c.x.odd_sets[s].members);
    EXPECT_EQ(a.x.odd_sets[s].value, c.x.odd_sets[s].value);
  }
}

TEST(OracleDeterminism, ResultsIndependentOfThreadCount) {
  for (std::uint64_t seed = 31; seed <= 36; ++seed) {
    const OracleInstance inst = make_instance(seed, seed % 2 == 1);
    OracleConfig serial_config;
    serial_config.threads = 1;
    OracleConfig parallel_config = serial_config;
    parallel_config.threads = 4;
    parallel_config.parallel_grain = 8;  // force many chunks
    const MicroOracle serial(*inst.lg, inst.b, serial_config);
    const MicroOracle parallel(*inst.lg, inst.b, parallel_config);
    for (const double rho : {0.05, 0.7, 3.0}) {
      const MicroResult a = serial.run(inst.us, inst.zeta, inst.beta, rho);
      const MicroResult c = parallel.run(inst.us, inst.zeta, inst.beta, rho);
      // Bitwise identical: fixed chunk boundaries + chunk-ordered
      // reductions make thread count invisible to the arithmetic.
      expect_results_bitwise_equal(a, c);
      EXPECT_EQ(serial.weighted_po(a.x, inst.zeta),
                parallel.weighted_po(a.x, inst.zeta));
    }
  }
}

TEST(OracleScratch, ReuseAcrossSamplesMatchesFreshOracle) {
  // The oracle's scratch persists across calls: the row form of the last
  // sample, its per-row us sums (indexed by row-table position) and the
  // zbar suffix sums. A run on sample A, then on a different sample B of
  // the same level graph, then on A again must reproduce the first run —
  // and a fresh oracle's — bit for bit.
  for (std::uint64_t seed = 41; seed <= 44; ++seed) {
    const OracleInstance a = make_instance(seed, seed % 2 == 0);
    Rng rng(seed + 100);
    std::vector<StoredMultiplier> us_b;
    for (EdgeId e : a.lg->retained()) {
      if (rng.uniform_real() < 0.4) {
        us_b.push_back(StoredMultiplier{e, rng.uniform_real(0.01, 3.0)});
      }
    }
    ZetaMap zeta_b;
    for (const auto& [key, value] : a.zeta) {
      if (rng.uniform_real() < 0.5) zeta_b.append(key, 2.0 * value);
    }
    OracleConfig config;
    config.threads = 1;
    const MicroOracle reused(*a.lg, a.b, config);
    for (const double rho : {0.05, 1.0}) {
      const MicroResult first = reused.run(a.us, a.zeta, a.beta, rho);
      // Sample B at a small rho and at one large enough that gamma <= 0
      // (the early return after Step 1).
      reused.run(us_b, zeta_b, 0.5 * a.beta, 0.05);
      EXPECT_LE(reused.run(us_b, zeta_b, a.beta, 1e6).gamma, 0.0);
      const MicroResult third = reused.run(a.us, a.zeta, a.beta, rho);
      expect_results_bitwise_equal(third, first);
      const MicroOracle fresh(*a.lg, a.b, config);
      expect_results_bitwise_equal(third,
                                   fresh.run(a.us, a.zeta, a.beta, rho));
    }
    const MicroResult lag = reused.run_lagrangian(a.us, a.zeta, a.beta);
    reused.run_lagrangian(us_b, zeta_b, a.beta);
    expect_results_bitwise_equal(reused.run_lagrangian(a.us, a.zeta, a.beta),
                                 lag);
  }
}

/// Planted instance whose MicroOracle output is a family of odd-set duals:
/// disjoint triangles on geometrically spaced weight levels, uniform
/// stored multipliers, no packing pressure, and a budget beta inside the
/// window where Case B (odd-set duals) fires on every separated level.
OracleInstance make_triangle_instance() {
  OracleInstance inst;
  const int K = 6;
  inst.g = std::make_unique<Graph>(3 * K);
  for (int t = 0; t < K; ++t) {
    const auto base = static_cast<Vertex>(3 * t);
    const double w = std::pow(1.9, t);
    inst.g->add_edge(base, base + 1u, w);
    inst.g->add_edge(base + 1u, base + 2u, w);
    inst.g->add_edge(base, base + 2u, w);
  }
  inst.b = Capacities::unit(3 * K);
  inst.lg = std::make_unique<LevelGraph>(*inst.g, inst.b, 0.2);
  double gamma = 0;
  for (EdgeId e : inst.lg->retained()) {
    inst.us.push_back(StoredMultiplier{e, 1.0});
    gamma += inst.lg->level_weight(inst.lg->level(e));
  }
  inst.beta = 0.45 * gamma;
  return inst;
}

TEST(OracleDeterminism, OddSetSeparationIdenticalFor1_2_8Threads) {
  const OracleInstance inst = make_triangle_instance();
  std::vector<MicroResult> results;
  for (const std::size_t threads : {1, 2, 8}) {
    OracleConfig config;
    config.threads = threads;
    config.parallel_grain = 4;  // force many chunks
    const MicroOracle oracle(*inst.lg, inst.b, config);
    results.push_back(oracle.run(inst.us, inst.zeta, inst.beta, 1.0));
  }
  // The instance must actually exercise the odd-set phase (several
  // separated levels, several sets each), or this test proves nothing.
  ASSERT_EQ(results[0].kind, MicroResult::Kind::kDual);
  ASSERT_GE(results[0].x.odd_sets.size(), 6u);
  for (std::size_t r = 1; r < results.size(); ++r) {
    ASSERT_EQ(results[r].kind, results[0].kind) << "thread variant " << r;
    EXPECT_EQ(results[r].gamma, results[0].gamma);
    EXPECT_TRUE(results[r].x.xik == results[0].x.xik);
    ASSERT_EQ(results[r].x.odd_sets.size(), results[0].x.odd_sets.size());
    for (std::size_t v = 0; v < results[0].x.odd_sets.size(); ++v) {
      EXPECT_EQ(results[r].x.odd_sets[v].level,
                results[0].x.odd_sets[v].level);
      EXPECT_EQ(results[r].x.odd_sets[v].members,
                results[0].x.odd_sets[v].members);
      EXPECT_EQ(results[r].x.odd_sets[v].value,
                results[0].x.odd_sets[v].value);
    }
  }
  // Same contract through the Lagrangian wrapper and its separation cache.
  std::vector<MicroResult> lagrangian;
  for (const std::size_t threads : {1, 2, 8}) {
    OracleConfig config;
    config.threads = threads;
    config.parallel_grain = 4;
    const MicroOracle oracle(*inst.lg, inst.b, config);
    lagrangian.push_back(
        oracle.run_lagrangian(inst.us, inst.zeta, inst.beta));
  }
  for (std::size_t r = 1; r < lagrangian.size(); ++r) {
    ASSERT_EQ(lagrangian[r].kind, lagrangian[0].kind);
    EXPECT_TRUE(lagrangian[r].x.xik == lagrangian[0].x.xik);
    ASSERT_EQ(lagrangian[r].x.odd_sets.size(),
              lagrangian[0].x.odd_sets.size());
    for (std::size_t v = 0; v < lagrangian[0].x.odd_sets.size(); ++v) {
      EXPECT_EQ(lagrangian[r].x.odd_sets[v].members,
                lagrangian[0].x.odd_sets[v].members);
      EXPECT_EQ(lagrangian[r].x.odd_sets[v].value,
                lagrangian[0].x.odd_sets[v].value);
    }
  }
}

TEST(DualStateFlat, LambdaParallelMatchesSerialBitwise) {
  const OracleInstance inst = make_instance(41, false);
  const std::size_t n = inst.g->num_vertices();
  const int L = inst.lg->num_levels();
  DualState state(n, L);
  Rng rng(91);
  bool first = true;
  for (int round = 0; round < 5; ++round) {
    DualPoint p;
    std::uint64_t key = rng.uniform(3);
    while (key < n * static_cast<std::size_t>(L)) {
      p.xik.append(key, rng.uniform_real(0.05, 1.5));
      key += 1 + rng.uniform(static_cast<std::size_t>(2 * L));
    }
    OddSetVar var;
    var.level = static_cast<int>(rng.uniform(static_cast<std::size_t>(L)));
    const auto v0 = static_cast<Vertex>(rng.uniform(n - 3));
    var.members = {v0, v0 + 1u, v0 + 2u};
    var.value = rng.uniform_real(0.1, 1.0);
    p.odd_sets.push_back(var);
    if (first) {
      state.assign(p);
      first = false;
    } else {
      state.blend(p, 0.3);
    }
  }
  const double serial = state.lambda(*inst.lg);
  ThreadPool pool(4);
  // min-reductions over fixed chunks are exact: any pool size and any
  // grain must reproduce the serial value bitwise.
  for (const std::size_t grain : {1, 7, 64, 4096}) {
    EXPECT_EQ(serial, state.lambda(*inst.lg, &pool, grain));
  }
}

TEST(DualStateFlat, BlendMatchesNaiveModel) {
  // Blend random sparse points into DualState and mirror the arithmetic
  // with a naive dense model (no scale trick): x must agree to fp noise.
  Rng rng(77);
  const std::size_t n = 30;
  const int L = 6;
  DualState state(n, L);
  std::vector<double> model(n * L, 0.0);
  bool first = true;
  for (int round = 0; round < 60; ++round) {
    DualPoint p;
    std::uint64_t key = 0;
    while (true) {
      key += 1 + rng.uniform(17);
      if (key >= n * L) break;
      p.xik.append(key, rng.uniform_real(0.1, 2.0));
    }
    const double sigma = first ? 1.0 : rng.uniform_real(0.05, 0.6);
    if (first) {
      state.assign(p);
      first = false;
    } else {
      state.blend(p, sigma);
    }
    for (std::size_t slot = 0; slot < model.size(); ++slot) {
      model[slot] = (1.0 - sigma) * model[slot] + sigma * p.xik.get(slot);
    }
  }
  for (std::size_t slot = 0; slot < model.size(); ++slot) {
    const auto i = static_cast<Vertex>(slot / L);
    const int k = static_cast<int>(slot % L);
    EXPECT_NEAR(state.x(i, k), model[slot], 1e-12 * (1.0 + model[slot]));
  }
}

}  // namespace
}  // namespace dp::core
