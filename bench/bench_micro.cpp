// Micro-benchmark for the solver's hot path: MicroOracle iteration
// throughput, flat-array path (core/oracle.cpp) vs the retained map-based
// reference (core/oracle_ref.cpp), measured in the same binary on identical
// inputs. Also times the supporting kernels the oracle leans on
// (DualState::blend + lambda sweep).
//
//   ./bench_micro [--quick]
//
// Emits the usual CSV rows plus BENCH_micro.json. The headline number is
// the flat/map speedup of micro-oracle calls/sec at n = 10^4 (quick mode
// shrinks n and the rep counts so scripts/check.sh stays fast).

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/dual_state.hpp"
#include "core/oracle.hpp"
#include "core/oracle_ref.hpp"
#include "dynamic/delta.hpp"
#include "dynamic/dynamic_graph.hpp"
#include "graph/generators.hpp"
#include "matching/greedy.hpp"
#include "util/rng.hpp"
#include "util/simd.hpp"
#include "util/timer.hpp"

namespace {

using namespace dp;
using namespace dp::core;

/// One frozen oracle workload: a level graph plus stored multipliers, zeta
/// and beta resembling one inner MW iteration of the solver.
struct Workload {
  std::unique_ptr<Graph> g;
  Capacities b;
  std::unique_ptr<LevelGraph> lg;
  std::vector<StoredMultiplier> us;
  ZetaMap zeta;
  double beta = 0;
};

Workload make_workload(std::size_t n, std::uint64_t seed) {
  Workload w;
  w.g = std::make_unique<Graph>(gen::gnm(n, 8 * n, seed));
  gen::weight_uniform(*w.g, 1.0, 16.0, seed + 1);
  w.b = Capacities::unit(n);
  w.lg = std::make_unique<LevelGraph>(*w.g, w.b, 0.15);

  Rng rng(seed + 2);
  const auto levels = static_cast<std::uint64_t>(w.lg->num_levels());
  // Stored sample: ~n edges, multipliers in a realistic dynamic range.
  std::vector<std::uint64_t> row_keys;
  for (EdgeId e : w.lg->retained()) {
    if (rng.uniform_real() * static_cast<double>(w.g->num_edges()) >
        static_cast<double>(n)) {
      continue;
    }
    w.us.push_back(StoredMultiplier{e, 0.1 + 2.0 * rng.uniform_real()});
    const Edge& edge = w.g->edge(e);
    const auto k = static_cast<std::uint64_t>(w.lg->level(e));
    row_keys.push_back(static_cast<std::uint64_t>(edge.u) * levels + k);
    row_keys.push_back(static_cast<std::uint64_t>(edge.v) * levels + k);
  }
  std::sort(row_keys.begin(), row_keys.end());
  row_keys.erase(std::unique(row_keys.begin(), row_keys.end()),
                 row_keys.end());
  for (const std::uint64_t kk : row_keys) {
    const int k = static_cast<int>(kk % levels);
    w.zeta.append(kk, (0.05 + 0.3 * rng.uniform_real()) /
                          (3.0 * w.lg->level_weight(k)));
  }
  w.beta = static_cast<double>(n) / 4.0;
  return w;
}

struct Measurement {
  double seconds = 0;
  std::size_t micro_calls = 0;
};

template <typename Oracle>
Measurement time_lagrangian(const Oracle& oracle, const Workload& w,
                            std::size_t reps) {
  Measurement m;
  WallTimer timer;
  for (std::size_t r = 0; r < reps; ++r) {
    oracle.run_lagrangian(w.us, w.zeta, w.beta, &m.micro_calls);
  }
  m.seconds = timer.seconds();
  return m;
}

/// Isolated hot-kernel rows (BENCH_micro_kernels.json): each row pits the
/// baseline kernel against the optimized one in the same binary on the same
/// buffers, so the tracked speedup is machine-relative. Kernel ids are
/// fixed labels (a deleted kernel's id is not reused):
/// 0 = exp batch (libm loop vs branch-free polynomial), 1 = one SweepKernel
/// multiplier sweep (scalar libm body vs fill/exp_batch_poly/divide),
/// 3 = the non-exp sweep body (scalar fill/divide/max loops vs the
/// clones-dispatched fill_scaled_shift + divide_max_positive with the
/// bit-pattern integer max reduction; bitwise-equality asserted before
/// timing), 4 = the solve's weight order (comparator
/// std::stable_sort vs edges_by_weight_desc's radix sort, timed as
/// interleaved blocks, speedup the median block ratio; equal permutations
/// asserted before timing, and so are the order filtered for a random half
/// of the edges against that half's sort and the order merged for a churn
/// delta against the post-delta sort).
void bench_kernels(bool quick) {
  bench::header("micro kernels (hot-path round 2)",
                "isolated kernel speedups: vectorized exp batch, SIMD-ized "
                "multiplier sweep, clones-dispatched fill/divide-max sweep "
                "body, radix weight order");
  bench::BenchReport report("micro_kernels",
                            {"kernel", "n", "reps", "base_per_sec",
                             "fast_per_sec", "speedup"});
  std::printf("%-10s %-9s %-6s %16s %16s %9s\n", "kernel", "n", "reps",
              "base/s", "fast/s", "speedup");
  Rng rng(4242);
  double sink = 0;  // defeats dead-code elimination across timed loops

  // ---- Kernel 0: the exp batch itself, elements/sec. ----
  {
    const std::size_t n = quick ? (1u << 14) : (1u << 18);
    const std::size_t reps = quick ? 400 : 60;
    std::vector<double> x(n);
    std::vector<double> out(n);
    for (double& v : x) v = -40.0 * rng.uniform_real();  // sweep-range args
    // Untimed warmup: faults the buffers in and resolves the kernel's
    // runtime ISA dispatch so neither cost lands inside a timed loop.
    simd::exp_batch_libm(x.data(), out.data(), n);
    simd::exp_batch_poly(x.data(), out.data(), n);
    WallTimer t_libm;
    for (std::size_t r = 0; r < reps; ++r) {
      simd::exp_batch_libm(x.data(), out.data(), n);
      sink += out[r % n];
    }
    const double libm_s = t_libm.seconds();
    WallTimer t_poly;
    for (std::size_t r = 0; r < reps; ++r) {
      simd::exp_batch_poly(x.data(), out.data(), n);
      sink += out[r % n];
    }
    const double poly_s = t_poly.seconds();
    const double total = static_cast<double>(n) * static_cast<double>(reps);
    const double base_rate = total / libm_s;
    const double fast_rate = total / poly_s;
    std::printf("%-10s %-9zu %-6zu %16.3e %16.3e %8.2fx\n", "exp_batch", n,
                reps, base_rate, fast_rate, fast_rate / base_rate);
    report.add({0.0, static_cast<double>(n), static_cast<double>(reps),
                base_rate, fast_rate, fast_rate / base_rate});
  }

  // ---- Kernel 1: one multiplier sweep (the exp_floor_multipliers body):
  // exp(-alpha (ratio - min)) / w, elements/sec. Both variants run the
  // pipeline's real chunked structure (run_chunks grain), so the
  // vectorized side's fill/exp/divide passes stay L1-resident instead of
  // streaming the whole array three times. ----
  {
    const std::size_t n = quick ? (1u << 14) : (1u << 18);
    const std::size_t reps = quick ? 400 : 60;
    const std::size_t grain = 1024;  // RoundPipelineOptions::grain
    const double alpha = 7.5;
    std::vector<double> ratio(n);
    std::vector<double> w(n);
    std::vector<double> out(n);
    for (std::size_t i = 0; i < n; ++i) {
      ratio[i] = 5.0 * rng.uniform_real();
      w[i] = 1.0 + 3.0 * rng.uniform_real();
    }
    simd::exp_batch_poly(ratio.data(), out.data(), n);  // untimed warmup
    WallTimer t_scalar;
    for (std::size_t r = 0; r < reps; ++r) {
      double local_max = 0;
      for (std::size_t lo = 0; lo < n; lo += grain) {
        const std::size_t hi = std::min(n, lo + grain);
        for (std::size_t i = lo; i < hi; ++i) {
          out[i] = std::exp(-alpha * ratio[i]) / w[i];
          local_max = std::max(local_max, out[i]);
        }
      }
      sink += local_max;
    }
    const double scalar_s = t_scalar.seconds();
    WallTimer t_vec;
    for (std::size_t r = 0; r < reps; ++r) {
      double local_max = 0;
      for (std::size_t lo = 0; lo < n; lo += grain) {
        const std::size_t hi = std::min(n, lo + grain);
        for (std::size_t i = lo; i < hi; ++i) out[i] = -alpha * ratio[i];
        simd::exp_batch_poly(out.data() + lo, out.data() + lo, hi - lo);
        for (std::size_t i = lo; i < hi; ++i) {
          out[i] /= w[i];
          local_max = std::max(local_max, out[i]);
        }
      }
      sink += local_max;
    }
    const double vec_s = t_vec.seconds();
    const double total = static_cast<double>(n) * static_cast<double>(reps);
    const double base_rate = total / scalar_s;
    const double fast_rate = total / vec_s;
    std::printf("%-10s %-9zu %-6zu %16.3e %16.3e %8.2fx\n", "sweep", n,
                reps, base_rate, fast_rate, fast_rate / base_rate);
    report.add({1.0, static_cast<double>(n), static_cast<double>(reps),
                base_rate, fast_rate, fast_rate / base_rate});
  }

  // ---- Kernel 3: the non-exp sweep body — fill the scaled-shifted
  // exponent, then divide by the level weight with a chunk-max reduction.
  // Baseline: the plain scalar loops with a std::max fold. Fast: the
  // target_clones SSE2/AVX2/AVX-512 dispatched fill_scaled_shift +
  // divide_max_positive, whose max reduction runs on the bit patterns as
  // signed integers (exact for positive doubles) so GCC vectorizes it
  // without -ffast-math. Bitwise equality is asserted before timing. ----
  {
    const std::size_t n = quick ? (1u << 14) : (1u << 18);
    const std::size_t reps = quick ? 400 : 60;
    const std::size_t grain = 1024;  // RoundPipelineOptions::grain
    const double alpha = 7.5;
    const double shift = 0.125;
    std::vector<double> ratio(n);
    std::vector<double> w(n);
    std::vector<double> a(n);
    std::vector<double> b(n);
    for (std::size_t i = 0; i < n; ++i) {
      ratio[i] = shift + 5.0 * rng.uniform_real();
      w[i] = 1.0 + 3.0 * rng.uniform_real();
    }
    // Bitwise check: scalar fold vs clones-dispatched kernels, per chunk.
    for (std::size_t lo = 0; lo < n; lo += grain) {
      const std::size_t hi = std::min(n, lo + grain);
      double scalar_max = 0.0;
      for (std::size_t i = lo; i < hi; ++i) {
        a[i] = -alpha * (ratio[i] - shift);
        a[i] = std::exp(a[i]);
        a[i] /= w[i];
        scalar_max = std::max(scalar_max, a[i]);
      }
      simd::fill_scaled_shift(ratio.data() + lo, b.data() + lo, hi - lo,
                              alpha, shift);
      simd::exp_batch_libm(b.data() + lo, b.data() + lo, hi - lo);
      const double simd_max =
          simd::divide_max_positive(b.data() + lo, w.data() + lo, hi - lo);
      if (std::memcmp(a.data() + lo, b.data() + lo,
                      (hi - lo) * sizeof(double)) != 0 ||
          scalar_max != simd_max) {
        std::fprintf(stderr,
                     "FATAL: clones-dispatched sweep body not bitwise equal "
                     "to the scalar loops\n");
        std::exit(1);
      }
    }
    // Timed loops drop the exp between fill and divide to isolate the body
    // this kernel row is about; a negated alpha keeps every quotient
    // positive, as divide_max_positive's integer max requires.
    const double talpha = -alpha;
    WallTimer t_scalar;
    for (std::size_t r = 0; r < reps; ++r) {
      double local_max = 0;
      for (std::size_t lo = 0; lo < n; lo += grain) {
        const std::size_t hi = std::min(n, lo + grain);
        for (std::size_t i = lo; i < hi; ++i) {
          a[i] = -talpha * (ratio[i] - shift);
          a[i] /= w[i];
          local_max = std::max(local_max, a[i]);
        }
      }
      sink += local_max;
    }
    const double scalar_s = t_scalar.seconds();
    WallTimer t_vec;
    for (std::size_t r = 0; r < reps; ++r) {
      double local_max = 0;
      for (std::size_t lo = 0; lo < n; lo += grain) {
        const std::size_t hi = std::min(n, lo + grain);
        simd::fill_scaled_shift(ratio.data() + lo, b.data() + lo, hi - lo,
                                talpha, shift);
        local_max = std::max(
            local_max,
            simd::divide_max_positive(b.data() + lo, w.data() + lo, hi - lo));
      }
      sink += local_max;
    }
    const double vec_s = t_vec.seconds();
    const double total = static_cast<double>(n) * static_cast<double>(reps);
    const double base_rate = total / scalar_s;
    const double fast_rate = total / vec_s;
    std::printf("%-10s %-9zu %-6zu %16.3e %16.3e %8.2fx\n", "fill_divmax",
                n, reps, base_rate, fast_rate, fast_rate / base_rate);
    report.add({3.0, static_cast<double>(n), static_cast<double>(reps),
                base_rate, fast_rate, fast_rate / base_rate});
  }
  // ---- Kernel 4: the weight order every greedy and local-search routine
  // scans, on the ram_dense union size with U[1, 16] weights, edges/sec.
  // Baseline: an indirect std::stable_sort with a weight comparator, which
  // gives the same permutation. Fast: edges_by_weight_desc's stable LSD
  // radix sort. ----
  {
    const std::size_t n = 28700;
    const std::size_t reps = quick ? 100 : 300;
    Graph g = gen::gnm(450, n, 4243);
    gen::weight_uniform(g, 1.0, 16.0, 4244);
    const auto comparator_order = [&g] {
      std::vector<EdgeId> order(g.num_edges());
      std::iota(order.begin(), order.end(), EdgeId{0});
      std::stable_sort(order.begin(), order.end(), [&g](EdgeId a, EdgeId b) {
        return g.edge(a).w > g.edge(b).w;
      });
      return order;
    };
    if (comparator_order() != edges_by_weight_desc(g)) {
      std::fprintf(stderr,
                   "FATAL: radix weight order differs from the stable sort\n");
      std::exit(1);
    }
    // An offline subgraph's order is filtered from the input's sort: for a
    // random ascending half of the edges it must be that half's own sort.
    Rng half_rng(4245);
    std::vector<EdgeId> half;
    std::vector<Edge> half_edges;
    for (EdgeId e = 0; e < g.num_edges(); ++e) {
      if (half_rng.bernoulli(0.5)) {
        half.push_back(e);
        half_edges.push_back(g.edge(e));
      }
    }
    if (subset_weight_order(edges_by_weight_desc(g), half) !=
        edges_by_weight_desc(Graph(g.num_vertices(), std::move(half_edges)))) {
      std::fprintf(stderr,
                   "FATAL: a half's filtered weight order differs from its "
                   "sort\n");
      std::exit(1);
    }
    // A warm resolve merges its delta into the previous solve's order
    // instead of sorting: for a churn delta with removes, inserts and a
    // reweight on the input in DynamicGraph's key order, the merged order
    // must be the post-delta graph's sort.
    dyn::DynamicGraph dg(g);
    dg.apply({});  // generation 1: the input in canonical key order
    const std::shared_ptr<const Graph> keyed = dg.materialize();
    Rng churn_rng(4246);
    const auto live_edge = [&keyed, &churn_rng] {
      return keyed->edge(
          static_cast<EdgeId>(churn_rng.uniform(keyed->num_edges())));
    };
    dyn::EdgeDelta churn;
    for (int i = 0; i < 10; ++i) {
      const Edge removed = live_edge();
      churn.removes.push_back({removed.u, removed.v});
      churn.inserts.push_back(
          {static_cast<Vertex>(churn_rng.uniform(g.num_vertices())),
           static_cast<Vertex>(churn_rng.uniform(g.num_vertices())),
           churn_rng.uniform_real(1.0, 16.0)});
    }
    const Edge reweighted = live_edge();
    churn.inserts.push_back({reweighted.u, reweighted.v, reweighted.w + 1.0});
    dg.apply(churn);
    const std::shared_ptr<const Graph> post = dg.materialize();
    const dyn::DeltaIds ids =
        dyn::delta_ids(*post, dyn::normalize(dg.delta_since(1)));
    if (merge_weight_order(*post, edges_by_weight_desc(*keyed), ids.renamed,
                           ids.inserted) != edges_by_weight_desc(*post)) {
      std::fprintf(stderr,
                   "FATAL: a churn delta's merged weight order differs from "
                   "the post-delta sort\n");
      std::exit(1);
    }
    // Interleaved blocks, comparator then radix, and the median of the
    // per-block time ratios: a change in host speed lands on both sides of
    // a block alike, where two back-to-back loops would each see another
    // stretch of it.
    constexpr std::size_t kBlocks = 20;
    const std::size_t block_reps = reps / kBlocks;
    double sort_s = 0;
    double radix_s = 0;
    std::vector<double> block_ratio;
    for (std::size_t block = 0; block < kBlocks; ++block) {
      WallTimer t_sort;
      for (std::size_t r = 0; r < block_reps; ++r) {
        sink += static_cast<double>(comparator_order()[r % n]);
      }
      const double block_sort_s = t_sort.seconds();
      WallTimer t_radix;
      for (std::size_t r = 0; r < block_reps; ++r) {
        sink += static_cast<double>(edges_by_weight_desc(g)[r % n]);
      }
      const double block_radix_s = t_radix.seconds();
      sort_s += block_sort_s;
      radix_s += block_radix_s;
      block_ratio.push_back(block_sort_s / block_radix_s);
    }
    std::sort(block_ratio.begin(), block_ratio.end());
    const double speedup =
        (block_ratio[kBlocks / 2 - 1] + block_ratio[kBlocks / 2]) / 2.0;
    const double total = static_cast<double>(n) * static_cast<double>(reps);
    const double base_rate = total / sort_s;
    const double fast_rate = total / radix_s;
    std::printf("%-10s %-9zu %-6zu %16.3e %16.3e %8.2fx\n", "weight_ord",
                n, reps, base_rate, fast_rate, speedup);
    report.add({4.0, static_cast<double>(n), static_cast<double>(reps),
                base_rate, fast_rate, speedup});
  }
  if (sink == 12345.6789) std::printf("sink %f\n", sink);
  std::printf("\n");
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  for (int a = 1; a < argc; ++a) {
    if (std::strcmp(argv[a], "--quick") == 0) quick = true;
  }

  bench::header("micro (oracle hot path)",
                "MicroOracle calls/sec: flat level-indexed buffers vs the "
                "map-based reference, same binary, same inputs; speedup is "
                "flat/map");
  bench::BenchReport report(
      "micro", {"n", "m", "odd_sets", "reps", "map_calls_per_sec",
                "flat_calls_per_sec", "speedup", "map_seconds",
                "flat_seconds"});

  const std::vector<std::size_t> sizes =
      quick ? std::vector<std::size_t>{2000}
            : std::vector<std::size_t>{1000, 10000};
  std::printf("%-8s %-8s %-9s %14s %14s %9s\n", "n", "m", "odd_sets",
              "map calls/s", "flat calls/s", "speedup");

  for (const std::size_t n : sizes) {
    const Workload w = make_workload(n, /*seed=*/17);
    for (const bool odd_sets : {false, true}) {
      OracleConfig config;
      config.use_odd_sets = odd_sets;
      std::size_t reps = quick ? 3 : (n >= 10000 ? 5 : 20);
      // odd_sets rows are separation-bound: cheap enough since the arena
      // rework to afford 3 quick reps (single-rep numbers were too noisy
      // for the tracked speedup), but still the slowest config in full
      // mode, so keep those at 2.
      if (odd_sets) reps = quick ? 3 : 2;

      const MicroOracle flat(*w.lg, w.b, config);
      const ref::MicroOracleRef mapped(*w.lg, w.b, config);

      // Sanity: both paths must agree on the workload before timing it,
      // and the flat path must be bitwise thread-count-invariant.
      {
        const MicroResult a = flat.run_lagrangian(w.us, w.zeta, w.beta);
        const MicroResult c = mapped.run_lagrangian(w.us, w.zeta, w.beta);
        if (a.kind != c.kind) {
          std::fprintf(stderr,
                       "FATAL: flat/map disagree on kind at n=%zu odd=%d\n",
                       n, static_cast<int>(odd_sets));
          return 1;
        }
        OracleConfig serial_config = config;
        serial_config.threads = 1;
        const MicroOracle serial(*w.lg, w.b, serial_config);
        const MicroResult s = serial.run_lagrangian(w.us, w.zeta, w.beta);
        bool same = s.kind == a.kind && s.gamma == a.gamma &&
                    s.x.xik == a.x.xik &&
                    s.x.odd_sets.size() == a.x.odd_sets.size();
        for (std::size_t i = 0; same && i < s.x.odd_sets.size(); ++i) {
          same = s.x.odd_sets[i].level == a.x.odd_sets[i].level &&
                 s.x.odd_sets[i].members == a.x.odd_sets[i].members &&
                 s.x.odd_sets[i].value == a.x.odd_sets[i].value;
        }
        if (!same) {
          std::fprintf(
              stderr,
              "FATAL: flat path not thread-count-invariant at n=%zu odd=%d\n",
              n, static_cast<int>(odd_sets));
          return 1;
        }
      }

      const Measurement map_m = time_lagrangian(mapped, w, reps);
      const Measurement flat_m = time_lagrangian(flat, w, reps);
      const double map_rate =
          static_cast<double>(map_m.micro_calls) / map_m.seconds;
      const double flat_rate =
          static_cast<double>(flat_m.micro_calls) / flat_m.seconds;
      const double speedup = flat_rate / map_rate;
      std::printf("%-8zu %-8zu %-9d %14.1f %14.1f %8.2fx\n", n,
                  w.g->num_edges(), static_cast<int>(odd_sets), map_rate,
                  flat_rate, speedup);
      report.add({static_cast<double>(n),
                  static_cast<double>(w.g->num_edges()),
                  static_cast<double>(odd_sets),
                  static_cast<double>(reps), map_rate, flat_rate, speedup,
                  map_m.seconds, flat_m.seconds});
    }
  }
  report.flush();
  bench_kernels(quick);
  return 0;
}
