// E5 (Theorem 15): running time vs m at fixed eps and p. Expected shape:
// near-linear growth in m (the paper claims O(m poly(1/eps, log n))).

#include <cstdio>

#include "bench_common.hpp"
#include "core/solver.hpp"
#include "graph/generators.hpp"
#include "util/math.hpp"
#include "util/timer.hpp"

int main() {
  using namespace dp;
  bench::header("E5 runtime (Theorem 15)",
                "wall seconds vs m at fixed n, eps, p; expect near-linear "
                "growth in m");

  bench::BenchReport report("runtime", {"n", "m", "seconds",
                                        "certified_ratio"});
  std::vector<double> ms, secs;
  const std::size_t n = 600;

  // Determinism gate: the certified ratio AND the per-round stored-edge
  // counts must be bitwise identical across thread counts (the fixed-chunk
  // contract of the oracle sweeps, lambda, covering_us, the batched
  // sampling engine's counter-based draws, and the round pipeline's single
  // merge point). The 1-thread solve has no pool, so its offline re-solve
  // runs inline: it is the sequential stage order.
  {
    Graph g = gen::gnm(n, 3000, 3001);
    gen::weight_uniform(g, 1.0, 16.0, 3002);
    core::SolverOptions opts;
    opts.eps = 0.25;
    opts.p = 2.0;
    opts.seed = 13;
    opts.max_outer_rounds = 2;
    opts.sparsifiers_per_round = 2;
    const std::size_t threads[] = {1, 2, 8};
    double ratio[3];
    std::vector<std::size_t> stored[3];
    for (std::size_t s = 0; s < 3; ++s) {
      opts.oracle.threads = threads[s];
      const auto result = core::solve_matching(g, opts);
      ratio[s] = result.certified_ratio;
      for (const auto& rs : result.history) {
        stored[s].push_back(rs.stored_edges);
      }
    }
    for (std::size_t s = 1; s < 3; ++s) {
      if (ratio[0] != ratio[s]) {
        std::fprintf(stderr,
                     "FATAL: certified ratio varies with threads "
                     "(%zu threads: %.17g vs %.17g)\n",
                     threads[s], ratio[0], ratio[s]);
        return 1;
      }
      if (stored[0] != stored[s]) {
        std::fprintf(stderr,
                     "FATAL: per-round stored-edge counts vary with threads "
                     "(%zu threads)\n", threads[s]);
        return 1;
      }
    }
    std::printf("determinism: certified ratio and stored-edge counts "
                "bitwise stable for 1/2/8 threads (%.6f)\n\n", ratio[0]);
  }

  std::printf("%-10s %-10s %12s %12s\n", "n", "m", "seconds", "ratio");
  for (std::size_t m : {3000, 6000, 12000, 24000}) {
    Graph g = gen::gnm(n, m, m + 1);
    gen::weight_uniform(g, 1.0, 16.0, m + 2);
    core::SolverOptions opts;
    opts.eps = 0.25;
    opts.p = 2.0;
    opts.seed = 13;
    opts.max_outer_rounds = 4;
    opts.sparsifiers_per_round = 3;

    WallTimer timer;
    const auto result = core::solve_matching(g, opts);
    const double sec = timer.seconds();

    std::printf("%-10zu %-10zu %12.3f %12.4f\n", n, m, sec,
                result.certified_ratio);
    report.add({static_cast<double>(n), static_cast<double>(m), sec,
                result.certified_ratio});
    ms.push_back(static_cast<double>(m));
    secs.push_back(sec);
  }
  std::printf("-> time-vs-m log-log slope %.3f (near-linear target ~1)\n",
              loglog_slope(ms, secs));
  return 0;
}
