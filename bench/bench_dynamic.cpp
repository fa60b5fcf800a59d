// Dynamic re-solve benchmark: a k-edge churn batch (k <= 1% of m) against
// the warm-started incremental re-solve (Solver::resolve) vs a from-scratch
// solve on the post-delta graph, at 1/2/8 oracle threads on the streaming
// substrate (BENCH_dynamic.json).
//
// Self-gates (the o(full-solve) re-solve contract, FATAL on violation):
//  (a) The warm re-solve's value AND certified ratio are bitwise-equal to
//      the from-scratch solve on the post-delta graph, at every thread
//      count.
//  (b) The warm path takes >= 5x fewer MW rounds than from-scratch (an
//      (x+1)/(y+1) ratio, so a zero-round warm path still gates), runs
//      zero MW rounds in at most 2 substrate passes, and meters the saving
//      first-class (saved_rounds > 0, repaired_rows > 0). The pass bound
//      is absolute: a from-scratch solve that certifies in a few rounds
//      takes only a few passes, so a pass ratio measures the scratch
//      solve's speed, not the warm path's cost.
//
// Columns: rounds_ratio / pass_ratio are deterministic resource ratios
// (scratch+1)/(resolve+1) — the CI-gated o(full-solve) signal. speedup is
// the MACHINE-RELATIVE wall-clock ratio scratch/resolve (informational:
// wall time is not what Theorem 15 bounds). repair_share is the repair
// pass's touched-row share of the post-delta edge set (deterministic).

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "access/streaming.hpp"
#include "bench_common.hpp"
#include "core/solver.hpp"
#include "dynamic/delta.hpp"
#include "dynamic/dynamic_graph.hpp"
#include "graph/generators.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace {

using namespace dp;

int failures = 0;

void gate(bool ok, const std::string& what) {
  if (!ok) {
    std::printf("FATAL: %s\n", what.c_str());
    ++failures;
  }
}

core::SolverOptions base_options() {
  core::SolverOptions opt;
  opt.eps = 0.2;
  opt.p = 2.0;
  opt.seed = 424;
  opt.sparsifiers_per_round = 4;
  return opt;
}

Graph bench_graph() {
  Graph g = gen::gnm(120, 900, 911);
  gen::weight_uniform(g, 1.0, 12.0, 912);
  return g;
}

/// A churn batch touching k existing edges and inserting ~k new ones, with
/// a phantom delete and a duplicate insert mixed in (both must be absorbed
/// by delta normalization without perturbing the result).
dyn::EdgeDelta churn_batch(const Graph& g, std::uint64_t seed,
                           std::size_t k) {
  Rng rng(seed);
  dyn::EdgeDelta d;
  const auto n = static_cast<std::uint64_t>(g.num_vertices());
  for (std::size_t i = 0; i < k; ++i) {
    const Edge& e = g.edge(static_cast<EdgeId>(
        rng.uniform(static_cast<std::uint64_t>(g.num_edges()))));
    d.removes.push_back({e.u, e.v});
    const auto u = static_cast<Vertex>(rng.uniform(n));
    const auto v = static_cast<Vertex>(rng.uniform(n));
    if (u != v) {
      d.inserts.push_back({u, v, 1.0 + static_cast<double>(rng.uniform(11))});
    }
  }
  d.removes.push_back({static_cast<Vertex>(0),
                       static_cast<Vertex>(g.num_vertices() - 1)});
  if (!d.inserts.empty()) d.inserts.push_back(d.inserts.front());
  return d;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    quick = quick || std::strcmp(argv[i], "--quick") == 0;
  }
  const int reps = quick ? 1 : 3;

  bench::header(
      "dynamic: warm-started duals vs from-scratch under edge churn",
      "A k-edge delta (k <= 1% of m) against Solver::resolve seeded from "
      "the pre-delta warm handle: value and certified ratio must be "
      "bitwise-equal to the from-scratch solve on the post-delta graph at "
      "1/2/8 threads, with >= 5x fewer MW rounds (rounds_ratio), zero MW "
      "rounds in at most 2 substrate passes, and the saving metered "
      "first-class.");

  dyn::DynamicGraph dg(bench_graph());
  const auto pre = dg.materialize();
  const std::size_t m_pre = pre->num_edges();
  const std::size_t k = 9;  // <= 1% of m = 900

  // Cold solve on the pre-delta graph mints the warm handle.
  const core::SolverResult cold = core::solve_matching(*pre, base_options());
  gate(cold.warm != nullptr, "cold solve minted no warm handle");
  gate(cold.lambda > 0, "cold solve has no certificate level to re-attain");
  std::printf("# cold solve: %zu rounds, ratio %.5f, lambda %.3g\n\n",
              cold.outer_rounds, cold.certified_ratio, cold.lambda);

  dg.apply(churn_batch(*pre, 5150, k));
  const auto post = dg.materialize();
  const dyn::EdgeDelta delta = dg.delta_since(0);
  const auto m_post = static_cast<double>(post->num_edges());

  bench::BenchReport report(
      "dynamic",
      {"threads", "m", "k", "scratch_rounds", "resolve_rounds",
       "rounds_ratio", "scratch_passes", "resolve_passes", "pass_ratio",
       "saved_rounds", "saved_passes", "repaired_rows", "repair_share",
       "speedup"});

  for (const std::size_t threads : {1, 2, 8}) {
    const std::string label = "threads=" + std::to_string(threads);

    core::SolverResult scratch, warm;
    double scratch_ms = 1e300, resolve_ms = 1e300;
    for (int rep = 0; rep < reps; ++rep) {
      access::StreamingSubstrate s1;
      core::SolverOptions sopt = base_options();
      sopt.oracle.threads = threads;
      sopt.substrate = &s1;
      sopt.graph_generation = dg.generation();
      WallTimer ts;
      scratch = core::solve_matching(*post, sopt);
      scratch_ms = std::min(scratch_ms, ts.millis());

      access::StreamingSubstrate s2;
      core::SolverOptions ropt = base_options();
      ropt.oracle.threads = threads;
      ropt.substrate = &s2;
      ropt.graph_generation = dg.generation();
      core::Solver solver(*post, ropt);
      WallTimer tr;
      warm = solver.resolve(*cold.warm, delta);
      resolve_ms = std::min(resolve_ms, tr.millis());
    }

    // Gate (a): bitwise equality of the answer and its certificate.
    gate(warm.warm_resolve, label + ": resolve fell back to scratch (" +
                                warm.resolve_fallback + ")");
    gate(warm.value == scratch.value,
         label + ": warm value diverged from from-scratch");
    gate(warm.certified_ratio == scratch.certified_ratio,
         label + ": warm certified ratio diverged from from-scratch");

    // Gate (b): >= 5x fewer rounds, zero rounds in <= 2 passes, metered
    // first-class.
    const double rounds_ratio =
        static_cast<double>(scratch.outer_rounds + 1) /
        static_cast<double>(warm.outer_rounds + 1);
    const double pass_ratio =
        static_cast<double>(scratch.meter.passes() + 1) /
        static_cast<double>(warm.meter.passes() + 1);
    gate(rounds_ratio >= 5.0, label + ": rounds_ratio below 5x");
    gate(warm.outer_rounds == 0 && warm.meter.passes() <= 2,
         label + ": warm path ran MW rounds or more than 2 passes");
    gate(warm.meter.saved_rounds() > 0, label + ": saved_rounds not metered");
    gate(warm.meter.saved_passes() > 0, label + ": saved_passes not metered");
    gate(warm.meter.repaired_rows() > 0,
         label + ": repair pass touched no rows");

    report.add({static_cast<double>(threads), static_cast<double>(m_pre),
                static_cast<double>(k),
                static_cast<double>(scratch.outer_rounds),
                static_cast<double>(warm.outer_rounds), rounds_ratio,
                static_cast<double>(scratch.meter.passes()),
                static_cast<double>(warm.meter.passes()), pass_ratio,
                static_cast<double>(warm.meter.saved_rounds()),
                static_cast<double>(warm.meter.saved_passes()),
                static_cast<double>(warm.meter.repaired_rows()),
                static_cast<double>(warm.meter.repaired_rows()) / m_post,
                scratch_ms / resolve_ms});
  }

  report.flush();
  if (failures > 0) {
    std::printf("\n%d FATAL self-gate failure(s)\n", failures);
    return 1;
  }
  std::printf("\nall dynamic self-gates passed\n");
  return 0;
}
