// Substrate trajectory (the paper's access-to-data axis): the SAME solve
// executed on the in-memory, semi-streaming and MapReduce substrates.
// Emits BENCH_substrate.json with per-substrate wall seconds and the model
// quantities each substrate meters — passes, simulator rounds, shuffle
// volume, peak stored edges — and self-gates the core contract: the
// SolverResult (value, lambda, beta, certified ratio, history, stored
// counts) must be bitwise identical across all three substrates AND across
// 1/2/8 threads.

#include <cstdio>
#include <string>

#include "access/in_memory.hpp"
#include "access/mapreduce.hpp"
#include "access/streaming.hpp"
#include "bench_common.hpp"
#include "core/solver.hpp"
#include "graph/generators.hpp"
#include "util/timer.hpp"

namespace {

using namespace dp;

core::SolverOptions solve_options() {
  core::SolverOptions opts;
  opts.eps = 0.25;
  opts.p = 2.0;
  opts.seed = 13;
  opts.max_outer_rounds = 4;
  opts.sparsifiers_per_round = 3;
  return opts;
}

struct Fingerprint {
  double value = 0;
  double lambda = 0;
  double beta = 0;
  double certified_ratio = 0;
  std::size_t outer_rounds = 0;
  std::vector<std::size_t> stored;

  explicit Fingerprint(const core::SolverResult& r)
      : value(r.value),
        lambda(r.lambda),
        beta(r.beta),
        certified_ratio(r.certified_ratio),
        outer_rounds(r.outer_rounds) {
    for (const auto& rs : r.history) stored.push_back(rs.stored_edges);
  }

  bool operator==(const Fingerprint&) const = default;
};

}  // namespace

int main() {
  bench::header("Substrate trajectory (access to data)",
                "one solve across in-memory / streaming / MapReduce "
                "substrates: bitwise-identical SolverResult, per-model "
                "passes, shuffle volume and peak stored edges");

  // ---- Self-gate: cross-substrate and cross-thread bitwise identity. ----
  {
    Graph g = gen::gnm(300, 4000, 4001);
    gen::weight_uniform(g, 1.0, 16.0, 4002);
    core::SolverOptions ref_opts = solve_options();
    ref_opts.oracle.threads = 1;
    const Fingerprint ref(core::solve_matching(g, ref_opts));
    for (const std::size_t threads : {std::size_t{1}, std::size_t{2},
                                      std::size_t{8}}) {
      access::InMemorySubstrate in_memory;
      access::StreamingSubstrate streaming;
      access::MapReduceSubstrate map_reduce;
      access::Substrate* const subs[] = {&in_memory, &streaming,
                                         &map_reduce};
      for (access::Substrate* sub : subs) {
        core::SolverOptions opts = solve_options();
        opts.oracle.threads = threads;
        opts.substrate = sub;
        const Fingerprint run(core::solve_matching(g, opts));
        if (!(run == ref)) {
          std::fprintf(stderr,
                       "FATAL: SolverResult diverges on substrate %s at "
                       "%zu threads\n",
                       sub->name(), threads);
          return 1;
        }
      }
    }
    std::printf("determinism: SolverResult bitwise identical across "
                "in-memory/streaming/mapreduce and 1/2/8 threads\n\n");
  }

  // ---- Trajectory rows: per-substrate seconds + model accounting. ----
  bench::BenchReport report(
      "substrate", {"substrate", "n", "m", "seconds", "rounds", "passes",
                    "shuffle", "peak_stored", "certified_ratio"});
  std::printf("%-10s %-7s %-7s %10s %7s %7s %10s %12s %8s\n", "substrate",
              "n", "m", "seconds", "rounds", "passes", "shuffle",
              "peak_stored", "ratio");
  const std::size_t n = 600;
  for (const std::size_t m : {std::size_t{6000}, std::size_t{12000}}) {
    Graph g = gen::gnm(n, m, m + 7);
    gen::weight_uniform(g, 1.0, 16.0, m + 8);
    for (int which = 0; which < 3; ++which) {
      access::InMemorySubstrate in_memory;
      access::StreamingSubstrate streaming;
      access::MapReduceSubstrate map_reduce;
      access::Substrate* const sub =
          which == 0 ? static_cast<access::Substrate*>(&in_memory)
          : which == 1 ? static_cast<access::Substrate*>(&streaming)
                       : &map_reduce;
      core::SolverOptions opts = solve_options();
      opts.substrate = sub;
      WallTimer timer;
      const auto result = core::solve_matching(g, opts);
      const double sec = timer.seconds();
      const ResourceMeter& meter = sub->meter();
      std::printf("%-10s %-7zu %-7zu %10.3f %7zu %7zu %10zu %12zu %8.4f\n",
                  sub->name(), n, m, sec, meter.rounds(), meter.passes(),
                  meter.messages(), meter.peak_edges(),
                  result.certified_ratio);
      report.add({static_cast<double>(which), static_cast<double>(n),
                  static_cast<double>(m), sec,
                  static_cast<double>(meter.rounds()),
                  static_cast<double>(meter.passes()),
                  static_cast<double>(meter.messages()),
                  static_cast<double>(meter.peak_edges()),
                  result.certified_ratio});
    }
  }
  return 0;
}
