// MapReduce scenario: the paper's motivating setting. A large edge list is
// distributed over simulated machines and the dual-primal matcher runs
// END-TO-END on the MapReduce access substrate (src/access/mapreduce):
// every sampling round is one REAL simulator round — mappers evaluate the
// counter-based masks over their shards, one reducer per sparsifier
// collects its support under a memory cap that would reject any algorithm
// shipping all edges to one place. The run reports the shuffle volume, the
// reducer cap and the peak number of stored edges.

#include <iostream>

#include "access/mapreduce.hpp"
#include "core/solver.hpp"
#include "graph/generators.hpp"

int main() {
  const std::size_t n = 400;
  const std::size_t m = 12000;
  dp::Graph g = dp::gen::power_law(n, 2.3, 2.0 * m / n, 7);
  dp::gen::weight_zipf(g, 0.7, 8);
  std::cout << "cluster input: " << g.summary() << "\n";

  // ---- Dual-primal matching END-TO-END on the MapReduce substrate: each
  // sampling round is one genuine simulator round (map -> shuffle ->
  // reduce) under the O(n^{1+1/p}) reducer memory cap. ----
  dp::access::MapReduceSubstrate::Config sub_config;
  sub_config.machines = 16;
  sub_config.space_exponent = 2.0;  // reducer cap ~ 8 n^{1.5}
  dp::access::MapReduceSubstrate substrate(sub_config);

  dp::core::SolverOptions options;
  options.eps = 0.2;
  options.p = 2.0;
  options.seed = 5;
  options.max_outer_rounds = 8;
  options.sparsifiers_per_round = 4;
  options.substrate = &substrate;
  const auto result = dp::core::solve_matching(g, options);
  std::cout << "matching weight=" << result.value
            << " certified_ratio=" << result.certified_ratio
            << " rounds=" << result.outer_rounds << "\n"
            << "substrate: simulator rounds="
            << substrate.simulator_rounds() << " (one per sampling round)"
            << " shuffle volume=" << substrate.meter().messages()
            << " reducer cap=" << substrate.reducer_memory()
            << "\npeak stored edges " << substrate.meter().peak_edges()
            << " of m=" << g.num_edges() << "\n";
  return 0;
}
