// Tests for the substrate-agnostic access layer (src/access): the full
// solver must produce a bitwise-identical SolverResult (value, lambda,
// beta, certified ratio, history, stored counts) across the in-memory,
// semi-streaming and MapReduce substrates and across 1/2/8 threads, while
// each substrate's ResourceMeter proves its model is respected — streaming
// makes exactly one pass per round iteration with o(m) stored state
// between passes, and MapReduce runs exactly one simulator round per
// sampling round under the reducer memory cap.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "access/in_memory.hpp"
#include "access/mapreduce.hpp"
#include "access/streaming.hpp"
#include "core/solver.hpp"
#include "graph/generators.hpp"

namespace dp::core {
namespace {

SolverOptions base_options() {
  SolverOptions opt;
  opt.eps = 0.2;
  opt.p = 2.0;
  opt.seed = 101;
  opt.max_outer_rounds = 3;
  opt.sparsifiers_per_round = 4;
  return opt;
}

Graph test_graph() {
  Graph g = gen::gnm(120, 900, 511);
  gen::weight_uniform(g, 1.0, 12.0, 512);
  return g;
}

/// The cross-substrate identity contract: everything the algorithm
/// computes is equal bitwise. (Meters are NOT compared here — the models
/// intentionally count different things.)
void expect_same_result(const SolverResult& a, const SolverResult& b,
                        const char* label) {
  EXPECT_EQ(a.value, b.value) << label;
  EXPECT_EQ(a.dual_bound, b.dual_bound) << label;
  EXPECT_EQ(a.certified_ratio, b.certified_ratio) << label;
  EXPECT_EQ(a.lambda, b.lambda) << label;
  EXPECT_EQ(a.beta, b.beta) << label;
  EXPECT_EQ(a.outer_rounds, b.outer_rounds) << label;
  EXPECT_EQ(a.oracle_calls, b.oracle_calls) << label;
  ASSERT_EQ(a.history.size(), b.history.size()) << label;
  for (std::size_t r = 0; r < a.history.size(); ++r) {
    EXPECT_EQ(a.history[r].round, b.history[r].round) << label;
    EXPECT_EQ(a.history[r].lambda, b.history[r].lambda) << label;
    EXPECT_EQ(a.history[r].beta, b.history[r].beta) << label;
    EXPECT_EQ(a.history[r].best_value, b.history[r].best_value) << label;
    EXPECT_EQ(a.history[r].stored_edges, b.history[r].stored_edges)
        << label;
    EXPECT_EQ(a.history[r].oracle_calls, b.history[r].oracle_calls)
        << label;
  }
  ASSERT_EQ(a.b_matching.num_edges(), b.b_matching.num_edges()) << label;
  for (EdgeId e = 0; e < a.b_matching.num_edges(); ++e) {
    ASSERT_EQ(a.b_matching.multiplicity(e), b.b_matching.multiplicity(e))
        << label << " edge " << e;
  }
}

TEST(Substrate, SolverBitwiseIdenticalAcrossSubstratesAndThreads) {
  const Graph g = test_graph();
  SolverOptions ref_opt = base_options();
  ref_opt.oracle.threads = 1;
  const SolverResult ref = solve_matching(g, ref_opt);  // internal in-memory
  EXPECT_GT(ref.value, 0.0);
  EXPECT_FALSE(ref.history.empty());

  for (const std::size_t threads : {1, 2, 8}) {
    access::InMemorySubstrate in_memory;
    access::StreamingSubstrate streaming;
    access::MapReduceSubstrate map_reduce;
    access::MapReduceSubstrate::Config compressed_config;
    compressed_config.round_compression = 3;
    access::MapReduceSubstrate compressed(compressed_config);
    access::Substrate* const substrates[] = {&in_memory, &streaming,
                                             &map_reduce, &compressed};
    for (access::Substrate* sub : substrates) {
      SolverOptions opt = base_options();
      opt.oracle.threads = threads;
      opt.substrate = sub;
      const SolverResult run = solve_matching(g, opt);
      const std::string label =
          std::string(sub->name()) +
          (sub == &compressed ? " compression=3" : "") +
          " threads=" + std::to_string(threads);
      expect_same_result(ref, run, label.c_str());
    }
  }
}

TEST(Substrate, SolverBitwiseIdenticalForBMatching) {
  Graph g = gen::gnm(60, 400, 531);
  gen::weight_uniform(g, 1.0, 8.0, 532);
  const Capacities b = gen::random_capacities(60, 1, 3, 533);
  SolverOptions ref_opt = base_options();
  ref_opt.eps = 0.15;
  ref_opt.oracle.threads = 1;
  const SolverResult ref = solve_b_matching(g, b, ref_opt);
  access::StreamingSubstrate streaming;
  access::MapReduceSubstrate map_reduce;
  access::Substrate* const substrates[] = {&streaming, &map_reduce};
  for (access::Substrate* sub : substrates) {
    SolverOptions opt = base_options();
    opt.eps = 0.15;
    opt.oracle.threads = 2;
    opt.substrate = sub;
    const SolverResult run = solve_b_matching(g, b, opt);
    expect_same_result(ref, run, sub->name());
  }
}

/// Dense instance where the deferred probabilities genuinely thin the
/// stream (strengths well above rho), so the space bounds are exercised
/// rather than saturated.
Graph dense_graph() {
  Graph g = gen::gnm(250, 20000, 611);
  gen::weight_uniform(g, 1.0, 12.0, 612);
  return g;
}

TEST(Substrate, StreamingMetersExactlyOnePassPerRoundIteration) {
  const Graph g = dense_graph();
  access::StreamingSubstrate streaming;
  SolverOptions opt = base_options();
  opt.eps = 0.25;
  opt.substrate = &streaming;
  const SolverResult result = solve_matching(g, opt);
  ASSERT_GT(result.outer_rounds, 0u);

  const ResourceMeter& meter = streaming.meter();
  // One pass per round-loop iteration: each executed sampling round makes
  // exactly one pass (multipliers + draw fused), plus the final stopping /
  // certificate sweep — never more.
  EXPECT_EQ(meter.passes(), result.outer_rounds + 1);
  EXPECT_EQ(meter.rounds(), result.outer_rounds);
  // Between passes the model's state is the sampled incidences only, all
  // released at round merges; the peak must be strictly below storing
  // every (edge, sparsifier) incidence.
  EXPECT_EQ(meter.stored_edges(), 0u);
  EXPECT_GT(meter.peak_edges(), 0u);
  EXPECT_LT(meter.peak_edges(),
            opt.sparsifiers_per_round * g.num_edges());
  // Per-round stored counts are what the peak tracks.
  for (const RoundStats& rs : result.history) {
    EXPECT_LE(rs.stored_edges, meter.peak_edges());
  }
}

TEST(Substrate, MapReduceMetersOneSimulatorRoundPerSamplingRound) {
  const Graph g = dense_graph();

  // Reference run with the derived O(n^{1+1/p}) cap.
  access::MapReduceSubstrate::Config config;
  config.machines = 8;
  config.reducer_memory = 0;  // derive from p
  access::MapReduceSubstrate derived(config);
  SolverOptions opt = base_options();
  opt.eps = 0.25;
  opt.substrate = &derived;
  const SolverResult result = solve_matching(g, opt);
  ASSERT_GT(result.outer_rounds, 0u);

  EXPECT_EQ(derived.simulator_rounds(), result.outer_rounds);
  EXPECT_EQ(derived.meter().rounds(), result.outer_rounds);
  EXPECT_EQ(derived.meter().passes(), result.outer_rounds);
  EXPECT_GT(derived.meter().messages(), 0u);  // real shuffle volume
  EXPECT_EQ(derived.meter().stored_edges(), 0u);
  EXPECT_GT(derived.reducer_memory(), 0u);

  // A cap strictly below m must still admit the run: every reducer (= one
  // sparsifier's support) holds o(m) edges — live enforcement, the model
  // would reject an algorithm shipping all edges to one reducer.
  access::MapReduceSubstrate::Config tight;
  tight.machines = 8;
  tight.reducer_memory = (g.num_edges() * 17) / 20;  // 0.85 m
  access::MapReduceSubstrate capped(tight);
  SolverOptions capped_opt = base_options();
  capped_opt.eps = 0.25;
  capped_opt.substrate = &capped;
  const SolverResult capped_result = solve_matching(g, capped_opt);
  expect_same_result(result, capped_result, "reducer cap below m");

  // A cap below any sparsifier's support must throw (model violation).
  // The error is typed: ReducerMemoryExceeded is-a ConfigError is-a
  // SolverError carrying the reducer site in its context — never a
  // transient fault, never retried.
  access::MapReduceSubstrate::Config broken;
  broken.machines = 8;
  broken.reducer_memory = 1;
  access::MapReduceSubstrate starved(broken);
  SolverOptions starved_opt = base_options();
  starved_opt.eps = 0.25;
  starved_opt.substrate = &starved;
  try {
    solve_matching(g, starved_opt);
    FAIL() << "expected ReducerMemoryExceeded";
  } catch (const ConfigError& err) {
    EXPECT_NE(dynamic_cast<const mapreduce::ReducerMemoryExceeded*>(&err),
              nullptr);
    EXPECT_NE(dynamic_cast<const SolverError*>(&err), nullptr);
    EXPECT_EQ(err.context().site, fault_site_name(FaultSite::kReducerTask));
    EXPECT_NE(std::string(err.what()).find("memory cap"), std::string::npos);
  }
}

TEST(Substrate, MeterThreadCountInvariantPerSubstrate) {
  const Graph g = test_graph();
  for (const std::size_t kind : {0, 1, 2}) {
    std::vector<std::string> meters;
    std::string name;
    for (const std::size_t threads : {1, 2, 8}) {
      access::InMemorySubstrate in_memory;
      access::StreamingSubstrate streaming;
      // Compressed MapReduce, with the simulator's own pool sized to the
      // thread count as well.
      access::MapReduceSubstrate::Config config;
      config.round_compression = 3;
      config.threads = threads;
      access::MapReduceSubstrate map_reduce(config);
      access::Substrate* const substrates[] = {&in_memory, &streaming,
                                               &map_reduce};
      access::Substrate* const sub = substrates[kind];
      name = sub->name();
      SolverOptions opt = base_options();
      opt.oracle.threads = threads;
      opt.substrate = sub;
      solve_matching(g, opt);
      meters.push_back(sub->meter().summary());
    }
    EXPECT_EQ(meters[1], meters[0]) << name;
    EXPECT_EQ(meters[2], meters[0]) << name;
  }
}

}  // namespace
}  // namespace dp::core
