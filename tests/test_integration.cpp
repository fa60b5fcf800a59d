// Cross-module integration tests: pipelines a user of the library would
// compose outside the solver's own round loop — file round trip -> solver,
// a MapReduce round over the edge list, and the one-pass streaming
// baselines sharing one stream.

#include <gtest/gtest.h>

#include <cstdio>

#include "baselines/baselines.hpp"
#include "core/solver.hpp"
#include "graph/generators.hpp"
#include "mapreduce/mapreduce.hpp"
#include "stream/edge_file.hpp"

namespace dp {
namespace {

TEST(Integration, FileRoundTripThenSolve) {
  Graph g = gen::gnm(40, 300, 5);
  gen::weight_uniform(g, 1.0, 4.0, 6);
  const std::string path = ::testing::TempDir() + "dp_integration_graph.dpef";
  stream::write_edge_file(path, g);
  const Graph loaded = stream::read_edge_file(path);
  std::remove(path.c_str());

  core::SolverOptions opt;
  opt.eps = 0.2;
  opt.seed = 7;
  opt.max_outer_rounds = 6;
  const auto a = core::solve_matching(g, opt);
  const auto b = core::solve_matching(loaded, opt);
  EXPECT_DOUBLE_EQ(a.value, b.value);  // identical inputs, identical run
}

TEST(Integration, MapReduceDegreesMatchGraph) {
  const Graph g = gen::gnm(50, 400, 8);
  using mapreduce::KeyValue;
  mapreduce::Simulator sim(mapreduce::Config{.machines = 8});
  std::vector<KeyValue> input;
  for (const Edge& e : g.edges()) {
    input.push_back({e.u, 1});
    input.push_back({e.v, 1});
  }
  const auto out = sim.round(
      input,
      [](std::span<const KeyValue> shard, mapreduce::Emitter& emit) {
        for (const KeyValue& kv : shard) emit.push_back(kv);
      },
      [](std::uint64_t key, const mapreduce::Values& values,
         std::vector<KeyValue>& emit) {
        emit.push_back({key, values.size()});
      });
  g.build_adjacency();
  for (const KeyValue& kv : out) {
    EXPECT_EQ(kv.value, g.degree(static_cast<Vertex>(kv.key)));
  }
}

TEST(Integration, StreamingBaselinesShareOneStream) {
  // All one-pass baselines observe the same stream order and meter exactly
  // one pass each.
  Graph g = gen::gnm(60, 500, 14);
  gen::weight_uniform(g, 1.0, 5.0, 15);
  ResourceMeter meter;
  const auto a = baselines::streaming_greedy_matching(g, &meter);
  const auto b = baselines::paz_schwartzman_matching(g, 0.1, &meter);
  const auto c = baselines::improvement_matching(g, 0.1, &meter);
  EXPECT_EQ(meter.passes(), 3u);
  EXPECT_TRUE(a.is_valid(g));
  EXPECT_TRUE(b.is_valid(g));
  EXPECT_TRUE(c.is_valid(g));
  // Weighted-aware baselines should not lose to blind maximality here.
  EXPECT_GE(b.weight(g), 0.8 * a.weight(g));
}

}  // namespace
}  // namespace dp
