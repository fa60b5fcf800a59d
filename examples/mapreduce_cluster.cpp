// MapReduce scenario: the paper's motivating setting. A large edge list is
// distributed over simulated machines; per-vertex l0-sampling sketches are
// computed in one MapReduce round (mappers emit per-endpoint records,
// reducers build vertex sketches), the first round of Section 4.2's
// schema, with shuffle volume and the largest reducer load reported. Then
// the dual-primal matcher runs END-TO-END on the MapReduce access
// substrate (src/access/mapreduce): every sampling round is one REAL
// simulator round — mappers evaluate the counter-based masks over their
// shards, one reducer per sparsifier collects its support under a memory
// cap that would reject any algorithm shipping all edges to one place.

#include <algorithm>
#include <iostream>
#include <mutex>

#include "access/mapreduce.hpp"
#include "core/solver.hpp"
#include "graph/generators.hpp"
#include "mapreduce/mapreduce.hpp"
#include "sketch/l0sampler.hpp"

int main() {
  const std::size_t n = 400;
  const std::size_t m = 12000;
  dp::Graph g = dp::gen::power_law(n, 2.3, 2.0 * m / n, 7);
  dp::gen::weight_zipf(g, 0.7, 8);
  std::cout << "cluster input: " << g.summary() << "\n";

  // ---- Round schema of Section 4.2: mappers shard edges, reducers own
  // vertices. We count shuffle volume and rounds. ----
  dp::ResourceMeter mr_meter;
  dp::mapreduce::Config config;
  config.machines = 16;
  dp::mapreduce::Simulator sim(config, &mr_meter);

  using dp::mapreduce::KeyValue;
  std::vector<KeyValue> edge_records;
  for (dp::EdgeId e = 0; e < g.num_edges(); ++e) {
    // Emit each edge to both endpoint reducers (1st round mapper).
    edge_records.push_back({g.edge(e).u, e});
    edge_records.push_back({g.edge(e).v, e});
  }
  dp::Rng sketch_rng(33);
  const dp::L0SamplerSeed sketch_seed(2 * 10, 6, sketch_rng);
  std::size_t max_reducer_load = 0;
  std::size_t sketch_words = 0;
  std::mutex reducer_mutex;
  sim.round(
      edge_records,
      [](std::span<const KeyValue> shard, dp::mapreduce::Emitter& emit) {
        for (const KeyValue& kv : shard) emit.push_back(kv);
      },
      [&](std::uint64_t vertex, const dp::mapreduce::Values& values,
          std::vector<KeyValue>& emit) {
        // Each reducer owns one vertex: build its l0 incidence sketch from
        // the whole delivered batch in ONE update_batch call (rep-major
        // hashing + shared z-power tables across the vertex's edges).
        std::vector<dp::SketchUpdate> updates;
        updates.reserve(values.size());
        for (std::uint64_t e : values) {
          const dp::Edge& edge = g.edge(static_cast<dp::EdgeId>(e));
          const dp::Vertex lo = std::min(edge.u, edge.v);
          const dp::Vertex hi = std::max(edge.u, edge.v);
          const std::uint64_t index =
              static_cast<std::uint64_t>(lo) * n + hi;
          updates.push_back(
              dp::SketchUpdate{index, vertex == lo ? +1 : -1});
        }
        dp::L0Sampler sketch(sketch_seed);
        sketch.update_batch(updates);
        {
          const std::lock_guard<std::mutex> lock(reducer_mutex);
          max_reducer_load = std::max(max_reducer_load, values.size());
          sketch_words += sketch.words();
        }
        emit.push_back({0, values.size()});
      });
  std::cout << "mapreduce: " << mr_meter.summary()
            << " max_reducer_load=" << max_reducer_load
            << " sketch_words=" << sketch_words << "\n";

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
