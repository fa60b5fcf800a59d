// Tests for the streaming and MapReduce substrates: pass counting, shuffle
// grouping, reducer memory caps and round accounting.

#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "access/mapreduce.hpp"
#include "core/sampling.hpp"
#include "core/weight_levels.hpp"
#include "graph/generators.hpp"
#include "mapreduce/mapreduce.hpp"
#include "sparsify/deferred.hpp"
#include "stream/edge_stream.hpp"
#include "util/thread_pool.hpp"

namespace dp {
namespace {

TEST(EdgeStream, PassCountingAndOrder) {
  const Graph g = gen::gnm(20, 50, 1);
  ResourceMeter meter;
  EdgeStream stream(g, &meter);
  std::size_t count = 0;
  stream.for_each_pass([&](const Edge&) { ++count; });
  stream.for_each_pass([&](const Edge&) {});
  EXPECT_EQ(count, 50u);
  EXPECT_EQ(meter.passes(), 2u);
}

TEST(EdgeStream, ShuffledPassSameMultiset) {
  const Graph g = gen::gnm(15, 40, 2);
  EdgeStream stream(g);
  std::map<std::pair<Vertex, Vertex>, int> seen;
  stream.for_each_pass_shuffled(7, [&](const Edge& e) {
    seen[{std::min(e.u, e.v), std::max(e.u, e.v)}]++;
  });
  std::size_t total = 0;
  for (const auto& [key, c] : seen) total += static_cast<std::size_t>(c);
  EXPECT_EQ(total, 40u);
}

TEST(EdgeStream, ShuffleDeterministicInSeed) {
  const Graph g = gen::gnm(10, 30, 3);
  EdgeStream stream(g);
  std::vector<Vertex> order_a, order_b;
  stream.for_each_pass_shuffled(5, [&](const Edge& e) {
    order_a.push_back(e.u);
  });
  stream.for_each_pass_shuffled(5, [&](const Edge& e) {
    order_b.push_back(e.u);
  });
  EXPECT_EQ(order_a, order_b);
}

TEST(EdgeStream, TypeErasedOverloadMatchesTemplate) {
  const Graph g = gen::gnm(12, 30, 4);
  EdgeStream stream(g);
  std::vector<Vertex> a, b;
  const std::function<void(const Edge&)> erased = [&](const Edge& e) {
    a.push_back(e.u);
  };
  stream.for_each_pass(erased);                          // std::function
  stream.for_each_pass([&](const Edge& e) { b.push_back(e.u); });  // inline
  EXPECT_EQ(a, b);
}

TEST(EdgeStream, ShuffledPassCachesOrderPerSeed) {
  const Graph g = gen::gnm(14, 60, 6);
  ResourceMeter meter;
  EdgeStream stream(g, &meter);
  std::vector<Vertex> first, second, other_seed;
  stream.for_each_pass_shuffled(9, [&](const Edge& e) {
    first.push_back(e.u);
  });
  stream.for_each_pass_shuffled(9, [&](const Edge& e) {
    second.push_back(e.u);
  });
  stream.for_each_pass_shuffled(10, [&](const Edge& e) {
    other_seed.push_back(e.u);
  });
  EXPECT_EQ(first, second);        // cached permutation reused
  EXPECT_NE(first, other_seed);    // new seed regenerates
  EXPECT_EQ(meter.passes(), 3u);
}

TEST(EdgeStream, ConcurrentFirstShuffledPassesAreSafe) {
  // The shuffled-order cache builds each seed's permutation once as an
  // immutable entry (mutex + acquire/release, like Graph::neighbors' lazy
  // CSR), so concurrent FIRST passes — including different seeds — must
  // be safe and agree with serial passes.
  const Graph g = gen::gnm(40, 400, 11);
  std::vector<std::vector<Vertex>> serial(4);
  {
    EdgeStream reference(g);
    for (std::uint64_t seed = 0; seed < 4; ++seed) {
      reference.for_each_pass_shuffled(seed, [&](const Edge& e) {
        serial[seed].push_back(e.u);
      });
    }
  }
  for (int trial = 0; trial < 5; ++trial) {
    EdgeStream stream(g);
    std::vector<std::vector<Vertex>> seen(8);
    std::vector<std::thread> threads;
    threads.reserve(8);
    for (std::size_t i = 0; i < 8; ++i) {
      threads.emplace_back([&stream, &seen, i] {
        stream.for_each_pass_shuffled(i % 4, [&](const Edge& e) {
          seen[i].push_back(e.u);
        });
      });
    }
    for (std::thread& th : threads) th.join();
    for (std::size_t i = 0; i < 8; ++i) {
      EXPECT_EQ(seen[i], serial[i % 4]) << "thread " << i;
    }
  }
}

TEST(EdgeStream, IndexedPassesYieldMatchingIds) {
  const Graph g = gen::gnm(18, 70, 12);
  EdgeStream stream(g);
  std::size_t count = 0;
  stream.for_each_pass_indexed([&](EdgeId e, const Edge& edge) {
    EXPECT_EQ(edge, g.edge(e));
    ++count;
  });
  EXPECT_EQ(count, g.num_edges());
  count = 0;
  stream.for_each_pass_shuffled_indexed(3, [&](EdgeId e, const Edge& edge) {
    EXPECT_EQ(edge, g.edge(e));
    ++count;
  });
  EXPECT_EQ(count, g.num_edges());
}

// ---- Batched sampling rounds across substrates (core/sampling). ----

std::vector<double> sampling_probabilities(const Graph& g) {
  std::vector<double> promise(g.num_edges(), 1.0);
  DeferredOptions dopt;
  dopt.xi = 0.5;
  dopt.gamma = 1.5;
  dopt.sampling_constant = 0.05;
  std::vector<double> prob;
  DeferredScratch scratch;
  deferred_probabilities_into(g.num_vertices(), g.edges(), promise, dopt, 123,
                              prob, scratch);
  return prob;
}

TEST(SamplingEngine, ThreadCountInvariantDraws) {
  const Graph g = gen::gnm(60, 800, 7);
  const std::vector<double> prob = sampling_probabilities(g);
  const std::size_t t = 5;
  core::SamplingEngine serial;
  serial.draw(prob, t, 3, 99);
  for (std::size_t threads : {1, 2, 8}) {
    ThreadPool pool(threads);
    core::SamplingEngine engine(&pool, /*grain=*/64);
    engine.draw(prob, t, 3, 99);
    EXPECT_EQ(engine.last_round().masks(), serial.last_round().masks());
    EXPECT_EQ(engine.last_round().union_support(),
              serial.last_round().union_support());
    EXPECT_EQ(engine.last_round().stored_total(),
              serial.last_round().stored_total());
    for (std::size_t q = 0; q < t; ++q) {
      EXPECT_EQ(engine.last_round().sparsifier(q),
                serial.last_round().sparsifier(q));
    }
  }
}

TEST(SamplingEngine, StreamDrawMatchesInMemoryAndMetersPass) {
  const Graph g = gen::gnm(50, 600, 8);
  const std::vector<double> prob = sampling_probabilities(g);
  const std::size_t t = 4;

  core::SamplingEngine memory_engine;
  ResourceMeter memory_meter;
  memory_engine.draw(prob, t, 2, 55, &memory_meter);

  ResourceMeter stream_meter;
  EdgeStream stream(g, &stream_meter);
  core::SamplingEngine stream_engine;
  stream_engine.draw_stream(stream, prob, t, 2, 55);

  EXPECT_EQ(stream_engine.last_round().masks(),
            memory_engine.last_round().masks());
  EXPECT_EQ(stream_engine.last_round().union_support(),
            memory_engine.last_round().union_support());
  // Both substrates meter the same round/pass/store accounting.
  EXPECT_EQ(memory_meter.rounds(), 1u);
  EXPECT_EQ(memory_meter.passes(), 1u);
  EXPECT_EQ(stream_meter.rounds(), 1u);
  EXPECT_EQ(stream_meter.passes(), 1u);
  EXPECT_EQ(memory_meter.stored_edges(),
            memory_engine.last_round().stored_total());
  EXPECT_EQ(stream_meter.stored_edges(), memory_meter.stored_edges());
}

TEST(SamplingEngine, MapReduceRoundMatchesEngine) {
  const Graph g = gen::gnm(40, 500, 9);
  const std::vector<double> prob = sampling_probabilities(g);
  const std::size_t t = 6;

  core::SamplingEngine engine;
  engine.draw(prob, t, 4, 123);

  mapreduce::Config config;
  config.machines = 8;
  ResourceMeter meter;
  mapreduce::Simulator sim(config, &meter);
  const auto supports = mapreduce::sample_round(sim, prob, t, 4, 123, &meter);

  ASSERT_EQ(supports.size(), t);
  std::size_t stored_total = 0;
  for (std::size_t q = 0; q < t; ++q) {
    EXPECT_EQ(supports[q], engine.last_round().sparsifier(q)) << "q=" << q;
    stored_total += supports[q].size();
  }
  EXPECT_EQ(stored_total, engine.last_round().stored_total());
  EXPECT_EQ(meter.rounds(), 1u);
  EXPECT_EQ(meter.passes(), 1u);
  EXPECT_EQ(meter.stored_edges(), stored_total);
}

// Reducers return supports as 64-index bitmap words, and the compressed
// pre-draw ORs the words of every (round-in-batch, sparsifier) reducer into
// one bitmap per round. Retained counts on both sides of a word boundary,
// one word and several, must still give SamplingEngine::draw's round
// bitwise — on cached rounds, on fresh batches, and through sample_round.
TEST(MapReduce, SupportWordsMatchEngineAtWordBoundaries) {
  const double cycle[] = {0.0, 1e-3, 0.3, 1.0, 2.0};
  const std::uint64_t seed = 77;
  for (const std::size_t m : {1, 63, 64, 65, 200}) {
    // Unit weights: every edge is retained, so retained index = edge id.
    const Graph g = gen::gnm(30, m, 40 + m);
    ASSERT_EQ(g.num_edges(), m);
    const core::LevelGraph lg(g, Capacities(g.num_vertices(), 1), 0.2);
    for (const std::size_t t : {1, 8, 32}) {
      const std::string label =
          "m=" + std::to_string(m) + " t=" + std::to_string(t);
      access::MapReduceSubstrate::Config config;
      config.round_compression = 3;
      config.threads = 2;
      access::MapReduceSubstrate sub(config);
      sub.bind(g, lg, nullptr, 64);
      ASSERT_EQ(sub.num_retained(), m) << label;
      mapreduce::Config sim_config;
      sim_config.threads = 2;
      mapreduce::Simulator sim(sim_config);
      core::SamplingEngine engine;
      std::vector<double> prob(m);
      for (std::uint64_t round = 0; round < 6; ++round) {
        // Scaling every probability by 5 at round 4 leaves the boost-4
        // envelope of the batch drawn at round 3: a fresh batch starts.
        const double scale = round >= 4 ? 5.0 : 1.0;
        for (std::size_t e = 0; e < m; ++e) prob[e] = cycle[e % 5] * scale;
        const core::SamplingRound& want = engine.draw(prob, t, round, seed);
        const core::SamplingRound& got = sub.draw(prob, t, round, seed);
        EXPECT_EQ(got.masks(), want.masks()) << label << " round " << round;
        EXPECT_EQ(got.union_support(), want.union_support())
            << label << " round " << round;
        EXPECT_EQ(got.stored_total(), want.stored_total())
            << label << " round " << round;

        const auto supports =
            mapreduce::sample_round(sim, prob, t, round, seed);
        ASSERT_EQ(supports.size(), t) << label;
        std::size_t stored_total = 0;
        for (std::size_t q = 0; q < t; ++q) {
          EXPECT_EQ(supports[q], want.sparsifier(q))
              << label << " round " << round << " q=" << q;
          stored_total += supports[q].size();
        }
        EXPECT_EQ(stored_total, want.stored_total())
            << label << " round " << round;
      }
      // Batches drawn at rounds 0, 3 and 4; a lone zero-probability edge
      // never leaves its envelope, so there round 4 rides the batch of 3.
      EXPECT_TRUE(sub.compression_active()) << label;
      EXPECT_EQ(sub.simulator_rounds(), m == 1 ? 2u : 3u) << label;
      EXPECT_EQ(sub.meter().rounds() + sub.meter().saved_rounds(), 6u)
          << label;
    }
  }
}

TEST(SamplingEngine, SaturatedAndZeroProbabilities) {
  std::vector<double> prob{1.0, 0.0, 0.5, 2.0, -1.0};
  core::SamplingEngine engine;
  const core::SamplingRound& round = engine.draw(prob, 3, 0, 1);
  EXPECT_EQ(round.masks()[0], 0b111u);  // p >= 1: all sparsifiers
  EXPECT_EQ(round.masks()[1], 0u);      // p == 0: none
  EXPECT_EQ(round.masks()[3], 0b111u);
  EXPECT_EQ(round.masks()[4], 0u);
  for (std::uint32_t idx : round.union_support()) {
    EXPECT_NE(round.masks()[idx], 0u);
  }
}

TEST(MapReduce, WordCountStyleRound) {
  using mapreduce::KeyValue;
  mapreduce::Config config;
  config.machines = 4;
  ResourceMeter meter;
  mapreduce::Simulator sim(config, &meter);

  // Input: key = word id, value = 1. Reducer sums.
  std::vector<KeyValue> input;
  for (std::uint64_t w = 0; w < 10; ++w) {
    for (std::uint64_t i = 0; i <= w; ++i) input.push_back({w, 1});
  }
  const auto output = sim.round(
      input,
      [](const std::vector<KeyValue>& shard, std::vector<KeyValue>& emit) {
        for (const KeyValue& kv : shard) emit.push_back(kv);
      },
      [](std::uint64_t key, const std::vector<std::uint64_t>& values,
         std::vector<KeyValue>& emit) {
        std::uint64_t sum = 0;
        for (std::uint64_t v : values) sum += v;
        emit.push_back({key, sum});
      });
  ASSERT_EQ(output.size(), 10u);
  std::map<std::uint64_t, std::uint64_t> result;
  for (const KeyValue& kv : output) result[kv.key] = kv.value;
  for (std::uint64_t w = 0; w < 10; ++w) {
    EXPECT_EQ(result[w], w + 1);
  }
  EXPECT_EQ(meter.rounds(), 1u);
  EXPECT_EQ(meter.messages(), input.size());
}

TEST(MapReduce, ReducerMemoryCapEnforced) {
  using mapreduce::KeyValue;
  mapreduce::Config config;
  config.machines = 2;
  config.reducer_memory = 5;
  mapreduce::Simulator sim(config);
  std::vector<KeyValue> input(10, KeyValue{1, 1});  // all to one reducer
  try {
    sim.round(
        input,
        [](const std::vector<KeyValue>& shard, std::vector<KeyValue>& emit) {
          for (const KeyValue& kv : shard) emit.push_back(kv);
        },
        [](std::uint64_t, const std::vector<std::uint64_t>&,
           std::vector<KeyValue>&) {});
    FAIL() << "expected ReducerMemoryExceeded";
  } catch (const mapreduce::ReducerMemoryExceeded& err) {
    // Typed hierarchy: a model violation is a ConfigError (is-a
    // SolverError), distinct from the retriable SubstrateFault.
    EXPECT_NE(dynamic_cast<const ConfigError*>(&err), nullptr);
    EXPECT_NE(dynamic_cast<const SolverError*>(&err), nullptr);
    EXPECT_EQ(err.context().site, fault_site_name(FaultSite::kReducerTask));
  }
}

TEST(MapReduce, ReducerCapErrorNamesTheSmallestViolatingKey) {
  using mapreduce::KeyValue;
  // Two keys over the cap, shuffled in either order: the check walks the
  // keys ascending, so the error names key 3 both times.
  for (const std::vector<std::uint64_t>& order :
       {std::vector<std::uint64_t>{9, 3}, std::vector<std::uint64_t>{3, 9}}) {
    mapreduce::Config config;
    config.machines = 1;
    config.reducer_memory = 2;
    mapreduce::Simulator sim(config);
    std::vector<KeyValue> input;
    for (const std::uint64_t key : order) {
      for (std::uint64_t i = 0; i < 3; ++i) input.push_back({key, i});
    }
    const std::string label = "keys shuffled as {" +
                              std::to_string(order[0]) + ", " +
                              std::to_string(order[1]) + "}";
    try {
      sim.round(
          input,
          [](const std::vector<KeyValue>& shard, std::vector<KeyValue>& emit) {
            for (const KeyValue& kv : shard) emit.push_back(kv);
          },
          [](std::uint64_t, const std::vector<std::uint64_t>&,
             std::vector<KeyValue>&) {});
      ADD_FAILURE() << "expected ReducerMemoryExceeded, " << label;
    } catch (const mapreduce::ReducerMemoryExceeded& err) {
      EXPECT_NE(std::string(err.what()).find("reducer for key 3 "),
                std::string::npos)
          << label << ": " << err.what();
    }
  }
}

TEST(MapReduce, MultipleRoundsCounted) {
  using mapreduce::KeyValue;
  mapreduce::Simulator sim(mapreduce::Config{});
  std::vector<KeyValue> data{{1, 1}, {2, 2}};
  auto identity_map = [](const std::vector<KeyValue>& shard,
                         std::vector<KeyValue>& emit) {
    for (const KeyValue& kv : shard) emit.push_back(kv);
  };
  auto identity_reduce = [](std::uint64_t key,
                            const std::vector<std::uint64_t>& values,
                            std::vector<KeyValue>& emit) {
    for (std::uint64_t v : values) emit.push_back({key, v});
  };
  data = sim.round(data, identity_map, identity_reduce);
  data = sim.round(data, identity_map, identity_reduce);
  data = sim.round(data, identity_map, identity_reduce);
  EXPECT_EQ(sim.rounds_executed(), 3u);
  EXPECT_EQ(data.size(), 2u);
}

TEST(MapReduce, KeptShuffleBuffersCarryNothingIntoTheNextRound) {
  // round() keeps its shuffle buffers between rounds; a round must still
  // see only its own messages, released buffers or not.
  using mapreduce::KeyValue;
  const auto identity_map = [](const std::vector<KeyValue>& shard,
                               std::vector<KeyValue>& emit) {
    for (const KeyValue& kv : shard) emit.push_back(kv);
  };
  // Per key: the number of values and their sum.
  const auto count_sum = [](std::uint64_t key,
                            const std::vector<std::uint64_t>& values,
                            std::vector<KeyValue>& emit) {
    std::uint64_t sum = 0;
    for (std::uint64_t v : values) sum += v;
    emit.push_back({key, values.size()});
    emit.push_back({key, sum});
  };
  const auto same = [](const std::vector<KeyValue>& a,
                       const std::vector<KeyValue>& b) {
    if (a.size() != b.size()) return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
      if (a[i].key != b[i].key || a[i].value != b[i].value) return false;
    }
    return true;
  };
  const std::vector<KeyValue> first{{1, 10}, {2, 20}, {1, 30}, {3, 40},
                                    {2, 50}, {3, 60}, {1, 70}};
  const std::vector<KeyValue> second{{3, 5}, {4, 6}, {3, 7}};

  mapreduce::Simulator fresh(mapreduce::Config{.machines = 3});
  const auto expected = fresh.round(second, identity_map, count_sum);
  ASSERT_TRUE(same(expected, {{3, 2}, {3, 12}, {4, 1}, {4, 6}}));

  mapreduce::Simulator sim(mapreduce::Config{.machines = 3});
  sim.round(first, identity_map, count_sum);
  EXPECT_TRUE(same(sim.round(second, identity_map, count_sum), expected));
  sim.release_buffers();
  EXPECT_TRUE(same(sim.round(second, identity_map, count_sum), expected));
  EXPECT_EQ(sim.rounds_executed(), 3u);
}

TEST(MapReduce, EmptyInputProducesEmptyOutput) {
  using mapreduce::KeyValue;
  mapreduce::Simulator sim(mapreduce::Config{});
  const auto output = sim.round(
      {},
      [](const std::vector<KeyValue>&, std::vector<KeyValue>&) {},
      [](std::uint64_t, const std::vector<std::uint64_t>&,
         std::vector<KeyValue>&) {});
  EXPECT_TRUE(output.empty());
}

TEST(MapReduce, DeterministicReduceOrderAcrossRuns) {
  using mapreduce::KeyValue;
  std::vector<KeyValue> input;
  for (std::uint64_t i = 0; i < 100; ++i) input.push_back({i % 7, i});
  auto run = [&] {
    mapreduce::Simulator sim(mapreduce::Config{});
    return sim.round(
        input,
        [](const std::vector<KeyValue>& shard, std::vector<KeyValue>& emit) {
          for (const KeyValue& kv : shard) emit.push_back(kv);
        },
        [](std::uint64_t key, const std::vector<std::uint64_t>& values,
           std::vector<KeyValue>& emit) {
          std::uint64_t sum = 0;
          for (std::uint64_t v : values) sum += v;
          emit.push_back({key, sum});
        });
  };
  const auto a = run();
  const auto b = run();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].key, b[i].key);
    EXPECT_EQ(a[i].value, b[i].value);
  }
}

}  // namespace
}  // namespace dp
