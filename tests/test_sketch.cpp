// Tests for the sketch substrate: 1-sparse recovery, l0-sampling and AGM
// graph sketches (the mirror DynamicGraph keeps of its edge set).

#include <gtest/gtest.h>

#include <set>

#include "graph/generators.hpp"
#include "sketch/agm.hpp"
#include "sketch/l0sampler.hpp"
#include "sketch/onesparse.hpp"
#include "util/rng.hpp"

namespace dp {
namespace {

TEST(OneSparse, RecoversSingleton) {
  OneSparse s(12345);
  s.update(42, 7);
  const auto rec = s.recover();
  ASSERT_TRUE(rec.has_value());
  EXPECT_EQ(rec->index, 42u);
  EXPECT_EQ(rec->count, 7);
}

TEST(OneSparse, RejectsTwoSparse) {
  Rng rng(1);
  int false_positives = 0;
  for (int trial = 0; trial < 200; ++trial) {
    OneSparse s(rng.uniform(MersenneField::kPrime - 2) + 1);
    s.update(10 + trial, 1);
    s.update(20 + trial, 1);
    if (s.recover().has_value()) ++false_positives;
  }
  EXPECT_LE(false_positives, 1);
}

TEST(OneSparse, CancellationToZero) {
  OneSparse s(999);
  s.update(5, 3);
  s.update(5, -3);
  EXPECT_TRUE(s.is_zero());
  EXPECT_FALSE(s.recover().has_value());
}

TEST(OneSparse, MergeIsLinear) {
  OneSparse a(777), b(777);
  a.update(9, 2);
  b.update(9, 3);
  a.merge(b);
  const auto rec = a.recover();
  ASSERT_TRUE(rec.has_value());
  EXPECT_EQ(rec->count, 5);
}

TEST(L0Sampler, SamplesNonzeroCoordinate) {
  Rng rng(3);
  const L0SamplerSeed seed(20, 8, rng);
  L0Sampler sampler(seed);
  std::set<std::uint64_t> support{10, 500, 123456, 9999999};
  for (std::uint64_t idx : support) sampler.update(idx, 1);
  const auto rec = sampler.sample();
  ASSERT_TRUE(rec.has_value());
  EXPECT_TRUE(support.count(rec->index)) << rec->index;
}

TEST(L0Sampler, ZeroVectorReturnsNothing) {
  Rng rng(4);
  const L0SamplerSeed seed(16, 4, rng);
  L0Sampler sampler(seed);
  EXPECT_FALSE(sampler.sample().has_value());
  sampler.update(77, 1);
  sampler.update(77, -1);
  EXPECT_FALSE(sampler.sample().has_value());
}

TEST(L0Sampler, MergeCancelsSharedSupport) {
  Rng rng(5);
  const L0SamplerSeed seed(20, 8, rng);
  L0Sampler a(seed), b(seed);
  a.update(100, 1);
  a.update(200, 1);
  b.update(100, -1);  // cancels after merge
  a.merge(b);
  const auto rec = a.sample();
  ASSERT_TRUE(rec.has_value());
  EXPECT_EQ(rec->index, 200u);
}

TEST(L0Sampler, SuccessRateHigh) {
  Rng rng(6);
  const L0SamplerSeed seed(24, 8, rng);
  int successes = 0;
  for (int trial = 0; trial < 50; ++trial) {
    L0Sampler sampler(seed);
    // Random support of size ~ trial.
    Rng inner(trial + 1000);
    std::set<std::uint64_t> support;
    for (int i = 0; i <= trial; ++i) support.insert(inner.uniform(1 << 20));
    for (std::uint64_t idx : support) sampler.update(idx, 1);
    const auto rec = sampler.sample();
    if (rec.has_value() && support.count(rec->index)) ++successes;
  }
  EXPECT_GE(successes, 45);
}

TEST(AgmSketch, SamplesBoundaryEdge) {
  // Two cliques joined by a single edge; the boundary of clique 1 is that
  // edge alone, so sampling must return it.
  Graph g(8);
  for (Vertex i = 0; i < 4; ++i) {
    for (Vertex j = i + 1; j < 4; ++j) g.add_edge(i, j);
  }
  for (Vertex i = 4; i < 8; ++i) {
    for (Vertex j = i + 1; j < 8; ++j) g.add_edge(i, j);
  }
  g.add_edge(0, 4);
  Rng rng(7);
  const L0SamplerSeed seed(16, 8, rng);
  const AgmSketch sketch(g, seed);
  std::vector<char> in_set{1, 1, 1, 1, 0, 0, 0, 0};
  const auto edge = sketch.sample_boundary(in_set);
  ASSERT_TRUE(edge.has_value());
  const auto lo = std::min(edge->u, edge->v);
  const auto hi = std::max(edge->u, edge->v);
  EXPECT_EQ(lo, 0u);
  EXPECT_EQ(hi, 4u);
}

TEST(AgmSketch, WordsAccounted) {
  const Graph g = gen::gnm(20, 40, 8);
  Rng rng(8);
  const L0SamplerSeed seed(12, 4, rng);
  ResourceMeter meter;
  const AgmSketch sketch(g, seed, &meter);
  EXPECT_EQ(meter.sketch_words(), sketch.words());
  EXPECT_GT(sketch.words(), 0u);
}

}  // namespace
}  // namespace dp
