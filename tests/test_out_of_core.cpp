// Tests for the out-of-core solve path (stream/edge_file, the file-backed
// streaming substrate, the access-layer memory budget, MapReduce round
// compression): the DPEF binary format round-trips bitwise and rejects
// every corruption as a typed CheckpointCorrupt; a solve whose pass data
// plane is a file — blocks decoded through the async prefetcher, no
// materialized attribute table — is bitwise identical to the in-memory
// reference at 1/2/8 threads with prefetch on or off; mid-pass kills on
// the file backend recover and checkpoint/resume continues the IO meters
// exactly; the resident-edge budget admits the out-of-core solve while
// rejecting over-budget configurations at the charge point; and round
// compression executes strictly fewer simulator rounds than sampling
// rounds without moving a single output bit.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "access/in_memory.hpp"
#include "access/mapreduce.hpp"
#include "access/streaming.hpp"
#include "core/checkpoint.hpp"
#include "core/solver.hpp"
#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "stream/edge_file.hpp"
#include "util/error.hpp"

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

/// Dense instance: the out-of-core property (resident edge state well
/// below m) only means something when m dominates the per-round samples.
Graph dense_graph() {
  Graph g = gen::gnm(250, 20000, 611);
  gen::weight_uniform(g, 1.0, 12.0, 612);
  return g;
}

FaultPlan noisy_plan() {
  FaultPlan plan;
  plan.config.seed = 0xbeef;
  plan.config.stream_pass_rate = 0.40;
  plan.retry.max_attempts = 8;
  plan.retry.backoff_base_us = 0;
  return plan;
}

std::string temp_path(const char* name) {
  return ::testing::TempDir() + name;
}

std::vector<std::uint8_t> slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<std::uint8_t>(std::istreambuf_iterator<char>(in),
                                   std::istreambuf_iterator<char>());
}

void spit(const std::string& path, const std::vector<std::uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

/// The cross-backend identity contract (same as tests/test_substrate.cpp):
/// everything the algorithm computes is equal bitwise; meters are compared
/// separately where the test is ABOUT the meters.
void expect_same_result(const SolverResult& a, const SolverResult& b,
                        const std::string& label) {
  EXPECT_EQ(a.value, b.value) << label;
  EXPECT_EQ(a.dual_bound, b.dual_bound) << label;
  EXPECT_EQ(a.certified_ratio, b.certified_ratio) << label;
  EXPECT_EQ(a.lambda, b.lambda) << label;
  EXPECT_EQ(a.beta, b.beta) << label;
  EXPECT_EQ(a.outer_rounds, b.outer_rounds) << label;
  EXPECT_EQ(a.oracle_calls, b.oracle_calls) << label;
  ASSERT_EQ(a.history.size(), b.history.size()) << label;
  for (std::size_t r = 0; r < a.history.size(); ++r) {
    EXPECT_EQ(a.history[r].lambda, b.history[r].lambda) << label;
    EXPECT_EQ(a.history[r].beta, b.history[r].beta) << label;
    EXPECT_EQ(a.history[r].best_value, b.history[r].best_value) << label;
    EXPECT_EQ(a.history[r].stored_edges, b.history[r].stored_edges) << label;
    EXPECT_EQ(a.history[r].oracle_calls, b.history[r].oracle_calls) << label;
  }
  ASSERT_EQ(a.b_matching.num_edges(), b.b_matching.num_edges()) << label;
  for (EdgeId e = 0; e < a.b_matching.num_edges(); ++e) {
    ASSERT_EQ(a.b_matching.multiplicity(e), b.b_matching.multiplicity(e))
        << label << " edge " << e;
  }
}

// ---------------------------------------------------------------------------
// DPEF wire format: bitwise round-trip, generator identity, typed
// corruption.

TEST(EdgeFile, RoundTripIsBitwiseLossless) {
  const Graph g = test_graph();
  const std::string path = temp_path("dpef_roundtrip.dpef");
  // block_edges that does NOT divide m: the tail block is partial.
  stream::write_edge_file(path, g, /*block_edges=*/128);

  const Graph back = read_edge_file(path);
  ASSERT_EQ(back.num_vertices(), g.num_vertices());
  ASSERT_EQ(back.num_edges(), g.num_edges());
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    EXPECT_EQ(back.edge(e).u, g.edge(e).u);
    EXPECT_EQ(back.edge(e).v, g.edge(e).v);
    // Weights travel as IEEE-754 bit patterns: compare bits, not values.
    EXPECT_EQ(std::bit_cast<std::uint64_t>(back.edge(e).w),
              std::bit_cast<std::uint64_t>(g.edge(e).w));
  }

  stream::EdgeFileStream file(path);
  EXPECT_EQ(file.num_vertices(), g.num_vertices());
  EXPECT_EQ(file.num_edges(), g.num_edges());
  EXPECT_EQ(file.block_edges(), 128u);
  EXPECT_EQ(file.num_blocks(), (g.num_edges() + 127) / 128);
  // Sequential scan and random access agree with the source, in order.
  EdgeId next = 0;
  file.for_each([&](EdgeId id, const Edge& e) {
    ASSERT_EQ(id, next++);
    EXPECT_EQ(e.u, g.edge(id).u);
    EXPECT_EQ(e.v, g.edge(id).v);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(e.w),
              std::bit_cast<std::uint64_t>(g.edge(id).w));
  });
  EXPECT_EQ(next, g.num_edges());
  for (const EdgeId id : {EdgeId{0}, EdgeId{127}, EdgeId{128}, EdgeId{899}}) {
    const Edge e = file.edge(id);
    EXPECT_EQ(e.u, g.edge(id).u);
    EXPECT_EQ(e.v, g.edge(id).v);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(e.w),
              std::bit_cast<std::uint64_t>(g.edge(id).w));
  }
  std::remove(path.c_str());
}

TEST(EdgeFile, GnmToFileMatchesMaterializedWriterByteForByte) {
  // The streaming generator (never holds a Graph) and the materialized
  // write must produce the SAME file: same records, same blocks, same
  // checksums.
  const std::string direct = temp_path("dpef_gnm_direct.dpef");
  const std::string via_graph = temp_path("dpef_gnm_graph.dpef");
  const std::size_t written =
      gen::gnm_to_file(direct, 120, 900, 511, 1.0, 12.0, 512);
  Graph g = gen::gnm(120, 900, 511);
  gen::weight_uniform(g, 1.0, 12.0, 512);
  EXPECT_EQ(written, g.num_edges());
  write_edge_file(via_graph, g);

  const std::vector<std::uint8_t> a = slurp(direct);
  const std::vector<std::uint8_t> b = slurp(via_graph);
  ASSERT_FALSE(a.empty());
  EXPECT_EQ(a, b);
  std::remove(direct.c_str());
  std::remove(via_graph.c_str());
}

TEST(EdgeFile, CorruptionIsATypedErrorNeverAWrongGraph) {
  const Graph g = test_graph();
  const std::string path = temp_path("dpef_corrupt.dpef");
  stream::write_edge_file(path, g, /*block_edges=*/128);
  const std::vector<std::uint8_t> pristine = slurp(path);
  ASSERT_GT(pristine.size(), stream::kEdgeFileHeaderBytes);

  // Truncation and padding: the exact-size check rejects both at open.
  std::vector<std::uint8_t> bytes = pristine;
  bytes.pop_back();
  spit(path, bytes);
  EXPECT_THROW(stream::EdgeFileStream{path}, CheckpointCorrupt);
  bytes = pristine;
  bytes.push_back(0);
  spit(path, bytes);
  EXPECT_THROW(stream::EdgeFileStream{path}, CheckpointCorrupt);

  // Every header byte is covered by the header checksum (or IS the magic /
  // checksum): flipping any of them fails at open.
  for (const std::size_t pos : {std::size_t{0}, std::size_t{4},
                                std::size_t{9}, std::size_t{17},
                                std::size_t{25}, std::size_t{33}}) {
    bytes = pristine;
    bytes[pos] ^= 0x40;
    spit(path, bytes);
    EXPECT_THROW(stream::EdgeFileStream{path}, CheckpointCorrupt)
        << "header byte " << pos;
    EXPECT_THROW(read_edge_file(path), CheckpointCorrupt)
        << "header byte " << pos;
  }

  // A flipped payload bit passes the header check but dies at the first
  // scan that decodes the damaged block — never a silently wrong edge.
  bytes = pristine;
  bytes[stream::kEdgeFileHeaderBytes + 5] ^= 0x01;
  spit(path, bytes);
  EXPECT_THROW(read_edge_file(path), CheckpointCorrupt);
  {
    stream::EdgeFileStream file(path);  // header is intact: open succeeds
    EXPECT_THROW(file.for_each([](EdgeId, const Edge&) {}), CheckpointCorrupt);
  }

  // An abandoned writer (never close()d) leaves a zeroed header: the file
  // can never pass validation as a complete input.
  {
    stream::EdgeFileWriter writer(path, g.num_vertices());
    writer.add_edge(0, 1, 2.0);
  }
  EXPECT_THROW(stream::EdgeFileStream{path}, CheckpointCorrupt);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// File-backed solve: bitwise identity, source validation, IO meters.

TEST(OutOfCore, FileBackedSolveIsBitwiseIdenticalToInMemory) {
  const Graph g = test_graph();
  const std::string path = temp_path("dpef_solve.dpef");
  stream::write_edge_file(path, g, /*block_edges=*/128);

  SolverOptions ref_opt = base_options();
  ref_opt.oracle.threads = 1;
  const SolverResult ref = solve_matching(g, ref_opt);
  EXPECT_GT(ref.value, 0.0);

  for (const bool prefetch : {true, false}) {
    for (const std::size_t threads : {1, 2, 8}) {
      stream::EdgeFileStream::Options fopt;
      fopt.prefetch = prefetch;
      auto file = std::make_shared<stream::EdgeFileStream>(path, fopt);
      access::StreamingSubstrate sub;
      sub.attach_source(stream::EdgeSource(file));
      SolverOptions opt = base_options();
      opt.oracle.threads = threads;
      opt.substrate = &sub;
      const SolverResult run = solve_matching(g, opt);
      const std::string label = std::string("file-backed prefetch=") +
                                (prefetch ? "on" : "off") +
                                " threads=" + std::to_string(threads);
      expect_same_result(ref, run, label);

      // The pass data plane really was the file: every round-iteration
      // pass decoded the blocks and charged their bytes. No attribute
      // table exists in file mode.
      const ResourceMeter& meter = sub.meter();
      EXPECT_GT(meter.io_bytes(), 0u) << label;
      EXPECT_EQ(meter.passes(), run.outer_rounds + 1) << label;
      EXPECT_TRUE(sub.table().empty()) << label;
      EXPECT_GT(meter.io_stalls() + meter.prefetch_hits(), 0u) << label;
      if (!prefetch) {
        EXPECT_EQ(meter.prefetch_hits(), 0u) << label;
      }
      // Resident edge state: the block buffers, charged for the whole
      // solve, plus the per-round sample cache — bounded by the model's
      // own stored-edge peak, never the file. (On this deliberately tiny
      // instance the samples are most of m; the budget test below uses an
      // instance where stored state is genuinely << m.)
      EXPECT_GE(meter.resident_edges(), file->resident_buffer_edges())
          << label;
      EXPECT_LE(meter.peak_resident_edges(),
                file->resident_buffer_edges() + meter.peak_edges())
          << label;
    }
  }
  std::remove(path.c_str());
}

TEST(OutOfCore, FileSourceOnRandomAccessSubstrateIsATypedConfigError) {
  const Graph g = test_graph();
  const std::string path = temp_path("dpef_reject.dpef");
  stream::write_edge_file(path, g);
  auto file = std::make_shared<stream::EdgeFileStream>(path);

  // The in-memory reference and the MapReduce simulator both require
  // random access to the bound input: attaching a file is rejected
  // immediately, typed, with the access-layer site.
  access::InMemorySubstrate in_memory;
  access::MapReduceSubstrate map_reduce;
  for (access::Substrate* sub :
       {static_cast<access::Substrate*>(&in_memory),
        static_cast<access::Substrate*>(&map_reduce)}) {
    EXPECT_FALSE(sub->accepts_file_source());
    try {
      sub->attach_source(stream::EdgeSource(file));
      FAIL() << sub->name() << ": expected ConfigError";
    } catch (const ConfigError& err) {
      EXPECT_EQ(err.context().site, "access.source") << sub->name();
    }
  }

  // The streaming substrate accepts the file — but bind() rejects a file
  // that does not describe the bound graph (n/m mismatch would silently
  // desynchronize retained indices from records).
  access::StreamingSubstrate streaming;
  EXPECT_TRUE(streaming.accepts_file_source());
  streaming.attach_source(stream::EdgeSource(file));

  Graph other = gen::gnm(60, 400, 531);
  gen::weight_uniform(other, 1.0, 8.0, 532);
  SolverOptions opt = base_options();
  opt.substrate = &streaming;
  try {
    solve_matching(other, opt);
    FAIL() << "expected ConfigError for mismatched file";
  } catch (const ConfigError& err) {
    EXPECT_EQ(err.context().site, "access.source");
  }
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Fault tolerance and checkpoint/resume on the file backend.

TEST(OutOfCore, MidPassFaultsAreInvisibleToTheResult) {
  const Graph g = test_graph();
  const std::string path = temp_path("dpef_faults.dpef");
  stream::write_edge_file(path, g, /*block_edges=*/128);

  SolverOptions ref_opt = base_options();
  ref_opt.oracle.threads = 1;
  const SolverResult clean = solve_matching(g, ref_opt);

  for (const std::size_t threads : {1, 2, 8}) {
    auto file = std::make_shared<stream::EdgeFileStream>(path);
    access::StreamingSubstrate sub;
    sub.attach_source(stream::EdgeSource(file));
    SolverOptions opt = base_options();
    opt.oracle.threads = threads;
    opt.substrate = &sub;
    opt.faults = noisy_plan();
    const SolverResult faulty = solve_matching(g, opt);
    const std::string label =
        "file-backed faulty threads=" + std::to_string(threads);
    expect_same_result(clean, faulty, label);
    EXPECT_EQ(faulty.status, SolverStatus::kComplete) << label;
    // Every injected mid-pass death re-walked its pass (and re-read its
    // blocks: the fault offset is block-aligned on the file backend).
    EXPECT_GT(sub.meter().faults(), 0u) << label;
  }
  std::remove(path.c_str());
}

TEST(OutOfCore, KillAndResumeContinuesTheIoMetersExactly) {
  const Graph g = test_graph();
  const std::string path = temp_path("dpef_resume.dpef");
  stream::write_edge_file(path, g, /*block_edges=*/128);

  // Uninterrupted fault-free file-backed run: the meter reference.
  auto whole_file = std::make_shared<stream::EdgeFileStream>(path);
  access::StreamingSubstrate whole_sub;
  whole_sub.attach_source(stream::EdgeSource(whole_file));
  SolverOptions whole_opt = base_options();
  whole_opt.substrate = &whole_sub;
  whole_opt.on_checkpoint = [](const RoundCheckpoint&) { return true; };
  const SolverResult whole = solve_matching(g, whole_opt);
  ASSERT_GT(whole.outer_rounds, 1u);

  // Kill after round 1 — through the serialized wire format — then resume
  // on a FRESH substrate and a FRESH stream over the same file.
  std::vector<std::uint8_t> blob;
  auto killed_file = std::make_shared<stream::EdgeFileStream>(path);
  access::StreamingSubstrate killed_sub;
  killed_sub.attach_source(stream::EdgeSource(killed_file));
  SolverOptions killed_opt = base_options();
  killed_opt.substrate = &killed_sub;
  killed_opt.on_checkpoint = [&blob](const RoundCheckpoint& ck) {
    if (ck.next_round == 1) {
      blob = ck.serialize();
      return false;
    }
    return true;
  };
  const SolverResult killed = solve_matching(g, killed_opt);
  EXPECT_EQ(killed.status, SolverStatus::kInterrupted);
  ASSERT_FALSE(blob.empty());

  const RoundCheckpoint ck = RoundCheckpoint::deserialize(blob);
  auto resumed_file = std::make_shared<stream::EdgeFileStream>(path);
  access::StreamingSubstrate resumed_sub;
  resumed_sub.attach_source(stream::EdgeSource(resumed_file));
  SolverOptions resumed_opt = base_options();
  resumed_opt.substrate = &resumed_sub;
  resumed_opt.on_checkpoint = [](const RoundCheckpoint&) { return true; };
  Solver solver(g, resumed_opt);
  const SolverResult resumed = solver.solve(ck);
  expect_same_result(whole, resumed, "file-backed kill/resume");
  EXPECT_EQ(resumed.status, SolverStatus::kComplete);

  // The checkpoint's meter block restores the IO accounting: the interrupted +
  // resumed meters equal the uninterrupted run's in every counter. (The
  // hit/stall SPLIT is timing-dependent by design; their sum — block
  // fetches — is not.)
  using M = ResourceMeter;
  const M& a = whole_sub.meter();
  const M& b = resumed_sub.meter();
  for (std::size_t c = 0; c < M::kCounterCount; ++c) {
    if (c == M::kIoStalls || c == M::kPrefetchHits) continue;
    EXPECT_EQ(a.counters()[c], b.counters()[c]) << M::kCounterNames[c];
  }
  EXPECT_EQ(a.io_stalls() + a.prefetch_hits(),
            b.io_stalls() + b.prefetch_hits());
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Memory budget: admitted out-of-core solves, typed rejection over budget.

TEST(OutOfCore, MemoryBudgetAdmitsFileBackedAndRejectsOverBudget) {
  const Graph g = dense_graph();
  const std::string path = temp_path("dpef_budget.dpef");
  stream::write_edge_file(path, g);  // default 1024-edge blocks

  // Sparser sampling (fewer sparsifiers, higher space exponent) keeps the
  // per-round stored union — and with it the file backend's sample
  // cache — below m, so a budget strictly smaller than the file admits
  // the solve.
  SolverOptions sparse = base_options();
  sparse.eps = 0.25;
  sparse.p = 3.0;
  sparse.sparsifiers_per_round = 2;

  SolverOptions ref_opt = sparse;
  ref_opt.oracle.threads = 1;
  const SolverResult ref = solve_matching(g, ref_opt);

  // Measure the file-backed solve's true resident peak (block buffers +
  // per-round sample cache), unbudgeted.
  std::size_t peak = 0;
  {
    auto file = std::make_shared<stream::EdgeFileStream>(path);
    access::StreamingSubstrate sub;
    sub.attach_source(stream::EdgeSource(file));
    SolverOptions opt = sparse;
    opt.substrate = &sub;
    const SolverResult run = solve_matching(g, opt);
    expect_same_result(ref, run, "file-backed unbudgeted");
    peak = sub.meter().peak_resident_edges();
  }
  // The out-of-core property: the access layer never held the whole file
  // — so a budget strictly below the file's edge count (the file is
  // LARGER than the budget) still admits the solve.
  ASSERT_GT(peak, 0u);
  ASSERT_LT(peak, g.num_edges());

  // Budget == measured peak: admitted, bitwise identical, peak respected.
  {
    auto file = std::make_shared<stream::EdgeFileStream>(path);
    access::StreamingSubstrate sub;
    sub.attach_source(stream::EdgeSource(file));
    SolverOptions opt = sparse;
    opt.substrate = &sub;
    opt.memory_budget_edges = peak;
    const SolverResult run = solve_matching(g, opt);
    expect_same_result(ref, run, "file-backed budgeted");
    EXPECT_LE(sub.meter().peak_resident_edges(), peak);
  }

  // Budget one below the deterministic peak: the charge that would cross
  // it is a typed ConfigError at the access-layer site — never an OOM.
  {
    auto file = std::make_shared<stream::EdgeFileStream>(path);
    access::StreamingSubstrate sub;
    sub.attach_source(stream::EdgeSource(file));
    SolverOptions opt = sparse;
    opt.substrate = &sub;
    opt.memory_budget_edges = peak - 1;
    try {
      solve_matching(g, opt);
      FAIL() << "expected ConfigError (budget exceeded)";
    } catch (const ConfigError& err) {
      EXPECT_EQ(err.context().site, "access.budget");
      EXPECT_NE(std::string(err.what()).find("memory budget"),
                std::string::npos);
    }
  }

  // An in-RAM substrate cannot fit its attribute table under a budget
  // below the retained count: the bind-time table charge is the typed
  // error that says "use the file-backed path".
  {
    access::InMemorySubstrate sub;
    SolverOptions opt = sparse;
    opt.substrate = &sub;
    opt.memory_budget_edges = 64;
    try {
      solve_matching(g, opt);
      FAIL() << "expected ConfigError (table over budget)";
    } catch (const ConfigError& err) {
      EXPECT_EQ(err.context().site, "access.budget");
    }
  }
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Round compression: fewer simulator rounds, identical outputs.

TEST(OutOfCore, RoundCompressionExecutesFewerSimulatorRounds) {
  const Graph g = dense_graph();

  access::MapReduceSubstrate plain;
  SolverOptions plain_opt = base_options();
  plain_opt.eps = 0.1;
  plain_opt.substrate = &plain;
  const SolverResult uncompressed = solve_matching(g, plain_opt);
  ASSERT_GT(uncompressed.outer_rounds, 1u);
  EXPECT_EQ(plain.simulator_rounds(), uncompressed.outer_rounds);

  for (const std::size_t threads : {1, 2, 8}) {
    access::MapReduceSubstrate::Config config;
    config.round_compression = 3;
    access::MapReduceSubstrate compressed(config);
    SolverOptions opt = base_options();
    opt.eps = 0.1;
    opt.oracle.threads = threads;
    opt.substrate = &compressed;
    const SolverResult run = solve_matching(g, opt);
    const std::string label =
        "round-compressed threads=" + std::to_string(threads);

    // Identical outputs: compression moves the round accounting only.
    expect_same_result(uncompressed, run, label);

    // Strictly fewer REAL simulator rounds than sampling rounds, with the
    // savings on the meter: executed + saved = sampling rounds drawn.
    EXPECT_TRUE(compressed.compression_active()) << label;
    EXPECT_LT(compressed.simulator_rounds(), run.outer_rounds) << label;
    EXPECT_EQ(compressed.meter().rounds(), compressed.simulator_rounds())
        << label;
    EXPECT_EQ(compressed.meter().rounds() + compressed.meter().saved_rounds(),
              run.outer_rounds)
        << label;
    EXPECT_GT(compressed.meter().saved_passes(), 0u) << label;
    // The batch pre-draw ran under the reducer cap and shipped real
    // shuffle volume, byte-accounted.
    EXPECT_GT(compressed.meter().shuffle_bytes(), 0u) << label;
    EXPECT_GT(compressed.reducer_memory(), 0u) << label;

    // Per-machine breakdown: the vertex-range shards did the sweeping and
    // the mapping; their emission totals are bounded by the simulator's
    // global shuffle accounting.
    const std::vector<ResourceMeter>& shards = compressed.shard_meters();
    ASSERT_EQ(shards.size(), config.machines) << label;
    std::size_t shard_messages = 0;
    std::size_t shard_passes = 0;
    for (const ResourceMeter& sm : shards) {
      shard_messages += sm.messages();
      shard_passes += sm.passes();
    }
    EXPECT_GT(shard_messages, 0u) << label;
    EXPECT_GT(shard_passes, 0u) << label;
    EXPECT_LE(shard_messages, compressed.meter().messages()) << label;
  }
}

// The model's accounting of one fixed compressed solve, pinned: shuffle
// traffic is what the mappers emit (plus fault re-fetches), never what the
// reducers return, so no change to the reducer output format may move
// these counts. Boost 1.5 keeps the envelopes below 1 (so the supports
// are genuinely sampled), and most rounds outgrow their envelopes: the
// solve runs two cached rounds (4 and 5) between early fresh batches. At
// boost 1.3 every round of this solve outgrows its envelope, and nothing
// is compressed. The counts follow the solve's trajectory, so a libm that
// moves the trajectory moves them too.
TEST(OutOfCore, CompressedSolveModelAccountingIsPinned) {
  const Graph g = dense_graph();
  access::MapReduceSubstrate::Config config;
  config.round_compression = 3;
  config.compression_boost = 1.5;
  access::MapReduceSubstrate compressed(config);
  SolverOptions opt = base_options();
  opt.eps = 0.1;
  opt.max_outer_rounds = 8;
  opt.substrate = &compressed;
  const SolverResult run = solve_matching(g, opt);
  const ResourceMeter& meter = compressed.meter();
  ASSERT_EQ(run.outer_rounds, 8u);
  EXPECT_EQ(meter.messages(), 1259891u);
  EXPECT_EQ(meter.shuffle_bytes(), 20158256u);
  EXPECT_EQ(meter.rounds(), 6u);
  EXPECT_EQ(meter.passes(), 6u);
  EXPECT_EQ(meter.saved_rounds(), 2u);
  EXPECT_EQ(meter.saved_passes(), 2u);
}

}  // namespace
}  // namespace dp::core
