// Out-of-core trajectory: the SAME solve executed against a DPEF edge
// file through the file-backed streaming substrate (under a resident-edge
// budget strictly below the file's edge count) and against the MapReduce
// substrate with round compression.
//
// Self-gates (exit 1 on violation):
//   - the file-backed SolverResult is bitwise identical to the in-memory
//     reference at 1/2/8 threads;
//   - the budgeted run's peak resident edge state stays under a budget
//     smaller than the file (the out-of-core contract);
//   - round compression executes strictly fewer simulator rounds than
//     sampling rounds while the SolverResult stays bitwise identical.
//
// Columns: bytes_per_edge (total IO bytes / m — deterministic: passes are
// a resource count) and sim_rounds_ratio (executed simulator rounds /
// sampling rounds; 1.0 uncompressed, < 1 under compression) are
// deterministic and CI-gated LOWER-IS-BETTER. prefetch_hit_rate and
// stall_share are written as the constants 0 and 1 (passes decode every
// block on the pass thread, so nothing is prefetched) only to keep the
// committed baseline's row layout; drop both at its next refresh. Mode 0
// (the prefetching reader) is gone; the file rows are mode 1. --quick is
// accepted for scripts/check.sh symmetry but changes nothing: the gated
// columns are instance-dependent, so the row set must match the committed
// baseline, and the instance is already check.sh-sized (~2 s end to end).

#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "access/in_memory.hpp"
#include "access/mapreduce.hpp"
#include "access/streaming.hpp"
#include "bench_common.hpp"
#include "core/solver.hpp"
#include "graph/generators.hpp"
#include "stream/edge_file.hpp"
#include "util/timer.hpp"

namespace {

using namespace dp;

core::SolverOptions file_options() {
  core::SolverOptions opts;
  opts.eps = 0.25;
  opts.p = 3.0;
  opts.seed = 101;
  opts.max_outer_rounds = 3;
  opts.sparsifiers_per_round = 2;
  return opts;
}

core::SolverOptions mapreduce_options() {
  core::SolverOptions opts;
  opts.eps = 0.1;
  opts.p = 2.0;
  opts.seed = 101;
  opts.max_outer_rounds = 3;
  opts.sparsifiers_per_round = 4;
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

int gate(bool ok, const char* what) {
  if (!ok) std::fprintf(stderr, "FATAL: %s\n", what);
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  // Accepted, unused: the row set must match the baseline (see header).
  (void)(argc > 1 && std::strcmp(argv[1], "--quick") == 0);
  bench::header(
      "Out-of-core solve (mmap-backed edge streams)",
      "one solve over a DPEF edge file: bitwise-identical to in-memory "
      "under a budget smaller than the file, IO bytes and stalls "
      "metered, and MapReduce round compression executing fewer "
      "simulator rounds");

  const std::size_t n = 250;
  const std::size_t m = 20000;
  Graph g = gen::gnm(n, m, 611);
  gen::weight_uniform(g, 1.0, 12.0, 612);
  const std::string path = "bench_outofcore.dpef";
  stream::write_edge_file(path, g);

  core::SolverOptions ref_opts = file_options();
  ref_opts.oracle.threads = 1;
  const core::SolverResult ref_result = core::solve_matching(g, ref_opts);
  const Fingerprint ref(ref_result);

  // Measure the file-backed solve's true resident peak, unbudgeted; every
  // budgeted run below executes under this cap, which is < m.
  std::size_t budget = 0;
  {
    auto file = std::make_shared<stream::EdgeFileStream>(path);
    access::StreamingSubstrate sub;
    sub.attach_source(stream::EdgeSource(file));
    core::SolverOptions opts = file_options();
    opts.substrate = &sub;
    const Fingerprint run(core::solve_matching(g, opts));
    if (gate(run == ref, "file-backed solve diverges from in-memory") ||
        gate(sub.meter().peak_resident_edges() < m,
             "file-backed resident peak not below the file's edge count")) {
      return 1;
    }
    budget = sub.meter().peak_resident_edges();
  }

  bench::BenchReport report(
      "outofcore",
      {"mode", "threads", "n", "m", "seconds", "bytes_per_edge",
       "prefetch_hit_rate", "stall_share", "peak_resident",
       "sim_rounds_ratio"});
  std::printf("%-14s %-7s %10s %14s %13s %16s\n", "mode", "threads",
              "seconds", "bytes_per_edge", "peak_resident",
              "sim_rounds_ratio");

  // ---- File-backed rows (mode 1). ----
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2},
                                    std::size_t{8}}) {
    auto file = std::make_shared<stream::EdgeFileStream>(path);
    access::StreamingSubstrate sub;
    sub.attach_source(stream::EdgeSource(file));
    core::SolverOptions opts = file_options();
    opts.oracle.threads = threads;
    opts.substrate = &sub;
    opts.memory_budget_edges = budget;
    WallTimer timer;
    const core::SolverResult result = core::solve_matching(g, opts);
    const double sec = timer.seconds();
    const Fingerprint run(result);
    if (gate(run == ref, "budgeted file-backed solve diverges") ||
        gate(sub.meter().peak_resident_edges() <= budget,
             "budgeted run exceeded its resident budget")) {
      return 1;
    }
    const ResourceMeter& meter = sub.meter();
    const double bytes_per_edge =
        static_cast<double>(meter.io_bytes()) / static_cast<double>(m);
    std::printf("%-14s %-7zu %10.3f %14.2f %13zu %16.3f\n", "file", threads,
                sec, bytes_per_edge, meter.peak_resident_edges(), 1.0);
    report.add({1.0, static_cast<double>(threads), static_cast<double>(n),
                static_cast<double>(m), sec, bytes_per_edge, 0.0, 1.0,
                static_cast<double>(meter.peak_resident_edges()), 1.0});
  }
  std::printf("determinism: file-backed SolverResult bitwise identical to "
              "in-memory under a %zu-edge budget (file holds %zu)\n",
              budget, m);

  // ---- MapReduce rows: uncompressed (mode 2) vs compressed (mode 3). ----
  core::SolverOptions mr_ref_opts = mapreduce_options();
  mr_ref_opts.oracle.threads = 1;
  const Fingerprint mr_ref(core::solve_matching(g, mr_ref_opts));
  for (const std::size_t compression :
       {std::size_t{1}, std::size_t{3}}) {
    access::MapReduceSubstrate::Config config;
    config.round_compression = compression;
    access::MapReduceSubstrate sub(config);
    core::SolverOptions opts = mapreduce_options();
    opts.substrate = &sub;
    WallTimer timer;
    const core::SolverResult result = core::solve_matching(g, opts);
    const double sec = timer.seconds();
    const Fingerprint run(result);
    if (gate(run == mr_ref, "round-compressed solve diverges")) return 1;
    if (compression > 1 &&
        gate(sub.simulator_rounds() < result.outer_rounds,
             "round compression saved no simulator rounds")) {
      return 1;
    }
    const double ratio = result.outer_rounds == 0
                             ? 1.0
                             : static_cast<double>(sub.simulator_rounds()) /
                                   static_cast<double>(result.outer_rounds);
    const char* label = compression > 1 ? "mr+compress" : "mr";
    std::printf("%-14s %-7d %10.3f %14.2f %13zu %16.3f\n", label, 0, sec,
                0.0, sub.meter().peak_resident_edges(), ratio);
    report.add({compression > 1 ? 3.0 : 2.0, 0.0, static_cast<double>(n),
                static_cast<double>(m), sec, 0.0, 0.0, 0.0,
                static_cast<double>(sub.meter().peak_resident_edges()),
                ratio});
  }
  std::printf("determinism: round-compressed MapReduce solve bitwise "
              "identical with fewer simulator rounds than sampling "
              "rounds\n");

  std::remove(path.c_str());
  return 0;
}
