// The three solver workloads: one instance, 1-thread solves repeated for
// the run's seconds, every answer checked against the exact blossom
// optimum and against the run's first answer. The traced run adds 4-thread
// solves (the solver's results are bitwise thread-count-invariant).
//
//   ram_dense         in-memory substrate; the round loop carries the time.
//   file_stream       a DPEF edge file solved through the file-backed
//                     streaming substrate with prefetch on; the per-round
//                     pass decodes and checksums every block.
//   mapreduce_rounds  MapReduce substrate, 8 machines, round compression 3,
//                     simulator threads = solver threads.

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>

#include "access/in_memory.hpp"
#include "access/mapreduce.hpp"
#include "access/streaming.hpp"
#include "bench.hpp"
#include "graph/generators.hpp"
#include "stream/edge_file.hpp"

namespace perfbench {
namespace {

enum class Access { kRam, kFile, kMapReduce };

struct Shape {
  const char* name;
  Access access;
  std::size_t n, m;            // full size
  std::size_t tiny_n, tiny_m;  // smoke-test size
};

constexpr Shape kShapes[] = {
    {"ram_dense", Access::kRam, 450, 30000, 40, 300},
    {"file_stream", Access::kFile, 600, 20000, 40, 300},
    {"mapreduce_rounds", Access::kMapReduce, 450, 20000, 40, 300},
};

/// At least this many timed solves, however short --seconds is.
constexpr std::size_t kMinSolves = 3;
// Set-up is milliseconds here: many repetitions steady its median.
constexpr int kSetupReps = 21;

/// The workload instance. file_stream keeps its edge file open: the
/// solver's passes read the file, while the Graph is the in-RAM harness
/// the solver itself runs on (see access/substrate.hpp).
struct Instance {
  dp::Graph g;
  std::shared_ptr<dp::stream::EdgeFileStream> file;
};

Instance set_up(const Shape& shape, const RunOptions& opt) {
  const std::size_t n = opt.tiny ? shape.tiny_n : shape.n;
  const std::size_t m = opt.tiny ? shape.tiny_m : shape.m;
  Instance inst;
  if (shape.access != Access::kFile) {
    inst.g = make_graph(n, m, opt.seed);
    return inst;
  }
  // Same draws as make_graph, streamed straight to disk.
  const std::string path = opt.out_dir + "/file_stream.dpef";
  dp::gen::gnm_to_file(path, n, m, sub_seed(opt.seed, 1), 1.0, 16.0,
                       sub_seed(opt.seed, 2));
  inst.file = std::make_shared<dp::stream::EdgeFileStream>(path);
  inst.g = dp::stream::read_edge_file(path);
  return inst;
}

std::unique_ptr<dp::access::Substrate> make_substrate(const Shape& shape,
                                                      const Instance& inst,
                                                      std::size_t threads) {
  switch (shape.access) {
    case Access::kRam:
      return std::make_unique<dp::access::InMemorySubstrate>();
    case Access::kFile: {
      auto sub = std::make_unique<dp::access::StreamingSubstrate>();
      sub->attach_source(dp::stream::EdgeSource(inst.file));
      return sub;
    }
    case Access::kMapReduce: {
      dp::access::MapReduceSubstrate::Config config;
      config.machines = 8;
      config.round_compression = 3;
      config.threads = threads;
      return std::make_unique<dp::access::MapReduceSubstrate>(config);
    }
  }
  return nullptr;
}

struct Solve {
  dp::core::SolverResult result;
  std::unique_ptr<dp::access::Substrate> sub;  // for its getters
  double seconds = 0;
};

Solve solve(const Shape& shape, const Instance& inst, std::size_t threads,
            std::function<bool(const dp::core::RoundCheckpoint&)> on_round =
                {}) {
  Solve s;
  s.sub = make_substrate(shape, inst, threads);
  dp::core::SolverOptions so = solver_options(threads);
  so.substrate = s.sub.get();
  so.on_checkpoint = std::move(on_round);
  s.seconds = time_s([&] { s.result = dp::core::Solver(inst.g, so).solve(); });
  return s;
}

/// Checks of one solve: answer checks plus agreement with the first solve.
std::string check_solve(const Instance& inst, const Solve& s, double opt,
                        const Solve* first) {
  std::string failure = check_result(inst.g, s.result, opt);
  if (failure.empty() && first != nullptr) {
    failure = check_same_answer(first->result, s.result);
  }
  return failure;
}

void timed_run(const Shape& shape, const RunOptions& opt, Report& report) {
  std::vector<double> setups;
  Instance inst;
  for (int r = 0; r < kSetupReps; ++r) {
    inst = Instance{};  // drop the previous file mapping before rewriting
    pin_to_cpu(static_cast<std::size_t>(r));
    setups.push_back(time_s([&] { inst = set_up(shape, opt); }));
  }
  unpin();
  if (inst.file != nullptr) {
    // Reopen unpinned: the prefetch IO thread keeps the CPU mask it was
    // started under.
    const std::string path = inst.file->path();
    inst.file = std::make_shared<dp::stream::EdgeFileStream>(path);
  }
  std::printf("input_fingerprint %016llx n=%zu m=%zu\n",
              static_cast<unsigned long long>(fingerprint(inst.g)),
              inst.g.num_vertices(), inst.g.num_edges());
  const double optimum = exact_optimum(inst.g);

  // The first solve of a process pays for page faults; it is checked but
  // not timed.
  const Solve first = solve(shape, inst, 1);
  report.op(check_solve(inst, first, optimum, nullptr));

  std::vector<double> times;
  const auto start = Clock::now();
  while (times.size() < kMinSolves || seconds_since(start) < opt.seconds) {
    pin_to_cpu(times.size());
    const Solve s = solve(shape, inst, 1);
    unpin();
    times.push_back(s.seconds);
    std::printf("solve %.4f s\n", s.seconds);
    report.op(check_solve(inst, s, optimum, &first));
  }

  report.set("setup_s", median(setups));
  report.set("solve_s", median(times));
  report.set("certified_ratio", first.result.certified_ratio);
  report.set("value_vs_opt", first.result.value / optimum);
}

void traced_run(const Shape& shape, const RunOptions& opt, Report& report) {
  Tracer tracer(opt.seed);
  Instance inst;
  tracer.span_ms("setup", -1, [&] { inst = set_up(shape, opt); });
  std::printf("input_fingerprint %016llx n=%zu m=%zu\n",
              static_cast<unsigned long long>(fingerprint(inst.g)),
              inst.g.num_vertices(), inst.g.num_edges());
  double optimum = 0;
  tracer.span_ms("reference.blossom", -1,
                 [&] { optimum = exact_optimum(inst.g); });

  // An untimed warm-up, then the untraced pair; the traced solve's excess
  // over `plain` is the tracing overhead (span bookkeeping plus the
  // per-round checkpoint the on_checkpoint hook makes the solver build).
  const Solve warm_up = solve(shape, inst, kThreads);
  report.op(check_solve(inst, warm_up, optimum, nullptr));
  const Solve plain = solve(shape, inst, kThreads);
  report.op(check_solve(inst, plain, optimum, &warm_up));
  const Solve single = solve(shape, inst, 1);
  report.op(check_solve(inst, single, optimum, &plain));
  const int solve_span = tracer.open("core.solve");
  const Solve traced =
      solve(shape, inst, kThreads, round_spans(tracer, solve_span));
  tracer.close(solve_span);
  report.op(check_solve(inst, traced, optimum, &plain));

  const int probe_span = tracer.open("probe");
  auto sub = make_substrate(shape, inst, kThreads);
  const std::size_t t =
      traced.result.warm != nullptr ? traced.result.warm->sparsifiers : 8;
  const AccessProbe probe = probe_access(tracer, probe_span, inst.g, *sub, t);
  double scan_gbps = 0;
  if (inst.file != nullptr) {
    dp::stream::EdgeFileStream scan(inst.file->path());
    std::vector<double> secs;
    for (int r = 0; r < 3; ++r) {
      double sum = 0;
      secs.push_back(tracer.span_ms("stream.scan", probe_span, [&] {
                       scan.for_each([&sum](dp::EdgeId, const dp::Edge& e) {
                         sum += e.w;
                       });
                     }) /
                     1e3);
      report.op(sum > 0 ? "" : "edge-file scan read no weight");
    }
    scan_gbps = static_cast<double>(scan.num_edges() *
                                    dp::stream::kEdgeRecordBytes) /
                median(secs) / 1e9;
  }
  tracer.close(probe_span);

  report_solver_layers(report, tracer, inst.g, traced.result, probe,
                       plain.seconds, single.seconds);
  report.set("util.solve_4t_s", plain.seconds);
  report.set("stream.scan_gbps", scan_gbps);
  if (shape.access == Access::kMapReduce) {
    const auto& mr = static_cast<const dp::access::MapReduceSubstrate&>(
        *traced.sub);
    const double sim = static_cast<double>(mr.simulator_rounds());
    double max_msgs = 0, sum_msgs = 0;
    for (const dp::ResourceMeter& shard : mr.shard_meters()) {
      const auto msgs = static_cast<double>(shard.messages());
      max_msgs = std::max(max_msgs, msgs);
      sum_msgs += msgs;
    }
    const double mean_msgs =
        sum_msgs / static_cast<double>(mr.shard_meters().size());
    report.set("mapreduce.sim_rounds", sim);
    report.set("mapreduce.sim_rounds_ratio",
               sim / static_cast<double>(traced.result.outer_rounds));
    report.set("mapreduce.shuffle_mb",
               static_cast<double>(traced.result.meter.shuffle_bytes()) / 1e6);
    report.set("mapreduce.shard_skew",
               mean_msgs > 0 ? max_msgs / mean_msgs : 0);
  }
  report.set("trace.overhead_s", traced.seconds - plain.seconds);
  std::printf("tracing overhead: %+.4f s (traced solve %.4f s, untraced "
              "%.4f s)\n",
              traced.seconds - plain.seconds, traced.seconds, plain.seconds);
  tracer.write_chrome(opt.out_dir + "/trace-" + opt.workload + "-" +
                      std::to_string(opt.seed) + ".json");
}

}  // namespace

bool is_solver_workload(const std::string& name) {
  for (const Shape& s : kShapes) {
    if (name == s.name) return true;
  }
  return false;
}

void run_solver_workload(const RunOptions& opt, Report& report) {
  for (const Shape& shape : kShapes) {
    if (opt.workload != shape.name) continue;
    if (opt.trace) {
      traced_run(shape, opt, report);
    } else {
      timed_run(shape, opt, report);
    }
    report.set("peak_rss_mb", peak_rss_mb());
  }
}

}  // namespace perfbench
