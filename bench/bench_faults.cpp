// Fault-tolerance trajectory: the SAME solve executed fault-free, under
// deterministic fault injection (mid-pass streaming deaths, MapReduce
// mapper/reducer task failures), and as a killed-then-resumed run through
// the round-checkpoint wire format. Self-gates the robustness contract —
// the SolverResult must be bitwise identical in all three executions, on
// every substrate at 1/2/8 threads — then emits BENCH_faults.json with the
// recovery accounting (injected faults, extra passes / shuffle messages,
// recovery units per fault) and the measured checkpoint overhead (time
// spent serializing inside the hook over total solve wall, min-of-repeats)
// with its <5% soft gate and checkpoint size.

#include <cstdio>
#include <string>
#include <vector>

#include "access/in_memory.hpp"
#include "access/mapreduce.hpp"
#include "access/streaming.hpp"
#include "bench_common.hpp"
#include "core/checkpoint.hpp"
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

FaultPlan fault_plan() {
  // Rates far above the 1% floor so a four-round solve reliably draws
  // failures at every site.
  FaultPlan plan;
  plan.config.seed = 0xfa57;
  plan.config.stream_pass_rate = 0.30;
  plan.config.mapper_rate = 0.20;
  plan.config.reducer_rate = 0.10;
  plan.retry.max_attempts = 10;
  return plan;
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

access::Substrate* pick(int which, access::InMemorySubstrate& a,
                        access::StreamingSubstrate& b,
                        access::MapReduceSubstrate& c) {
  return which == 0 ? static_cast<access::Substrate*>(&a)
         : which == 1 ? static_cast<access::Substrate*>(&b)
                      : &c;
}

}  // namespace

int main() {
  bench::header(
      "Fault-tolerant solve (robustness)",
      "deterministic fault injection + kill-after-round-k resume: bitwise "
      "identical SolverResult, honest recovery accounting, <5% checkpoint "
      "overhead");

  // ---- Self-gate: clean == faulty == killed+resumed, everywhere. ----
  {
    Graph g = gen::gnm(300, 4000, 4001);
    gen::weight_uniform(g, 1.0, 16.0, 4002);
    core::SolverOptions ref_opts = solve_options();
    ref_opts.oracle.threads = 1;
    const Fingerprint ref(core::solve_matching(g, ref_opts));
    for (const std::size_t threads : {std::size_t{1}, std::size_t{2},
                                      std::size_t{8}}) {
      for (int which = 0; which < 3; ++which) {
        // Faulty uninterrupted run.
        access::InMemorySubstrate im1;
        access::StreamingSubstrate st1;
        access::MapReduceSubstrate mr1;
        access::Substrate* sub = pick(which, im1, st1, mr1);
        core::SolverOptions opts = solve_options();
        opts.oracle.threads = threads;
        opts.substrate = sub;
        opts.faults = fault_plan();
        std::vector<std::uint8_t> blob;
        opts.on_checkpoint = [&blob](const core::RoundCheckpoint& ck) {
          if (ck.next_round == 1) blob = ck.serialize();
          return true;
        };
        const core::SolverResult faulty = core::solve_matching(g, opts);
        if (!(Fingerprint(faulty) == ref) ||
            faulty.status != core::SolverStatus::kComplete) {
          std::fprintf(stderr,
                       "FATAL: faulty run diverges on substrate %s at %zu "
                       "threads\n",
                       sub->name(), threads);
          return 1;
        }
        // Kill-after-round-1 resume through the wire format.
        if (blob.empty()) {
          std::fprintf(stderr, "FATAL: no checkpoint captured on %s\n",
                       sub->name());
          return 1;
        }
        const core::RoundCheckpoint ck =
            core::RoundCheckpoint::deserialize(blob);
        access::InMemorySubstrate im2;
        access::StreamingSubstrate st2;
        access::MapReduceSubstrate mr2;
        access::Substrate* sub2 = pick(which, im2, st2, mr2);
        core::SolverOptions resume_opts = solve_options();
        resume_opts.oracle.threads = threads;
        resume_opts.substrate = sub2;
        resume_opts.faults = fault_plan();
        core::Solver solver(g, resume_opts);
        const Fingerprint resumed(solver.solve(ck));
        if (!(resumed == ref)) {
          std::fprintf(stderr,
                       "FATAL: resumed run diverges on substrate %s at %zu "
                       "threads\n",
                       sub->name(), threads);
          return 1;
        }
      }
    }
    std::printf(
        "determinism: clean, fault-injected, and killed+resumed runs are "
        "bitwise identical across substrates and 1/2/8 threads\n\n");
  }

  // ---- Trajectory rows: recovery accounting + checkpoint overhead. ----
  bench::BenchReport report(
      "faults",
      {"substrate", "n", "m", "clean_sec", "faulty_sec", "faults",
       "extra_passes", "extra_messages", "recovery_units_per_fault",
       "ckpt_bytes", "ckpt_overhead_pct"});
  std::printf("%-10s %-6s %-7s %10s %10s %7s %8s %9s %10s %10s %9s\n",
              "substrate", "n", "m", "clean_sec", "faulty_sec", "faults",
              "extra_ps", "extra_msg", "rec/fault", "ckpt_B", "ckpt_%");

  const std::size_t n = 600;
  bool overhead_ok = true;
  for (const std::size_t m : {std::size_t{6000}, std::size_t{12000}}) {
    Graph g = gen::gnm(n, m, m + 7);
    gen::weight_uniform(g, 1.0, 16.0, m + 8);
    for (int which = 0; which < 3; ++which) {
      // Clean run (also the checkpoint-overhead baseline): min of repeats.
      constexpr int kRepeats = 3;
      double clean_sec = 1e300;
      std::size_t clean_passes = 0;
      std::size_t clean_messages = 0;
      for (int r = 0; r < kRepeats; ++r) {
        access::InMemorySubstrate im;
        access::StreamingSubstrate st;
        access::MapReduceSubstrate mr;
        access::Substrate* sub = pick(which, im, st, mr);
        core::SolverOptions opts = solve_options();
        opts.substrate = sub;
        WallTimer timer;
        (void)core::solve_matching(g, opts);
        clean_sec = std::min(clean_sec, timer.seconds());
        clean_passes = sub->meter().passes();
        clean_messages = sub->meter().messages();
      }

      // Serialize-every-round run. The overhead is measured DIRECTLY —
      // time spent inside the checkpoint hook over the run's total wall —
      // rather than by differencing two short wall times, which at tens of
      // milliseconds is dominated by scheduler noise. Min-of-repeats on
      // the ratio.
      double overhead_pct = 1e300;
      double ck_bytes = 0;
      for (int r = 0; r < kRepeats; ++r) {
        access::InMemorySubstrate im;
        access::StreamingSubstrate st;
        access::MapReduceSubstrate mr;
        access::Substrate* sub = pick(which, im, st, mr);
        core::SolverOptions opts = solve_options();
        opts.substrate = sub;
        double bytes = 0;
        double hook_sec = 0;
        opts.on_checkpoint = [&bytes,
                              &hook_sec](const core::RoundCheckpoint& ck) {
          WallTimer hook;
          bytes += static_cast<double>(ck.serialize().size());
          hook_sec += hook.seconds();
          return true;
        };
        WallTimer timer;
        (void)core::solve_matching(g, opts);
        const double total = timer.seconds();
        if (total > 0) {
          overhead_pct = std::min(overhead_pct, hook_sec / total * 100.0);
        }
        ck_bytes = bytes;
      }
      if (overhead_pct >= 5.0) overhead_ok = false;

      // Faulty run: recovery accounting.
      access::InMemorySubstrate im;
      access::StreamingSubstrate st;
      access::MapReduceSubstrate mr;
      access::Substrate* sub = pick(which, im, st, mr);
      core::SolverOptions opts = solve_options();
      opts.substrate = sub;
      opts.faults = fault_plan();
      WallTimer timer;
      (void)core::solve_matching(g, opts);
      const double faulty_sec = timer.seconds();
      const std::size_t faults = sub->meter().faults();
      const std::size_t extra_passes = sub->meter().passes() - clean_passes;
      const std::size_t extra_messages =
          sub->meter().messages() - clean_messages;
      const double recovery_per_fault =
          faults > 0
              ? static_cast<double>(extra_passes + extra_messages) /
                    static_cast<double>(faults)
              : 0.0;

      std::printf(
          "%-10s %-6zu %-7zu %10.4f %10.4f %7zu %8zu %9zu %10.1f %10.0f "
          "%8.2f%%\n",
          sub->name(), n, m, clean_sec, faulty_sec, faults, extra_passes,
          extra_messages, recovery_per_fault, ck_bytes, overhead_pct);
      report.add({static_cast<double>(which), static_cast<double>(n),
                  static_cast<double>(m), clean_sec, faulty_sec,
                  static_cast<double>(faults),
                  static_cast<double>(extra_passes),
                  static_cast<double>(extra_messages), recovery_per_fault,
                  ck_bytes, overhead_pct});
    }
  }
  // Timing-based soft gate: warn, don't fail, on a noisy machine.
  std::printf("\ncheckpoint overhead soft gate (<5%% of solve time): %s\n",
              overhead_ok ? "PASS" : "WARN (timing noise or regression)");
  return 0;
}
