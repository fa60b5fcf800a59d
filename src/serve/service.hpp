#pragma once
// Overload-robust matching service — the serving layer over the anytime
// solver.
//
// A MatchingService owns immutable graph snapshots and answers concurrent
// requests from a bounded worker pool:
//
//   kSolve / kBMatch   run the dual-primal solver on a snapshot (unit or
//                      stored capacities), optionally warm-resuming from a
//                      RoundCheckpoint carried by the request;
//   kApplyDelta        mutate a snapshot's dynamic graph with a batched
//                      edge delta (insert/delete/reweight); bumps the
//                      snapshot's generation counter;
//   kResolve           incremental re-solve after deltas: seeds the solver
//                      from the snapshot's retained warm-start handle
//                      (Solver::resolve) when one exists, full solve
//                      otherwise;
//   kProbeEdge         is edge (u, v) in the snapshot's latest certified
//                      matching?
//   kProbeRatio        the latest certified ratio/value for a snapshot.
//
// Dynamic snapshots: every snapshot wraps its graph in a dyn::DynamicGraph.
// Deltas apply under the snapshot mutex; solve-class requests pin the
// current canonical materialization (a shared_ptr<const Graph>) for the
// whole solve, so an apply racing a solve never mutates the graph a solver
// is reading — the solve just answers for the generation it pinned. A
// resume checkpoint minted before a delta is rejected typed (kStaleResume)
// instead of silently resuming against a mutated graph.
//
// Robustness model (the ISSUE's three layers above the solver's own
// cancellation support):
//
//  - Admission control: a bounded queue plus per-class in-flight budgets
//    (solve-class vs probe-class). A request that would exceed either is
//    rejected INLINE with kShed and a retry-after hint — submit() never
//    blocks the caller, which is what keeps the service stable past
//    saturation (load shedding, not queue collapse).
//  - Deadlines: each request carries a relative budget (or inherits the
//    service default), armed as an absolute Deadline at submit time so
//    queueing delay counts against it. A request whose deadline lapses in
//    the queue is rejected typed (kDeadline, no solve); one that expires
//    mid-solve returns the solver's ANYTIME result — best-so-far primal,
//    exactly certified ratio, checkpoint for warm-resume.
//  - Watchdog: a sweep cancels in-flight solves that have stopped making
//    round progress for watchdog_stall_us (progress = completed rounds,
//    reported through the solver's on_checkpoint hook). The cancelled
//    solve still returns its anytime result, surfaced as kStalled.
//
// Certification invariant (bench_serve gate a): every response is either a
// typed rejection (kShed / kNotFound / kNotReady / queue-expired kDeadline)
// or carries a certified_ratio computed from a rigorous dual bound — the
// service never invents a number the solver did not certify.
//
// All time flows through the Clock seam (util/clock): tests drive
// deadlines, stalls and latency stamps with a FakeClock and call
// watchdog_sweep() manually instead of sleeping.

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/solver.hpp"
#include "dynamic/dynamic_graph.hpp"
#include "graph/graph.hpp"
#include "matching/matching.hpp"
#include "util/cancel.hpp"
#include "util/clock.hpp"
#include "util/hash.hpp"

namespace dp::serve {

enum class RequestType : std::uint8_t {
  kSolve,       // full solve, unit capacities
  kBMatch,      // full solve on the snapshot's stored capacities
  kApplyDelta,  // apply a batched edge delta to the snapshot's graph
  kResolve,     // incremental re-solve from the retained warm-start handle
  kProbeEdge,   // membership of (u, v) in the latest certified matching
  kProbeRatio,  // latest certified ratio / value
};

enum class ResponseStatus : std::uint8_t {
  kOk,        // completed; certified
  kDeadline,  // deadline expired: anytime result (or typed queue rejection)
  kDegraded,  // substrate fault budget exhausted: anytime result
  kStalled,   // watchdog cancelled a non-progressing solve: anytime result
  kShed,      // admission control rejected the request (typed; retry_after)
  kNotFound,  // unknown snapshot id (typed)
  kNotReady,  // probe before any certified solve exists (typed; retry_after)
  kStaleResume,  // resume checkpoint predates an applied delta (typed)
  kError,     // solver rejected the request (typed; e.g. bad resume handle)
};

const char* response_status_name(ResponseStatus status) noexcept;

/// True when the status CAN carry a certified answer. kDeadline is
/// ambiguous by design — a mid-solve expiry returns a certified anytime
/// result, a queue expiry is a typed rejection — so the authoritative
/// discriminator is Response::certified, not the status.
inline bool may_certify(ResponseStatus s) noexcept {
  return s == ResponseStatus::kOk || s == ResponseStatus::kDegraded ||
         s == ResponseStatus::kStalled || s == ResponseStatus::kDeadline;
}

struct Request {
  RequestType type = RequestType::kSolve;
  std::size_t snapshot = 0;
  /// Relative wall budget in us; 0 inherits the service default (0 there
  /// too = no deadline). Armed as an absolute instant at submit.
  std::uint64_t deadline_us = 0;
  /// Warm-resume handle from a previous anytime response (same snapshot
  /// and solver configuration). Rejected typed (kStaleResume) if a delta
  /// landed on the snapshot after the checkpoint was minted.
  std::shared_ptr<const core::RoundCheckpoint> resume;
  /// Batched edge delta (kApplyDelta).
  std::shared_ptr<const dyn::EdgeDelta> delta;
  /// Probe endpoints (kProbeEdge).
  Vertex u = 0;
  Vertex v = 0;
  /// Solver seed override (0 = the service's base seed).
  std::uint64_t seed = 0;
};

struct Response {
  ResponseStatus status = ResponseStatus::kOk;
  /// True iff value/certified_ratio/lambda are a certificate-backed answer
  /// (possibly anytime). False on every typed rejection.
  bool certified = false;
  /// The solver's own verdict for solve-class requests (kComplete for
  /// probes answered from an artifact).
  core::SolverStatus solver_status = core::SolverStatus::kComplete;
  double value = 0;
  double certified_ratio = 0;
  double lambda = 0;
  /// Solve-class answers: which dual certified the ratio (kTrivial on
  /// probes and rejections).
  core::BoundSource bound_source = core::BoundSource::kTrivial;
  std::size_t rounds_executed = 0;
  bool edge_in_matching = false;
  /// Snapshot generation the answer applies to (kApplyDelta: the new
  /// generation after the delta; solve-class: the generation solved).
  std::uint64_t generation = 0;
  /// True when a kResolve was answered by the warm-started incremental
  /// path rather than a from-scratch solve.
  bool warm_resolve = false;
  /// For kShed / kNotReady: suggested backoff before resubmitting.
  std::uint64_t retry_after_us = 0;
  /// Warm-resume handle when a solve stopped early (deadline / stall /
  /// degraded) with at least one completed round.
  std::shared_ptr<const core::RoundCheckpoint> checkpoint;
  std::uint64_t queue_us = 0;  // time spent queued
  std::uint64_t exec_us = 0;   // time spent executing
  std::string detail;
};

/// Future-like handle for one submitted request. wait() blocks until the
/// worker (or inline rejection) published the response.
class ResponseTicket {
 public:
  Response wait() const;
  bool ready() const;

 private:
  friend class MatchingService;
  struct State {
    mutable std::mutex mu;
    mutable std::condition_variable cv;
    bool ready = false;
    Response response;
  };
  std::shared_ptr<State> state_ = std::make_shared<State>();
};

struct ServiceOptions {
  /// Worker sessions answering requests.
  std::size_t workers = 1;
  /// Bounded request queue; submit() sheds beyond this.
  std::size_t queue_capacity = 64;
  /// Per-class in-flight budgets (queued + executing). Solve-class =
  /// kSolve/kBMatch; probe-class = the probes. 0 = class disabled.
  std::size_t solve_slots = 8;
  std::size_t probe_slots = 64;
  /// Default relative deadline for requests that carry none (0 = none).
  std::uint64_t default_deadline_us = 0;
  /// Watchdog: cancel a solve with no completed round for this long
  /// (0 = watchdog off).
  std::uint64_t watchdog_stall_us = 0;
  /// Background watchdog period (0 = no thread; call watchdog_sweep()
  /// manually — the deterministic mode tests use with a FakeClock).
  std::uint64_t watchdog_poll_us = 0;
  /// Base of the shed retry-after hint (scaled by queue depth).
  std::uint64_t retry_after_base_us = 1000;
  /// Time source (nullptr = util/clock's steady clock).
  const Clock* clock = nullptr;
  /// Base solver configuration for solve-class requests. The service owns
  /// per-request cancel/deadline/resume/on_checkpoint wiring; those fields
  /// of this base are ignored.
  core::SolverOptions solver;
};

/// Aggregate counters (monotonic; snapshot via stats()).
struct ServiceStats {
  std::uint64_t submitted = 0;
  std::uint64_t shed = 0;
  std::uint64_t completed = 0;  // certified responses (kOk + anytime)
  std::uint64_t ok = 0;
  std::uint64_t deadline_hits = 0;  // queue-expired + mid-solve
  std::uint64_t degraded = 0;
  std::uint64_t stalled = 0;
  std::uint64_t not_found = 0;
  std::uint64_t not_ready = 0;
  std::uint64_t resumed = 0;  // solve-class requests with a resume handle
  std::uint64_t deltas_applied = 0;   // kApplyDelta requests answered kOk
  std::uint64_t resolves_warm = 0;    // kResolve answered by the warm path
  std::uint64_t resolves_scratch = 0;  // kResolve that fell back to scratch
  std::uint64_t stale_resumes = 0;    // typed kStaleResume rejections
};

class MatchingService {
 public:
  explicit MatchingService(ServiceOptions options);
  ~MatchingService();

  MatchingService(const MatchingService&) = delete;
  MatchingService& operator=(const MatchingService&) = delete;

  /// Register a snapshot; returns its id. Safe while serving. The graph
  /// becomes the generation-0 base of a dynamic graph.
  std::size_t add_snapshot(Graph g);
  std::size_t add_snapshot(Graph g, Capacities b);

  /// Non-blocking admission: either enqueues the request (ticket resolves
  /// when a worker answers) or resolves the ticket inline with a typed
  /// rejection (kShed / kNotFound).
  ResponseTicket submit(Request req);

  /// One watchdog pass: cancel in-flight solves whose last completed
  /// round is older than watchdog_stall_us. Returns how many were
  /// cancelled. Runs from the background thread when watchdog_poll_us > 0;
  /// tests with a FakeClock call it directly.
  std::size_t watchdog_sweep();

  /// Drain: reject queued requests (kShed), let in-flight solves finish,
  /// join workers. Idempotent; the destructor calls it.
  void shutdown();

  ServiceStats stats() const;
  std::size_t queue_depth() const;

 private:
  /// The latest certified solution of a snapshot, swapped in atomically
  /// after each completed solve; probes read it lock-free-by-copy.
  struct Artifact {
    std::vector<std::uint64_t> matched_keys;  // sorted (min<<32)|max
    double value = 0;
    double certified_ratio = 0;
    double lambda = 0;
    std::uint64_t version = 0;
  };

  struct Snapshot {
    /// The mutable dynamic graph. Guarded by mu — DynamicGraph is not
    /// internally synchronized.
    std::unique_ptr<dyn::DynamicGraph> dyn_graph;
    Capacities b;  // empty = unit capacities only
    mutable std::mutex mu;
    /// Pinned canonical materialization of dyn_graph at `generation`.
    /// Solve-class requests copy the shared_ptr under mu and read the
    /// Graph lock-free for the whole solve.
    std::shared_ptr<const Graph> current;
    std::uint64_t generation = 0;
    std::shared_ptr<const Artifact> latest;
    /// Warm-start handle of the newest certified solve (seeds kResolve).
    std::shared_ptr<const core::WarmStart> warm;
  };

  struct Pending {
    Request req;
    std::shared_ptr<ResponseTicket::State> ticket;
    std::uint64_t enqueued_us = 0;
    std::uint64_t deadline_abs_us = 0;  // 0 = none
  };

  /// Per-worker in-flight slot the watchdog scans.
  struct WorkerSlot {
    std::atomic<bool> active{false};
    std::atomic<std::uint64_t> last_progress_us{0};
    std::atomic<bool> watchdog_fired{false};
    std::mutex mu;       // guards token
    CancelToken token;   // valid while active
  };

  void worker_loop(std::size_t worker);
  void watchdog_loop();
  Response execute(const Pending& p, WorkerSlot& slot);
  Response execute_solve(const Pending& p, WorkerSlot& slot,
                         const std::shared_ptr<Snapshot>& snap);
  Response execute_probe(const Pending& p,
                         const std::shared_ptr<Snapshot>& snap);
  Response execute_apply_delta(const Pending& p,
                               const std::shared_ptr<Snapshot>& snap);
  std::shared_ptr<Snapshot> find_snapshot(std::size_t id) const;
  static void publish(const std::shared_ptr<ResponseTicket::State>& state,
                      Response r);
  static bool is_solve_class(RequestType t) noexcept {
    return t == RequestType::kSolve || t == RequestType::kBMatch ||
           t == RequestType::kResolve;
  }

  const Clock& clock() const noexcept { return *clock_; }

  ServiceOptions options_;
  const Clock* clock_;

  mutable std::mutex snapshots_mu_;
  std::vector<std::shared_ptr<Snapshot>> snapshots_;

  mutable std::mutex queue_mu_;
  std::condition_variable queue_cv_;
  std::deque<Pending> queue_;
  bool stopping_ = false;
  std::size_t inflight_solve_ = 0;  // queued + executing, solve-class
  std::size_t inflight_probe_ = 0;

  std::vector<std::unique_ptr<WorkerSlot>> slots_;
  std::vector<std::thread> workers_;
  std::thread watchdog_;

  mutable std::mutex stats_mu_;
  ServiceStats stats_;
};

}  // namespace dp::serve
