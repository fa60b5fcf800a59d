#include "serve/service.hpp"

#include <algorithm>
#include <cstdlib>
#include <utility>

#include "core/checkpoint.hpp"
#include "util/error.hpp"

namespace dp::serve {
namespace {

/// Makes the calling thread's first heap allocation. glibc ties a thread
/// to a malloc arena at its first allocation, and hands it an arena whose
/// thread has exited, if there is one, with every page that arena still
/// holds. The pointer is volatile so the pair is not elided.
void bind_malloc_arena() {
  void* volatile probe = std::malloc(1);
  std::free(probe);
}

}  // namespace

const char* response_status_name(ResponseStatus status) noexcept {
  switch (status) {
    case ResponseStatus::kOk: return "ok";
    case ResponseStatus::kDeadline: return "deadline";
    case ResponseStatus::kDegraded: return "degraded";
    case ResponseStatus::kStalled: return "stalled";
    case ResponseStatus::kShed: return "shed";
    case ResponseStatus::kNotFound: return "not_found";
    case ResponseStatus::kNotReady: return "not_ready";
    case ResponseStatus::kStaleResume: return "stale_resume";
    case ResponseStatus::kError: return "error";
  }
  return "?";
}

Response ResponseTicket::wait() const {
  std::unique_lock<std::mutex> lock(state_->mu);
  state_->cv.wait(lock, [&] { return state_->ready; });
  return state_->response;
}

bool ResponseTicket::ready() const {
  std::lock_guard<std::mutex> lock(state_->mu);
  return state_->ready;
}

void MatchingService::publish(
    const std::shared_ptr<ResponseTicket::State>& state, Response r) {
  {
    std::lock_guard<std::mutex> lock(state->mu);
    state->response = std::move(r);
    state->ready = true;
  }
  state->cv.notify_all();
}

MatchingService::MatchingService(ServiceOptions options)
    : options_(std::move(options)),
      clock_(options_.clock != nullptr ? options_.clock : &steady_clock()) {
  if (options_.workers == 0) options_.workers = 1;
  slots_.reserve(options_.workers);
  workers_.reserve(options_.workers);
  for (std::size_t w = 0; w < options_.workers; ++w) {
    slots_.push_back(std::make_unique<WorkerSlot>());
  }
  for (std::size_t w = 0; w < options_.workers; ++w) {
    workers_.emplace_back([this, w] { worker_loop(w); });
  }
  if (options_.watchdog_poll_us > 0 && options_.watchdog_stall_us > 0) {
    watchdog_ = std::thread([this] { watchdog_loop(); });
  }
}

MatchingService::~MatchingService() { shutdown(); }

std::size_t MatchingService::add_snapshot(Graph g) {
  return add_snapshot(std::move(g), Capacities{});
}

std::size_t MatchingService::add_snapshot(Graph g, Capacities b) {
  auto snap = std::make_shared<Snapshot>();
  snap->dyn_graph = std::make_unique<dyn::DynamicGraph>(std::move(g));
  // Generation 0 materializes to the base graph unchanged, so existing
  // delta-free snapshots behave bitwise as before.
  snap->current = snap->dyn_graph->materialize();
  snap->generation = snap->dyn_graph->generation();
  snap->b = std::move(b);
  std::lock_guard<std::mutex> lock(snapshots_mu_);
  snapshots_.push_back(std::move(snap));
  return snapshots_.size() - 1;
}

std::shared_ptr<MatchingService::Snapshot> MatchingService::find_snapshot(
    std::size_t id) const {
  std::lock_guard<std::mutex> lock(snapshots_mu_);
  return id < snapshots_.size() ? snapshots_[id] : nullptr;
}

ResponseTicket MatchingService::submit(Request req) {
  ResponseTicket ticket;
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.submitted;
    if (is_solve_class(req.type) && req.resume != nullptr) ++stats_.resumed;
  }

  if (find_snapshot(req.snapshot) == nullptr) {
    Response r;
    r.status = ResponseStatus::kNotFound;
    r.detail = "unknown snapshot";
    publish(ticket.state_, std::move(r));
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.not_found;
    return ticket;
  }

  const std::uint64_t now = clock().now_us();
  const std::uint64_t rel =
      req.deadline_us != 0 ? req.deadline_us : options_.default_deadline_us;
  const bool solve_class = is_solve_class(req.type);

  bool shed = false;
  std::uint64_t retry_after = 0;
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    const std::size_t budget =
        solve_class ? options_.solve_slots : options_.probe_slots;
    std::size_t& inflight = solve_class ? inflight_solve_ : inflight_probe_;
    if (stopping_ || queue_.size() >= options_.queue_capacity ||
        inflight >= budget) {
      shed = true;
      retry_after = options_.retry_after_base_us * (queue_.size() + 1);
    } else {
      ++inflight;
      Pending p;
      p.req = std::move(req);
      p.ticket = ticket.state_;
      p.enqueued_us = now;
      p.deadline_abs_us = rel != 0 ? now + rel : 0;
      queue_.push_back(std::move(p));
    }
  }
  if (shed) {
    Response r;
    r.status = ResponseStatus::kShed;
    r.retry_after_us = retry_after;
    r.detail = "admission control";
    publish(ticket.state_, std::move(r));
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.shed;
  } else {
    queue_cv_.notify_one();
  }
  return ticket;
}

void MatchingService::worker_loop(std::size_t worker) {
  // Take an arena before waiting for work. A worker's first allocation
  // otherwise comes with its first request, and a client thread started
  // after the service but allocating sooner could take the arena a
  // previous service's worker left, pages and all, while this worker grew
  // a new one: the process footprint would depend on thread timing.
  bind_malloc_arena();
  WorkerSlot& slot = *slots_[worker];
  for (;;) {
    Pending p;
    {
      std::unique_lock<std::mutex> lock(queue_mu_);
      queue_cv_.wait(lock, [&] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping_ and drained
      p = std::move(queue_.front());
      queue_.pop_front();
    }

    const std::uint64_t start = clock().now_us();
    Response r;
    if (p.deadline_abs_us != 0 && start >= p.deadline_abs_us) {
      // Typed rejection: the budget lapsed while queued — never start a
      // solve the caller has already given up on.
      r.status = ResponseStatus::kDeadline;
      r.detail = "deadline expired in queue";
    } else {
      r = execute(p, slot);
    }
    r.queue_us = start - p.enqueued_us;
    r.exec_us = clock().now_us() - start;

    {
      std::lock_guard<std::mutex> lock(queue_mu_);
      std::size_t& inflight =
          is_solve_class(p.req.type) ? inflight_solve_ : inflight_probe_;
      --inflight;
    }
    {
      std::lock_guard<std::mutex> lock(stats_mu_);
      if (r.certified) ++stats_.completed;
      switch (r.status) {
        case ResponseStatus::kOk: ++stats_.ok; break;
        case ResponseStatus::kDeadline: ++stats_.deadline_hits; break;
        case ResponseStatus::kDegraded: ++stats_.degraded; break;
        case ResponseStatus::kStalled: ++stats_.stalled; break;
        case ResponseStatus::kNotReady: ++stats_.not_ready; break;
        case ResponseStatus::kNotFound: ++stats_.not_found; break;
        default: break;
      }
    }
    publish(p.ticket, std::move(r));
  }
}

Response MatchingService::execute(const Pending& p, WorkerSlot& slot) {
  const auto snap = find_snapshot(p.req.snapshot);
  if (snap == nullptr) {
    Response r;
    r.status = ResponseStatus::kNotFound;
    r.detail = "unknown snapshot";
    return r;
  }
  if (is_solve_class(p.req.type)) return execute_solve(p, slot, snap);
  if (p.req.type == RequestType::kApplyDelta) {
    return execute_apply_delta(p, snap);
  }
  return execute_probe(p, snap);
}

Response MatchingService::execute_apply_delta(
    const Pending& p, const std::shared_ptr<Snapshot>& snap) {
  Response r;
  if (p.req.delta == nullptr) {
    r.status = ResponseStatus::kError;
    r.detail = "apply-delta request without a delta";
    return r;
  }
  try {
    std::lock_guard<std::mutex> lock(snap->mu);
    const dyn::DeltaSummary s = snap->dyn_graph->apply(*p.req.delta);
    snap->current = snap->dyn_graph->materialize();
    snap->generation = snap->dyn_graph->generation();
    r.status = ResponseStatus::kOk;
    r.generation = s.generation;
    r.detail = "inserted=" + std::to_string(s.inserted) +
               " removed=" + std::to_string(s.removed) +
               " duplicate_inserts=" + std::to_string(s.duplicate_inserts) +
               " phantom_removes=" + std::to_string(s.phantom_removes);
  } catch (const SolverError& err) {
    // Typed rejection (e.g. endpoint out of range): the snapshot is
    // untouched and the worker survives.
    r.status = ResponseStatus::kError;
    r.detail = err.what();
    return r;
  }
  std::lock_guard<std::mutex> lock(stats_mu_);
  ++stats_.deltas_applied;
  return r;
}

Response MatchingService::execute_solve(
    const Pending& p, WorkerSlot& slot,
    const std::shared_ptr<Snapshot>& snap) {
  // Pin the snapshot's current materialization (and warm handle / pending
  // delta for kResolve) under the snapshot mutex; the solve itself runs on
  // the pinned immutable Graph, never racing a concurrent apply-delta.
  std::shared_ptr<const Graph> graph;
  std::shared_ptr<const core::WarmStart> warm;
  dyn::EdgeDelta delta;
  std::uint64_t generation = 0;
  {
    std::lock_guard<std::mutex> lock(snap->mu);
    graph = snap->current;
    generation = snap->generation;
    if (p.req.type == RequestType::kResolve && snap->warm != nullptr) {
      warm = snap->warm;
      delta = snap->dyn_graph->delta_since(warm->graph_generation);
    }
  }

  if (p.req.resume != nullptr &&
      p.req.resume->graph_generation != generation) {
    // Typed rejection BEFORE any solver work: the checkpoint was minted
    // against a graph that a delta has since mutated; resuming its round
    // state would silently mix two graphs. (Solver::solve re-checks this
    // identity field, so the guard holds at both layers.)
    Response r;
    r.status = ResponseStatus::kStaleResume;
    r.generation = generation;
    r.detail = "resume checkpoint generation " +
               std::to_string(p.req.resume->graph_generation) +
               " predates snapshot generation " + std::to_string(generation);
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.stale_resumes;
    return r;
  }

  core::SolverOptions opt = options_.solver;
  // One solve per worker on the service's own in-memory substrate — a
  // caller-supplied substrate cannot be shared by concurrent sessions.
  opt.substrate = nullptr;
  if (p.req.seed != 0) opt.seed = p.req.seed;
  opt.cancel = CancelToken::make();
  opt.deadline = p.deadline_abs_us != 0
                     ? Deadline{clock_, p.deadline_abs_us}
                     : Deadline{};
  opt.resume_from = p.req.resume.get();
  opt.graph_generation = generation;
  // Round progress feeds the watchdog; the hook never interrupts.
  opt.on_checkpoint = [this, &slot](const core::RoundCheckpoint&) {
    slot.last_progress_us.store(clock().now_us(), std::memory_order_relaxed);
    return true;
  };

  {
    std::lock_guard<std::mutex> lock(slot.mu);
    slot.token = opt.cancel;
  }
  slot.watchdog_fired.store(false, std::memory_order_relaxed);
  slot.last_progress_us.store(clock().now_us(), std::memory_order_relaxed);
  slot.active.store(true, std::memory_order_release);

  Response r;
  try {
    const bool with_caps =
        p.req.type == RequestType::kBMatch && !snap->b.empty();
    core::Solver solver =
        with_caps ? core::Solver(*graph, snap->b, opt)
                  : core::Solver(*graph, opt);
    core::SolverResult result =
        (p.req.type == RequestType::kResolve && warm != nullptr)
            ? solver.resolve(*warm, delta)
            : solver.solve();

    r.solver_status = result.status;
    r.generation = generation;
    r.warm_resolve = result.warm_resolve;
    if (p.req.type == RequestType::kResolve) {
      std::lock_guard<std::mutex> lock(stats_mu_);
      if (result.warm_resolve) {
        ++stats_.resolves_warm;
      } else {
        ++stats_.resolves_scratch;
      }
    }
    r.certified = true;  // the solver's answer is always certificate-backed
    r.value = result.value;
    r.certified_ratio = result.certified_ratio;
    r.lambda = result.lambda;
    r.bound_source = result.bound_source;
    r.rounds_executed = result.outer_rounds;
    r.checkpoint = result.checkpoint;
    r.detail = result.fault_detail;
    if (p.req.type == RequestType::kResolve && r.detail.empty()) {
      if (warm == nullptr) {
        r.detail = "no warm handle; full solve";
      } else if (!result.resolve_fallback.empty()) {
        r.detail = "fallback: " + result.resolve_fallback;
      }
    }
    switch (result.status) {
      case core::SolverStatus::kComplete:
      case core::SolverStatus::kInterrupted:
        r.status = ResponseStatus::kOk;
        break;
      case core::SolverStatus::kDegraded:
        r.status = ResponseStatus::kDegraded;
        break;
      case core::SolverStatus::kDeadline:
        r.status = ResponseStatus::kDeadline;
        break;
      case core::SolverStatus::kCancelled:
        // The service's only cancel source is the watchdog.
        r.status = slot.watchdog_fired.load(std::memory_order_relaxed)
                       ? ResponseStatus::kStalled
                       : ResponseStatus::kDeadline;
        break;
    }

    if (r.status == ResponseStatus::kOk) {
      // Publish the certified solution for probes: packed sorted edge
      // keys of the positive-multiplicity support.
      auto art = std::make_shared<Artifact>();
      const auto& edges = graph->edges();
      for (EdgeId e = 0; e < result.b_matching.num_edges(); ++e) {
        if (result.b_matching.multiplicity(e) > 0) {
          art->matched_keys.push_back(edge_key(edges[e].u, edges[e].v));
        }
      }
      std::sort(art->matched_keys.begin(), art->matched_keys.end());
      art->value = result.value;
      art->certified_ratio = result.certified_ratio;
      art->lambda = result.lambda;
      std::lock_guard<std::mutex> lock(snap->mu);
      art->version = (snap->latest ? snap->latest->version : 0) + 1;
      snap->latest = std::move(art);
      // Retain the newest warm-start handle for future kResolve requests —
      // never let a solve for an older generation clobber a newer handle.
      if (result.warm != nullptr &&
          (snap->warm == nullptr ||
           snap->warm->graph_generation <= generation)) {
        snap->warm = result.warm;
      }
    }
  } catch (const SolverError& err) {
    // Typed rejection: a malformed request (e.g. a resume handle from a
    // different snapshot/configuration) must not kill the worker.
    r.status = ResponseStatus::kError;
    r.detail = err.what();
  }

  slot.active.store(false, std::memory_order_release);
  {
    std::lock_guard<std::mutex> lock(slot.mu);
    slot.token = CancelToken{};
  }
  return r;
}

Response MatchingService::execute_probe(
    const Pending& p, const std::shared_ptr<Snapshot>& snap) {
  std::shared_ptr<const Artifact> art;
  {
    std::lock_guard<std::mutex> lock(snap->mu);
    art = snap->latest;
  }
  Response r;
  if (art == nullptr) {
    r.status = ResponseStatus::kNotReady;
    r.retry_after_us = options_.retry_after_base_us;
    r.detail = "no certified solution yet";
    return r;
  }
  r.status = ResponseStatus::kOk;
  r.certified = true;
  r.value = art->value;
  r.certified_ratio = art->certified_ratio;
  r.lambda = art->lambda;
  if (p.req.type == RequestType::kProbeEdge) {
    r.edge_in_matching =
        std::binary_search(art->matched_keys.begin(), art->matched_keys.end(),
                           edge_key(p.req.u, p.req.v));
  }
  return r;
}

std::size_t MatchingService::watchdog_sweep() {
  if (options_.watchdog_stall_us == 0) return 0;
  const std::uint64_t now = clock().now_us();
  std::size_t cancelled = 0;
  for (auto& slot_ptr : slots_) {
    WorkerSlot& slot = *slot_ptr;
    if (!slot.active.load(std::memory_order_acquire)) continue;
    const std::uint64_t last =
        slot.last_progress_us.load(std::memory_order_relaxed);
    if (now < last || now - last < options_.watchdog_stall_us) continue;
    std::lock_guard<std::mutex> lock(slot.mu);
    if (!slot.active.load(std::memory_order_acquire)) continue;
    if (!slot.token.armed() || slot.token.cancelled()) continue;
    slot.watchdog_fired.store(true, std::memory_order_relaxed);
    slot.token.cancel();
    ++cancelled;
  }
  return cancelled;
}

void MatchingService::watchdog_loop() {
  for (;;) {
    {
      std::lock_guard<std::mutex> lock(queue_mu_);
      if (stopping_) return;
    }
    clock().sleep_us(options_.watchdog_poll_us);
    watchdog_sweep();
  }
}

void MatchingService::shutdown() {
  std::deque<Pending> drained;
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    stopping_ = true;
    drained.swap(queue_);
    for (const Pending& p : drained) {
      std::size_t& inflight =
          is_solve_class(p.req.type) ? inflight_solve_ : inflight_probe_;
      --inflight;
    }
  }
  queue_cv_.notify_all();
  for (Pending& p : drained) {
    Response r;
    r.status = ResponseStatus::kShed;
    r.detail = "service shutting down";
    publish(p.ticket, std::move(r));
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.shed;
  }
  for (std::thread& w : workers_) {
    if (w.joinable()) w.join();
  }
  if (watchdog_.joinable()) watchdog_.join();
}

ServiceStats MatchingService::stats() const {
  std::lock_guard<std::mutex> lock(stats_mu_);
  return stats_;
}

std::size_t MatchingService::queue_depth() const {
  std::lock_guard<std::mutex> lock(queue_mu_);
  return queue_.size();
}

}  // namespace dp::serve
