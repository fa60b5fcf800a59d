#pragma once
// Minimal work-stealing-free thread pool with parallel_for/parallel_chunks
// batch helpers and Future-style one-shot jobs.
//
// The MapReduce simulator runs mappers/reducers in parallel on this pool; it
// models the *physical* parallelism of a cluster while the ResourceMeter
// models the *logical* resources (rounds, shuffle volume). Following the
// C++ Core Guidelines (CP.*), all synchronization is confined to this class;
// user tasks communicate only through their disjoint output slots.
//
// Joining is two-tier:
//  - parallel_for / parallel_chunks block on a PER-CALL latch counting only
//    their own tasks, so a batch sweep issued while an unrelated one-shot
//    job is still running does not wait for that job (the overlap the round
//    pipeline's OfflineResolve stage relies on);
//  - wait_idle() remains the global join over everything ever submitted.

#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <queue>
#include <stdexcept>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

namespace dp {

namespace detail {

/// Shared completion state behind a Future<T>.
template <typename T>
struct FutureState {
  std::mutex mutex;
  std::condition_variable cv;
  bool ready = false;
  std::optional<T> value;
  std::exception_ptr error;

  void wait() {
    std::unique_lock<std::mutex> lock(mutex);
    cv.wait(lock, [this] { return ready; });
  }

  void deliver(std::optional<T> result, std::exception_ptr err) {
    {
      std::lock_guard<std::mutex> lock(mutex);
      value = std::move(result);
      error = err;
      ready = true;
    }
    cv.notify_all();
  }
};

}  // namespace detail

/// One-shot handle to a job submitted with ThreadPool::submit_job (or run
/// inline by the pool-less submit_job overload). get() blocks until the job
/// finished, then returns its result — rethrowing any exception the job
/// threw — and releases the handle. Unlike wait_idle(), a Future joins ONLY
/// its own job: batch sweeps and other jobs proceed independently.
template <typename T>
class Future {
 public:
  Future() = default;

  bool valid() const noexcept { return state_ != nullptr; }

  void wait() const {
    require_valid();
    state_->wait();
  }

  T get() {
    require_valid();
    state_->wait();
    if (state_->error != nullptr) std::rethrow_exception(state_->error);
    T out = std::move(*state_->value);
    state_.reset();
    return out;
  }

  /// Ready-made future carrying `value` — the inline/serial path, so callers
  /// can keep one join-point code path whether or not a pool exists.
  static Future immediate(T value) {
    Future f;
    f.state_ = std::make_shared<detail::FutureState<T>>();
    f.state_->value.emplace(std::move(value));
    f.state_->ready = true;
    return f;
  }

 private:
  friend class ThreadPool;

  void require_valid() const {
    if (state_ == nullptr) {
      throw std::logic_error(
          "Future: wait()/get() on an invalid (empty or consumed) handle");
    }
  }

  std::shared_ptr<detail::FutureState<T>> state_;
};

class ThreadPool {
 public:
  /// Spawn `threads` workers (default: hardware concurrency, at least 1).
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const noexcept { return workers_.size(); }

  /// Enqueue a task; fire-and-forget (join via wait_idle()).
  void submit(std::function<void()> task);

  /// Run `fn` as a one-shot job and return a Future for its result. The job
  /// counts toward wait_idle(), but parallel_for / parallel_chunks issued
  /// while it runs do NOT join it — they wait only for their own tasks.
  template <typename Fn,
            typename T = std::invoke_result_t<std::decay_t<Fn>>>
  Future<T> submit_job(Fn&& fn) {
    auto state = std::make_shared<detail::FutureState<T>>();
    auto call = std::make_shared<std::decay_t<Fn>>(std::forward<Fn>(fn));
    submit([state, call] {
      std::optional<T> result;
      std::exception_ptr error;
      try {
        result.emplace((*call)());
      } catch (...) {
        error = std::current_exception();
      }
      state->deliver(std::move(result), error);
    });
    Future<T> f;
    f.state_ = std::move(state);
    return f;
  }

  /// Block until every submitted task has completed.
  void wait_idle();

  /// Run fn(i) for i in [begin, end), partitioned into contiguous chunks
  /// across the pool. Blocks until all iterations complete (and only those
  /// — concurrent one-shot jobs are not joined). fn must write only to
  /// per-index state.
  void parallel_for(std::size_t begin, std::size_t end,
                    const std::function<void(std::size_t)>& fn);

  /// Run fn(chunk, lo, hi) over fixed-size chunks of [begin, end): chunk c
  /// covers [begin + c*grain, min(end, begin + (c+1)*grain)). Chunk
  /// boundaries depend only on `grain` — never on the pool size — so
  /// per-chunk partial results reduced in chunk order yield bitwise
  /// identical answers for any thread count (the contract the oracle's
  /// deterministic parallel reductions rely on). Blocks until all chunks of
  /// THIS call complete; concurrent one-shot jobs are not joined.
  void parallel_chunks(
      std::size_t begin, std::size_t end, std::size_t grain,
      const std::function<void(std::size_t, std::size_t, std::size_t)>& fn);

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> tasks_;
  std::mutex mutex_;
  std::condition_variable task_cv_;
  std::condition_variable idle_cv_;
  std::size_t in_flight_ = 0;
  bool stop_ = false;
};

/// Run `fn` as a one-shot job on the pool when one is available, inline
/// otherwise. Either way the caller gets a Future joined at a single point,
/// so stage code is identical for the serial reference and the overlapped
/// execution.
template <typename Fn, typename T = std::invoke_result_t<std::decay_t<Fn>>>
Future<T> submit_job(ThreadPool* pool, Fn&& fn) {
  if (pool == nullptr) return Future<T>::immediate(fn());
  return pool->submit_job(std::forward<Fn>(fn));
}

/// Run fn(chunk, lo, hi) over fixed-grain chunks of [begin, end), inline
/// when no pool is available or the range is a single chunk. Chunk
/// boundaries depend only on `grain`, so serial and parallel execution
/// produce identical chunk decompositions (and therefore identical
/// chunk-ordered reductions) — the determinism contract shared by the
/// oracle sweeps, DualState::lambda and the round pipeline's sweeps.
template <typename Fn>
void run_chunks(ThreadPool* pool, std::size_t begin, std::size_t end,
                std::size_t grain, const Fn& fn) {
  if (begin >= end) return;
  if (grain == 0) grain = 1;
  if (pool == nullptr || end - begin <= grain) {
    const std::size_t chunks = (end - begin + grain - 1) / grain;
    for (std::size_t c = 0; c < chunks; ++c) {
      const std::size_t lo = begin + c * grain;
      fn(c, lo, std::min(end, lo + grain));
    }
    return;
  }
  pool->parallel_chunks(begin, end, grain,
                        [&fn](std::size_t c, std::size_t lo, std::size_t hi) {
                          fn(c, lo, hi);
                        });
}

/// Run fn(i) for i in [0, count): on the pool when one is available, inline
/// otherwise. The job decomposition is independent of the pool size, so as
/// long as every job writes only to its own slot, combining the slots in
/// job order is deterministic for any thread count (the same contract as
/// run_chunks, for heterogeneous jobs instead of a flat index range).
template <typename Fn>
void run_jobs(ThreadPool* pool, std::size_t count, const Fn& fn) {
  if (count == 0) return;
  if (pool == nullptr || count == 1) {
    for (std::size_t i = 0; i < count; ++i) fn(i);
    return;
  }
  pool->parallel_for(0, count, [&fn](std::size_t i) { fn(i); });
}

}  // namespace dp
