#pragma once
// Time seam for deadline-aware solving and the serving layer.
//
// Everything in the library that reads wall time or sleeps — deadline
// polls, the serving layer's watchdog and latency stamps — goes through a
// Clock so tests script time instead of sleeping through it. Two
// implementations:
//
//  - SteadyClock: std::chrono::steady_clock, the production default
//    (process-wide singleton via steady_clock());
//  - FakeClock: a scripted clock tests advance manually (advance_us/set_us)
//    or per query (auto_advance_us), whose sleep_us() advances scripted
//    time instead of blocking — so deadline and watchdog tests are
//    deterministic and take zero real time.
//
// Clocks are monotonic microsecond counters with an arbitrary origin; only
// differences are meaningful. Implementations must be thread-safe: polls
// happen concurrently from solver sweeps, service workers and watchdogs.

#include <atomic>
#include <cstdint>

namespace dp {

class Clock {
 public:
  virtual ~Clock() = default;

  /// Monotonic time in microseconds (arbitrary origin).
  virtual std::uint64_t now_us() const noexcept = 0;

  /// Advance `us` microseconds of this clock's time. The steady clock
  /// blocks the calling thread; fakes advance their scripted time.
  virtual void sleep_us(std::uint64_t us) const = 0;
};

/// std::chrono::steady_clock behind the seam.
class SteadyClock final : public Clock {
 public:
  std::uint64_t now_us() const noexcept override;
  void sleep_us(std::uint64_t us) const override;
};

/// The process-wide production clock.
const Clock& steady_clock() noexcept;

/// Scripted clock for tests: time moves only when told to. sleep_us()
/// advances scripted time (so code that waits makes progress without
/// blocking). An optional auto-advance ticks time forward on every
/// now_us() query, which lets deadlines expire "mid-computation"
/// deterministically — expiry becomes a function of how many polls ran,
/// not of the host's scheduler.
class FakeClock final : public Clock {
 public:
  explicit FakeClock(std::uint64_t start_us = 0) noexcept : now_(start_us) {}

  std::uint64_t now_us() const noexcept override {
    const std::uint64_t tick = auto_advance_.load(std::memory_order_relaxed);
    if (tick == 0) return now_.load(std::memory_order_relaxed);
    return now_.fetch_add(tick, std::memory_order_relaxed) + tick;
  }

  void sleep_us(std::uint64_t us) const override {
    now_.fetch_add(us, std::memory_order_relaxed);
  }

  void advance_us(std::uint64_t us) noexcept {
    now_.fetch_add(us, std::memory_order_relaxed);
  }

  void set_us(std::uint64_t us) noexcept {
    now_.store(us, std::memory_order_relaxed);
  }

  /// Every now_us() query advances time by `us` (0 disables).
  void auto_advance_us(std::uint64_t us) noexcept {
    auto_advance_.store(us, std::memory_order_relaxed);
  }

 private:
  mutable std::atomic<std::uint64_t> now_;
  std::atomic<std::uint64_t> auto_advance_{0};
};

}  // namespace dp
