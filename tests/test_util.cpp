// Tests for the util substrate: RNG, hashing, accounting, math helpers, the
// SIMD kernels and the thread pool.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <limits>
#include <set>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "util/accounting.hpp"
#include "util/cancel.hpp"
#include "util/clock.hpp"
#include "util/hash.hpp"
#include "util/math.hpp"
#include "util/rng.hpp"
#include "util/simd.hpp"
#include "util/thread_pool.hpp"

namespace dp {
namespace {

TEST(Rng, DeterministicForSeed) {
  Rng a(123), b(123), c(124);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next(), b.next());
  }
  bool differs = false;
  Rng a2(123);
  for (int i = 0; i < 100; ++i) {
    if (a2.next() != c.next()) differs = true;
  }
  EXPECT_TRUE(differs);
}

TEST(Rng, UniformBoundRespected) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.uniform(17), 17u);
  }
}

TEST(Rng, UniformIsRoughlyUniform) {
  Rng rng(11);
  std::vector<int> bucket(10, 0);
  const int trials = 100000;
  for (int i = 0; i < trials; ++i) {
    ++bucket[rng.uniform(10)];
  }
  for (int count : bucket) {
    EXPECT_NEAR(count, trials / 10, trials / 50);
  }
}

TEST(Rng, UniformRealInUnitInterval) {
  Rng rng(3);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.uniform_real();
    ASSERT_GE(x, 0.0);
    ASSERT_LT(x, 1.0);
    sum += x;
  }
  EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(Rng, SampleWithoutReplacementDistinct) {
  Rng rng(9);
  for (std::size_t k : {1u, 5u, 50u, 99u}) {
    const auto sample = rng.sample_without_replacement(100, k);
    EXPECT_EQ(sample.size(), k);
    std::set<std::size_t> unique(sample.begin(), sample.end());
    EXPECT_EQ(unique.size(), k);
    for (std::size_t x : sample) EXPECT_LT(x, 100u);
  }
  EXPECT_EQ(rng.sample_without_replacement(10, 20).size(), 10u);
}

TEST(Rng, ForkIndependentStreams) {
  Rng parent(42);
  Rng child1 = parent.fork(1);
  Rng child2 = parent.fork(2);
  EXPECT_NE(child1.next(), child2.next());
}

TEST(EdgeKey, Symmetric) {
  EXPECT_EQ(edge_key(3, 7), edge_key(7, 3));
  EXPECT_NE(edge_key(3, 7), edge_key(3, 8));
}

TEST(Checksum64, GoldenValuesPinByteOrderAndLaneLayout) {
  // Both wire formats (DPEF edge files, round checkpoints) are sealed with
  // checksum64, so a host or compiler that computes it differently must
  // fail here, not at its first file. The lengths cover the empty input,
  // a tail-only input, one short of and exactly one word, one short of,
  // exactly and one past a 32-byte stride, and two multi-stride lengths
  // (16,384 is a default DPEF block's record bytes).
  const std::pair<std::size_t, std::uint64_t> golden[] = {
      {0, 0x7b8a1f9e82fc1d69ULL},     {1, 0x469dbd2955ef239aULL},
      {7, 0x3928ae3205112554ULL},     {8, 0x0b129b92d2e9fc50ULL},
      {31, 0x838a8ac276229af3ULL},    {32, 0xe06db923901de51dULL},
      {33, 0x930c5876e5551f03ULL},    {1024, 0xcabccf3d6f4d389bULL},
      {16384, 0x10b9ae8a89b2b364ULL},
  };
  std::vector<std::uint8_t> pattern(16384);
  for (std::size_t i = 0; i < pattern.size(); ++i) {
    pattern[i] = static_cast<std::uint8_t>(i * 167 + 13);
  }
  for (const auto& [len, want] : golden) {
    EXPECT_EQ(checksum64(pattern.data(), len), want) << "length " << len;
  }
}

TEST(ResourceMeter, CountsAndPeak) {
  ResourceMeter m;
  m.add_round();
  m.add_round(2);
  m.add_pass();
  m.store_edges(100);
  m.release_edges(40);
  m.store_edges(10);
  EXPECT_EQ(m.rounds(), 3u);
  EXPECT_EQ(m.passes(), 1u);
  EXPECT_EQ(m.stored_edges(), 70u);
  EXPECT_EQ(m.peak_edges(), 100u);
  m.add_messages(7);
  m.add_inner_iterations(2);
  m.add_oracle_calls(3);
  EXPECT_EQ(m.messages(), 7u);
  EXPECT_EQ(m.inner_iterations(), 2u);
  EXPECT_EQ(m.oracle_calls(), 3u);
  EXPECT_FALSE(m.summary().empty());
}

TEST(ResourceMeter, MergeTakesMaxPeak) {
  ResourceMeter a, b;
  a.store_edges(10);
  b.store_edges(100);
  b.release_edges(100);
  a.merge(b);
  EXPECT_EQ(a.peak_edges(), 100u);
  EXPECT_EQ(a.stored_edges(), 10u);
}

TEST(ResourceMeter, MergeAddsCountersAndCombinedStoredRaisesPeak) {
  ResourceMeter a, b;
  a.add_round(2);
  a.add_pass();
  a.store_edges(60);  // peak 60, still held
  b.add_round();
  b.add_inner_iterations(3);
  b.add_oracle_calls(4);
  b.add_messages(6);
  b.store_edges(50);  // peak 50, still held
  a.merge(b);
  EXPECT_EQ(a.rounds(), 3u);
  EXPECT_EQ(a.passes(), 1u);
  EXPECT_EQ(a.inner_iterations(), 3u);
  EXPECT_EQ(a.oracle_calls(), 4u);
  EXPECT_EQ(a.messages(), 6u);
  // Both meters still hold their edges: the combined running total (110)
  // exceeds either individual peak and becomes the merged peak.
  EXPECT_EQ(a.stored_edges(), 110u);
  EXPECT_EQ(a.peak_edges(), 110u);
}

TEST(ResourceMeter, StageAggregationMatchesDirectMetering) {
  // The round pipeline's accounting model: concurrent stages write
  // thread-local meters, merged at the stage boundary in fixed order. The
  // result must equal metering the same events directly on one meter —
  // that equality is what makes the counters thread-count-invariant.
  ResourceMeter direct;
  direct.add_round();
  direct.add_pass();
  direct.store_edges(500);
  direct.add_inner_iterations(4);
  direct.add_oracle_calls(9);
  direct.release_edges(500);

  ResourceMeter total, draw, offline, inner;
  draw.add_round();
  draw.add_pass();
  draw.store_edges(500);
  offline.store_edges(200);  // transient offline working set
  offline.release_edges(200);
  inner.add_inner_iterations(4);
  inner.add_oracle_calls(9);
  total.merge(draw);
  total.merge(offline);
  total.merge(inner);
  total.release_edges(500);

  EXPECT_EQ(total.counters(), direct.counters());
}

TEST(ResourceMeter, ReleaseClampsAtZero) {
  ResourceMeter m;
  m.store_edges(5);
  m.release_edges(9);
  EXPECT_EQ(m.stored_edges(), 0u);
  EXPECT_EQ(m.peak_edges(), 5u);
}

TEST(WeightClasses, LevelRoundTrip) {
  const WeightClasses wc(0.5, 1.0);
  EXPECT_EQ(wc.level_of(1.0), 0);
  EXPECT_EQ(wc.level_of(1.5), 1);
  EXPECT_EQ(wc.level_of(2.25), 2);
  EXPECT_EQ(wc.level_of(2.24), 1);
  EXPECT_NEAR(wc.weight_of(3), 3.375, 1e-12);
  for (int k = 0; k < 20; ++k) {
    EXPECT_EQ(wc.level_of(wc.weight_of(k)), k) << k;
  }
}

TEST(MathHelpers, LogLogSlope) {
  // y = x^2 exactly.
  std::vector<double> x{10, 100, 1000}, y{100, 10000, 1000000};
  EXPECT_NEAR(loglog_slope(x, y), 2.0, 1e-9);
}

TEST(ThreadPool, ParallelForCoversRange) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(0, 1000, [&](std::size_t i) { hits[i]++; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, SubmitAndWait) {
  ThreadPool pool(3);
  std::atomic<int> counter{0};
  for (int i = 0; i < 50; ++i) {
    pool.submit([&counter] { counter++; });
  }
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 50);
}

TEST(ThreadPool, EmptyRangeNoOp) {
  ThreadPool pool(2);
  pool.parallel_for(5, 5, [](std::size_t) { FAIL(); });
}

TEST(ThreadPool, SubmitJobReturnsValueThroughFuture) {
  ThreadPool pool(2);
  Future<int> f = pool.submit_job([] { return 41 + 1; });
  ASSERT_TRUE(f.valid());
  EXPECT_EQ(f.get(), 42);
  EXPECT_FALSE(f.valid());  // one-shot: get() releases the handle
  EXPECT_THROW(f.get(), std::logic_error);  // misuse fails detectably
  Future<int> empty;
  EXPECT_THROW(empty.wait(), std::logic_error);
}

TEST(ThreadPool, SubmitJobPropagatesExceptions) {
  ThreadPool pool(2);
  Future<int> f =
      pool.submit_job([]() -> int { throw std::runtime_error("boom"); });
  EXPECT_THROW(f.get(), std::runtime_error);
}

TEST(ThreadPool, ImmediateFutureAndPoollessHelper) {
  Future<int> ready = Future<int>::immediate(7);
  EXPECT_EQ(ready.get(), 7);
  // The free helper runs inline when no pool exists — same join-point code
  // path as the overlapped execution.
  Future<int> inline_f = submit_job(nullptr, [] { return 9; });
  EXPECT_EQ(inline_f.get(), 9);
  ThreadPool pool(2);
  Future<int> pooled = submit_job(&pool, [] { return 11; });
  EXPECT_EQ(pooled.get(), 11);
}

TEST(ThreadPool, BatchSweepsDoNotJoinPendingJobs) {
  // The overlap contract of the round pipeline: parallel_for /
  // parallel_chunks must complete while an unrelated one-shot job is still
  // running (they join per-call latches, not the global idle state). Under
  // the old wait_idle-based join this test would hang.
  ThreadPool pool(4);
  std::atomic<bool> release{false};
  Future<int> job = pool.submit_job([&] {
    while (!release.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return 7;
  });
  std::atomic<std::size_t> covered{0};
  pool.parallel_chunks(0, 1000, 64,
                       [&](std::size_t, std::size_t lo, std::size_t hi) {
                         covered += hi - lo;
                       });
  EXPECT_EQ(covered.load(), 1000u);  // finished while the job still runs
  std::atomic<std::size_t> hits{0};
  pool.parallel_for(0, 100, [&](std::size_t) { hits++; });
  EXPECT_EQ(hits.load(), 100u);
  release = true;
  EXPECT_EQ(job.get(), 7);
}

// ---------------------------------------------------------------------------
// Clock seam (util/clock) and cooperative stop (util/cancel).

TEST(Clock, SteadyClockAdvancesMonotonically) {
  const Clock& clock = steady_clock();
  const std::uint64_t a = clock.now_us();
  const std::uint64_t b = clock.now_us();
  EXPECT_GE(b, a);
  clock.sleep_us(1000);
  EXPECT_GE(clock.now_us(), a + 1000);
}

TEST(Clock, FakeClockIsScripted) {
  FakeClock clock(100);
  EXPECT_EQ(clock.now_us(), 100u);
  clock.advance_us(50);
  EXPECT_EQ(clock.now_us(), 150u);
  clock.set_us(10);
  EXPECT_EQ(clock.now_us(), 10u);

  // sleep advances scripted time without blocking.
  clock.sleep_us(500);
  EXPECT_EQ(clock.now_us(), 510u);
  clock.sleep_us(250);
  EXPECT_EQ(clock.now_us(), 760u);

  // Auto-advance: every query ticks time forward deterministically.
  clock.set_us(0);
  clock.auto_advance_us(7);
  EXPECT_EQ(clock.now_us(), 7u);
  EXPECT_EQ(clock.now_us(), 14u);
  clock.auto_advance_us(0);
  EXPECT_EQ(clock.now_us(), 14u);
}

TEST(Cancel, TokenSharesOneFlagAcrossCopies) {
  const CancelToken unarmed;
  EXPECT_FALSE(unarmed.armed());
  EXPECT_FALSE(unarmed.cancelled());
  unarmed.cancel();  // no-op, no crash
  EXPECT_FALSE(unarmed.cancelled());

  const CancelToken token = CancelToken::make();
  const CancelToken copy = token;
  EXPECT_TRUE(token.armed());
  EXPECT_FALSE(copy.cancelled());
  token.cancel();
  EXPECT_TRUE(copy.cancelled());
}

TEST(Cancel, DeadlineExpiresOnItsClock) {
  FakeClock clock(1000);
  const Deadline unarmed;
  EXPECT_FALSE(unarmed.armed());
  EXPECT_FALSE(unarmed.expired());

  const Deadline d = Deadline::after(clock, 500);
  EXPECT_TRUE(d.armed());
  EXPECT_FALSE(d.expired());
  clock.advance_us(499);
  EXPECT_FALSE(d.expired());
  clock.advance_us(1);
  EXPECT_TRUE(d.expired());
}

TEST(Cancel, StopCheckRanksCancellationOverDeadline) {
  FakeClock clock;
  const CancelToken token = CancelToken::make();
  const StopCheck stop(token, Deadline::after(clock, 10));
  EXPECT_TRUE(stop.armed());
  EXPECT_EQ(stop.poll(), StopReason::kNone);
  clock.advance_us(20);
  EXPECT_EQ(stop.poll(), StopReason::kDeadline);
  token.cancel();
  EXPECT_EQ(stop.poll(), StopReason::kCancelled);

  const StopCheck idle;
  EXPECT_FALSE(idle.armed());
  EXPECT_EQ(idle.poll(), StopReason::kNone);
  idle.throw_if_stopped("test");  // unarmed: never throws

  try {
    stop.throw_if_stopped("test.site");
    FAIL() << "expected SolveAborted";
  } catch (const SolveAborted& aborted) {
    EXPECT_EQ(aborted.reason(), StopReason::kCancelled);
    EXPECT_NE(std::string(aborted.what()).find("cancel"), std::string::npos);
  }
}

// ---------------------------------------------------------------------------
// util/simd: the exp kernel's accuracy and clamp, and the sweep bodies'
// bitwise agreement with the scalar loops they replace.

std::vector<std::uint64_t> bit_patterns(const std::vector<double>& v) {
  std::vector<std::uint64_t> out;
  for (const double x : v) out.push_back(std::bit_cast<std::uint64_t>(x));
  return out;
}

TEST(Simd, PolyExpWithin64UlpOfLibm) {
  // A uniform grid over the clamp range, plus runs at 1e-9 spacing around
  // every reduction boundary (k +- 1/2) ln 2, where the reduced argument
  // and so the Taylor remainder are largest.
  std::vector<double> x;
  constexpr std::size_t kGrid = std::size_t{1} << 20;
  for (std::size_t i = 0; i <= kGrid; ++i) {
    x.push_back(-708.0 + 1417.0 * static_cast<double>(i) / kGrid);
  }
  for (int k = -1022; k <= 1023; ++k) {
    for (const double half : {-0.5, 0.5}) {
      for (int j = -20; j <= 20; ++j) {
        const double v = (k + half) * std::log(2.0) + j * 1e-9;
        if (v >= -708.0 && v <= 709.0) x.push_back(v);
      }
    }
  }
  std::vector<double> poly(x.size());
  std::vector<double> libm(x.size());
  simd::exp_batch_poly(x.data(), poly.data(), x.size());
  simd::exp_batch_libm(x.data(), libm.data(), x.size());
  // Both outputs are positive normal doubles, whose bit patterns order
  // like their values: the pattern difference is the ulp distance.
  const std::vector<std::uint64_t> p = bit_patterns(poly);
  const std::vector<std::uint64_t> l = bit_patterns(libm);
  std::uint64_t worst = 0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    worst = std::max(worst, p[i] > l[i] ? p[i] - l[i] : l[i] - p[i]);
  }
  EXPECT_LE(worst, 64u);
}

TEST(Simd, PolyExpClampsOutsideItsRange) {
  // x[0] and x[5] are the range ends; the rest lie beyond them.
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<double> x = {-708.0, -708.5, -800.0, -1e300, -inf,
                                 709.0,  709.5,  800.0,  1e300,  inf};
  std::vector<double> out(x.size());
  simd::exp_batch_poly(x.data(), out.data(), x.size());
  EXPECT_TRUE(std::isnormal(out[0]) && std::isnormal(out[5]));
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(out[i]),
              std::bit_cast<std::uint64_t>(out[i < 5 ? 0 : 5]))
        << x[i];
  }
}

TEST(Simd, PolyExpIsPurePerElement) {
  // In place, one element at a time or as one batch: the same bits.
  Rng rng(0x5eed);
  std::vector<double> x(1031);
  for (double& v : x) v = rng.uniform_real(-60.0, 60.0);
  std::vector<double> batch(x.size());
  simd::exp_batch_poly(x.data(), batch.data(), x.size());
  std::vector<double> in_place = x;
  simd::exp_batch_poly(in_place.data(), in_place.data(), in_place.size());
  std::vector<double> single(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    simd::exp_batch_poly(&x[i], &single[i], 1);
  }
  EXPECT_EQ(bit_patterns(in_place), bit_patterns(batch));
  EXPECT_EQ(bit_patterns(single), bit_patterns(batch));
}

TEST(Simd, SweepBodiesMatchScalarLoops) {
  Rng rng(0xd1a);
  const double alpha = 1.7;
  const double shift = 0.3;
  for (const std::size_t n : {0, 1, 7, 1024, 1031}) {
    std::vector<double> x(n);
    std::vector<double> num(n);
    std::vector<double> div(n);
    std::vector<double> fill_ref(n);
    std::vector<double> quot_ref(n);
    double max_ref = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      x[i] = rng.uniform_real(-5.0, 5.0);
      num[i] = rng.uniform_real(1e-3, 1e3);  // positive quotients
      div[i] = rng.uniform_real(0.5, 10.0);
      fill_ref[i] = -alpha * (x[i] - shift);
      quot_ref[i] = num[i] / div[i];
      max_ref = std::max(max_ref, quot_ref[i]);
    }
    std::vector<double> fill(n);
    simd::fill_scaled_shift(x.data(), fill.data(), n, alpha, shift);
    EXPECT_EQ(bit_patterns(fill), bit_patterns(fill_ref)) << "n=" << n;
    std::vector<double> quot = num;
    simd::divide_batch(quot.data(), div.data(), n);
    EXPECT_EQ(bit_patterns(quot), bit_patterns(quot_ref)) << "n=" << n;
    std::vector<double> fused = num;
    const double max = simd::divide_max_positive(fused.data(), div.data(), n);
    EXPECT_EQ(bit_patterns(fused), bit_patterns(quot_ref)) << "n=" << n;
    EXPECT_EQ(bit_patterns({max}), bit_patterns({max_ref})) << "n=" << n;
  }
}

TEST(Simd, StepSearchBodiesMatchScalarLoops) {
  Rng rng(0x5ea);
  const double alpha = 312.5;
  const double t = 0.0137;
  for (const std::size_t n : {0, 1, 7, 8, 1024, 1031}) {
    std::vector<double> r(n);
    std::vector<double> slope(n);
    std::vector<double> w(n);
    std::vector<double> x(n);
    std::vector<double> line_ref(n);
    double max_ref = -std::numeric_limits<double>::infinity();
    // The fold the kernel documents: element i into partial sum i mod 8,
    // split by the sign of w x, partials folded in one fixed tree.
    double part[4][8] = {};
    for (std::size_t i = 0; i < n; ++i) {
      r[i] = rng.uniform_real(0.0, 3.0);
      slope[i] = rng.uniform_real(-400.0, 400.0);
      w[i] = slope[i] * rng.uniform_real(1.0, 4.0);
      x[i] = rng.uniform_real(0.0, 1.0);
      line_ref[i] = t * slope[i] - alpha * r[i];
      max_ref = std::max(max_ref, line_ref[i]);
      const double term = w[i] * x[i];
      const int side = term > 0 ? 0 : 1;
      if (term != 0) {
        part[side][i % 8] += term;
        part[side + 2][i % 8] += term * slope[i];
      }
    }
    std::vector<double> line(n);
    const double max =
        simd::fill_line_max(r.data(), slope.data(), alpha, t, line.data(), n);
    EXPECT_EQ(bit_patterns(line), bit_patterns(line_ref)) << "n=" << n;
    EXPECT_EQ(bit_patterns({max}), bit_patterns({max_ref})) << "n=" << n;
    double sums[4];
    simd::split_weighted_sums(w.data(), x.data(), slope.data(), n, sums);
    for (int j = 0; j < 4; ++j) {
      const double* a = part[j];
      const double ref =
          ((a[0] + a[1]) + (a[2] + a[3])) + ((a[4] + a[5]) + (a[6] + a[7]));
      EXPECT_EQ(bit_patterns({sums[j]}), bit_patterns({ref}))
          << "n=" << n << " sum " << j;
    }
  }
  // Negative lines order below zero and -0.0 below +0.0.
  const std::vector<double> zero_r = {0.0, 0.0};
  const std::vector<double> signed_zero = {-0.0, 0.0};
  std::vector<double> out(2);
  EXPECT_EQ(bit_patterns({simd::fill_line_max(zero_r.data(),
                                              signed_zero.data(), 0.0, 1.0,
                                              out.data(), 2)}),
            bit_patterns({0.0}));
}

}  // namespace
}  // namespace dp
