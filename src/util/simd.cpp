#include "util/simd.hpp"

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>

namespace dp::simd {

namespace {

// Argument range producing finite normal results: exp(-708) ~ 3.3e-308 is
// still normal, exp(709) ~ 8.2e307 still finite. Clamping keeps the
// exponent assembly below in the normal range (k + 1023 in [1, 2046]).
constexpr double kLo = -708.0;
constexpr double kHi = 709.0;
constexpr double kLog2e = 1.4426950408889634074;
// Cody-Waite split of ln 2: the hi part has trailing zero bits, so
// x - k*ln2_hi is exact and the reduced argument keeps full precision.
constexpr double kLn2Hi = 6.93147180369123816490e-01;
constexpr double kLn2Lo = 1.90821492927058770002e-10;
// 1.5 * 2^52: adding it rounds to the nearest integer in the low mantissa
// bits (the classic branch-free round-to-nearest for |v| < 2^51).
constexpr double kShifter = 6755399441055744.0;

/// Branch-free double exp, pure per element: every operation is a plain
/// add/mul/compare or an integer op on the bit pattern, so the loop over a
/// batch autovectorizes even at baseline x86-64 (SSE2 has no packed
/// double<->int64 conversion, which is why k is never materialized as an
/// integer VALUE: the magic-shifter add leaves k in the low mantissa bits
/// of `shifted`, and 2^k is assembled by integer arithmetic on those bits
/// — the shifter's low exponent bits are zero, so (bits + 1023) << 52 IS
/// the biased exponent field of 2^k).
///
/// The range clamps below are the one subtlety: under the default
/// -ftrapping-math GCC will not if-convert FP compares (a speculated
/// compare could raise an exception on a signaling NaN), which blocks
/// vectorization of the entire loop. This file is therefore compiled with
/// -fno-trapping-math (see CMakeLists) — that flag only licenses the
/// speculation; every computed value stays bitwise identical.
inline double exp_one(double x) {
  x = x < kLo ? kLo : x;
  x = x > kHi ? kHi : x;
  const double shifted = x * kLog2e + kShifter;
  const double kd = shifted - kShifter;
  const double r = (x - kd * kLn2Hi) - kd * kLn2Lo;
  // Degree-11 Taylor polynomial on |r| <= ln2/2 (remainder ~6e-15 rel),
  // evaluated Estrin-style: the r^2/r^4/r^8 ladder turns the 12-deep
  // Horner dependency chain into ~4 levels, which matters both scalar
  // (latency-bound otherwise) and vectorized.
  const double r2 = r * r;
  const double r4 = r2 * r2;
  const double r8 = r4 * r4;
  const double q0 = 1.0 + r;                                   // r^0..r^1
  const double q1 = 0.5 + r * (1.0 / 6.0);                     // r^2..r^3
  const double q2 = 1.0 / 24.0 + r * (1.0 / 120.0);            // r^4..r^5
  const double q3 = 1.0 / 720.0 + r * (1.0 / 5040.0);          // r^6..r^7
  const double q4 = 1.0 / 40320.0 + r * (1.0 / 362880.0);      // r^8..r^9
  const double q5 = 1.0 / 3628800.0 + r * (1.0 / 39916800.0);  // r^10..r^11
  const double p =
      (q0 + r2 * q1) + r4 * (q2 + r2 * q3) + r8 * (q4 + r2 * q5);
  const std::uint64_t kb = std::bit_cast<std::uint64_t>(shifted);
  const double two_k = std::bit_cast<double>((kb + 1023u) << 52);
  return p * two_k;
}

}  // namespace

// Runtime ISA dispatch: the kernel is pure elementwise IEEE arithmetic and
// this file is built with -ffp-contract=off, so the SSE2/AVX2/AVX-512
// clones produce bitwise-identical outputs — only the lane width differs.
// (FMA contraction is the one width-dependent value change, and it is
// disabled here; the determinism contract therefore holds across hosts.)
// Under TSan the clones must be dropped: target_clones emits an ifunc
// whose resolver runs during relocation processing, BEFORE the TSan
// runtime initializes, which crashes at load in any binary that
// references the dispatched symbol. The clones are bitwise-identical to
// the default body, so the sanitized build loses no behavior.
#if defined(__x86_64__) && defined(__GNUC__) && !defined(__SANITIZE_THREAD__)
#define DP_SIMD_CLONES \
  __attribute__((target_clones("default", "avx2", "arch=x86-64-v4")))
#else
#define DP_SIMD_CLONES
#endif

DP_SIMD_CLONES
void exp_batch_poly(const double* x, double* out, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) out[i] = exp_one(x[i]);
}

void exp_batch_libm(const double* x, double* out, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) out[i] = std::exp(x[i]);
}

DP_SIMD_CLONES
void fill_scaled_shift(const double* x, double* out, std::size_t n,
                       double alpha, double shift) {
  for (std::size_t i = 0; i < n; ++i) out[i] = -alpha * (x[i] - shift);
}

DP_SIMD_CLONES
void divide_batch(double* out, const double* div, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) out[i] /= div[i];
}

DP_SIMD_CLONES
double divide_max_positive(double* out, const double* div, std::size_t n) {
  // All-positive quotients order like their bit patterns read as signed
  // i64 (sign bit clear), so the reduction is a plain integer max — which
  // GCC vectorizes under strict FP semantics (vpcmpgtq+blend on AVX2,
  // vpmaxsq on AVX-512), unlike an FP max reduction. Seed 0 is the bit
  // pattern of +0.0, matching the scalar fold's 0.0 seed.
  std::int64_t mx = 0;
  for (std::size_t i = 0; i < n; ++i) {
    out[i] /= div[i];
    const auto b =
        static_cast<std::int64_t>(std::bit_cast<std::uint64_t>(out[i]));
    mx = mx > b ? mx : b;
  }
  return std::bit_cast<double>(static_cast<std::uint64_t>(mx));
}

namespace {

/// Order-preserving signed key of a non-NaN double's bit pattern (an
/// involution): non-negative doubles keep their pattern, negative ones
/// flip the magnitude bits.
inline std::int64_t order_key(std::int64_t bits) {
  return bits ^ ((bits >> 63) & INT64_MAX);
}

}  // namespace

DP_SIMD_CLONES
double fill_line_max(const double* r, const double* slope, double alpha,
                     double t, double* out, std::size_t n) {
  std::int64_t mx = order_key(static_cast<std::int64_t>(
      std::bit_cast<std::uint64_t>(-std::numeric_limits<double>::infinity())));
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = t * slope[i] - alpha * r[i];
    const std::int64_t key = order_key(
        static_cast<std::int64_t>(std::bit_cast<std::uint64_t>(out[i])));
    mx = mx > key ? mx : key;
  }
  return std::bit_cast<double>(static_cast<std::uint64_t>(order_key(mx)));
}

DP_SIMD_CLONES
void split_weighted_sums(const double* w, const double* x, const double* y,
                         std::size_t n, double sums[4]) {
  // GCC vector extensions: one 8-wide value per partial-sum set, lowered to
  // whatever the clone's ISA offers (one zmm, two ymm or four xmm) with
  // the element order unchanged.
  using Lanes = double __attribute__((vector_size(8 * sizeof(double))));
  constexpr std::size_t kLanes = 8;
  Lanes pos = {};
  Lanes neg = {};
  Lanes pos_y = {};
  Lanes neg_y = {};
  const Lanes zero = {};
  std::size_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    Lanes wv = {};
    Lanes xv = {};
    Lanes yv = {};
    std::memcpy(&wv, w + i, sizeof(Lanes));
    std::memcpy(&xv, x + i, sizeof(Lanes));
    std::memcpy(&yv, y + i, sizeof(Lanes));
    const Lanes t = wv * xv;
    const Lanes ty = t * yv;
    pos += t > zero ? t : zero;
    neg += t < zero ? t : zero;
    pos_y += t > zero ? ty : zero;
    neg_y += t < zero ? ty : zero;
  }
  for (std::size_t j = 0; i + j < n; ++j) {
    const double t = w[i + j] * x[i + j];
    const double ty = t * y[i + j];
    if (t > 0) {
      pos[j] += t;
      pos_y[j] += ty;
    } else if (t < 0) {
      neg[j] += t;
      neg_y[j] += ty;
    }
  }
  const auto fold = [](const Lanes& a) {
    return ((a[0] + a[1]) + (a[2] + a[3])) + ((a[4] + a[5]) + (a[6] + a[7]));
  };
  sums[0] = fold(pos);
  sums[1] = fold(neg);
  sums[2] = fold(pos_y);
  sums[3] = fold(neg_y);
}

}  // namespace dp::simd
