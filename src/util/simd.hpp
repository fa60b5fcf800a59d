#pragma once
// Vectorizable elementwise kernels for the round pipeline's exp batches.
//
// The hot exp sites (the Theorem 5 multiplier rule and the zeta packing
// sweep in core/round_pipeline) spend their time in libm's scalar exp: the
// call is opaque to the autovectorizer, so the surrounding loop stays
// scalar no matter how flat the data is. exp_batch_poly is a branch-free
// polynomial exp — range-clamped argument, 2^52 magic-number rounding for
// k = round(x log2 e), Cody-Waite ln2 reduction, degree-11 Horner
// polynomial, exponent-field assembly of 2^k — whose loop body is pure
// straight-line arithmetic on each element and therefore vectorizes (see
// the DP_VEC_REPORT build artifact). It is a deterministic pure function
// per element (identical result at any batch position, thread count or
// chunking). Inputs are clamped to [-708, 709], so every output is a
// finite normal double: any x below -708 gives exp(-708) ~ 3.3e-308 and
// any x above 709 gives exp(709) ~ 8.2e307. Inside the range it is within
// 64 ulp of std::exp: the measured worst case is 57 ulp (max relative
// error 9.0e-15, the degree-11 Taylor remainder), 56 ulp already on
// [-1, 1]. The round pipeline calls it directly; the libm loop stays as
// the reference that tests and bench_micro compare against.

#include <cstddef>

namespace dp::simd {

/// out[i] = exp(x[i]) via the branch-free polynomial kernel. In-place
/// (out == x) is allowed.
void exp_batch_poly(const double* x, double* out, std::size_t n);

/// out[i] = std::exp(x[i]) (libm reference). In-place allowed.
void exp_batch_libm(const double* x, double* out, std::size_t n);

// --- Sweep bodies (fill / divide / max), clones-dispatched ---------------
// The multiplier sweep around the exp call is three more elementwise
// loops: fill the scaled-shifted exponent, divide by the level weight, and
// reduce the chunk maximum. They live here so the same target_clones
// SSE2/AVX2/AVX-512 dispatch (and the same -fno-trapping-math
// -ffp-contract=off compile flags) covers the WHOLE sweep body, not just
// the exp — and so the max reduction can use the bit-pattern integer form
// GCC will actually vectorize (FP max reductions are blocked without
// -ffast-math by NaN/signed-zero semantics).

/// out[i] = -alpha * (x[i] - shift). In-place (out == x) is allowed.
/// Bitwise identical to the scalar expression at any lane width: one sub
/// and one mul per element, no contraction candidates.
void fill_scaled_shift(const double* x, double* out, std::size_t n,
                       double alpha, double shift);

/// out[i] /= div[i]. In-place over the sweep's exp output.
void divide_batch(double* out, const double* div, std::size_t n);

/// out[i] /= div[i], returning max(0.0, max_i out[i]) — the sweep's fused
/// divide + chunk-max. REQUIRES every quotient to be positive (here: exp
/// output / positive level weight, never zero or negative). For positive
/// doubles the numeric order equals the order of the bit patterns as
/// signed 64-bit integers (sign bit clear, so patterns are in [0, 2^63)),
/// and an integer max reduction with a 0 seed (the bit pattern of +0.0)
/// is exactly the scalar std::max fold seeded with 0.0 — bitwise
/// identical across lane widths, but vectorizable without -ffast-math.
double divide_max_positive(double* out, const double* div, std::size_t n);

}  // namespace dp::simd
