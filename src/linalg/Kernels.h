//===- linalg/Kernels.h - dense dot and axpy kernels -----------*- C++ -*-===//
///
/// \file
/// The two primitives behind every dense hot loop (GEMM in Matrix.cpp,
/// the simplex pricing/FTRAN/BTRAN/refactorization loops in
/// lp/Simplex.cpp): dot and axpy.
///
/// Both keep the repo's bit-exact contract: every output element keeps
/// the plain scalar operation sequence - a separate multiply and add per
/// term (no FMA), terms added left to right (no reassociation, no
/// partial sums). The dot is the scalar loop itself; the axpy runs SIMD
/// across elements (AVX2 under __AVX2__, else SSE2), which is legal
/// because its elements are independent: each lane does the same
/// multiply, then the same add, as the scalar loop, so the bits match on
/// every host.
///
//===----------------------------------------------------------------------===//

#ifndef PRDNN_LINALG_KERNELS_H
#define PRDNN_LINALG_KERNELS_H

#if defined(__AVX2__)
#include <immintrin.h>
#elif defined(__SSE2__)
#include <emmintrin.h>
#endif

namespace prdnn {
namespace linalg {

/// Dot product sum_i A[i]*B[i]: one sequential add chain. It runs at
/// FP-add latency; a caller that needs many independent dots gets
/// throughput by running several chains side by side (lp/Simplex.cpp's
/// FTRAN), never by splitting one chain.
inline double kernelDot(const double *A, const double *B, int N) {
  double Sum = 0.0;
  for (int I = 0; I < N; ++I)
    Sum += A[I] * B[I];
  return Sum;
}

/// Y[i] += Scale * X[i]; \p X and \p Y must not partially overlap.
/// Callers' zero-skips (skipping Scale == 0 entirely) stay at the call
/// site - they are part of the accumulation order.
///
/// Four (AVX2) or two (SSE2) elements per instruction and a scalar
/// tail, each one multiply then one add as in the scalar loop
/// (-ffp-contract=off keeps them unfused); tests/kernels_test.cpp
/// checks the bits against the scalar loop.
///
/// A subtraction loop `Y[i] -= F * X[i]` routes through here as
/// kernelAxpy(Y, X, -F, N): IEEE negation is exact and
/// a + (-t) == a - t, so the bits are unchanged.
inline void kernelAxpy(double *Y, const double *X, double Scale, int N) {
  int I = 0;
#if defined(__AVX2__)
  const __m256d S = _mm256_set1_pd(Scale);
  for (; I + 4 <= N; I += 4)
    _mm256_storeu_pd(Y + I,
                     _mm256_add_pd(_mm256_loadu_pd(Y + I),
                                   _mm256_mul_pd(S, _mm256_loadu_pd(X + I))));
#elif defined(__SSE2__)
  const __m128d S = _mm_set1_pd(Scale);
  for (; I + 2 <= N; I += 2)
    _mm_storeu_pd(Y + I, _mm_add_pd(_mm_loadu_pd(Y + I),
                                    _mm_mul_pd(S, _mm_loadu_pd(X + I))));
#endif
  for (; I < N; ++I)
    Y[I] += Scale * X[I];
}

} // namespace linalg
} // namespace prdnn

#endif // PRDNN_LINALG_KERNELS_H
