//===- linalg/Kernels.h - dense kernel backends with tiers -----*- C++ -*-===//
///
/// \file
/// The kernel-backend layer behind every dense hot loop (GEMM in
/// Matrix.cpp, the simplex pricing/FTRAN/BTRAN/refactorization loops in
/// lp/Simplex.cpp): two explicit determinism tiers over the same two
/// primitives, dot and axpy.
///
///  - Determinism::Strict (the default) preserves the repo's bit-exact
///    contract: every output element keeps the plain scalar operation
///    sequence - a separate multiply and add per term (no FMA), terms
///    added left to right (no reassociation, no partial sums). The dot
///    is the scalar loop itself; the axpy runs SIMD across elements
///    (AVX2 under __AVX2__, else SSE2), which is legal because its
///    elements are independent: each lane does the same multiply, then
///    the same add, as the scalar loop, so the bits match on every host.
///  - Determinism::Fast trades bit-reproducibility for throughput:
///    reassociated multi-accumulator reductions, and AVX2/FMA when the
///    *running* CPU supports it (decided once at runtime, never at
///    compile time - see kernelBackendName). Fast results are
///    epsilon-verified against Strict (tests/kernels_test.cpp,
///    bench_kernel_backends); the bound is documented in
///    src/linalg/README.md.
///
/// The active tier travels two ways: explicitly (every kernel takes a
/// Determinism argument) and ambiently (a thread-local set by
/// KernelTierScope, read by Matrix's default entry points so deep
/// callees like the batched-Jacobian GEMMs inherit the requesting
/// job's tier without signature churn). Worker threads do NOT inherit
/// the scope automatically - parallel callers must capture the tier by
/// value into their task lambdas, as Matrix.cpp does.
///
//===----------------------------------------------------------------------===//

#ifndef PRDNN_LINALG_KERNELS_H
#define PRDNN_LINALG_KERNELS_H

#include <cstdint>

#if defined(__AVX2__)
#include <immintrin.h>
#elif defined(__SSE2__)
#include <emmintrin.h>
#endif

namespace prdnn {
namespace linalg {

/// Kernel determinism tier. Values are the wire encoding
/// (rpc/Wire.cpp) - append only.
enum class Determinism : std::uint8_t {
  /// Bit-for-bit scalar accumulation order; identical results across
  /// thread counts, machines, and builds. Mandatory for warm-start
  /// basis replay and the ablation benches' identity checks.
  Strict = 0,
  /// Vectorized/reassociated accumulation, epsilon-close to Strict.
  /// Backend (AVX2+FMA vs portable unrolled scalar) is chosen at
  /// runtime per host, so Fast artifacts are not comparable across
  /// machines and never enter the Strict cache key space.
  Fast = 1,
};

const char *toString(Determinism Tier);

/// Name of the backend the Fast tier resolved to on this host:
/// "avx2_fma" or "portable". Resolved once, at first use, from CPUID -
/// a binary built with AVX2 available never executes AVX2 instructions
/// on a host without them.
const char *kernelBackendName();

/// True when the Fast tier is using SIMD (AVX2+FMA) on this host.
bool kernelBackendIsSimd();

namespace detail {

/// Out-of-line Fast-tier primitives (multi-accumulator / SIMD).
double fastDot(const double *A, const double *B, int N);
void fastAxpy(double *Y, const double *X, double Scale, int N);

} // namespace detail

/// Dot product sum_i A[i]*B[i].
///
/// Strict: one sequential add chain, inlined here so the compiler sees
/// the plain scalar loop. It runs at FP-add latency; a caller that needs
/// many independent dots gets throughput by running several chains side
/// by side (lp/Simplex.cpp's FTRAN), never by splitting one chain.
inline double kernelDot(const double *A, const double *B, int N,
                        Determinism Tier) {
  if (Tier == Determinism::Strict) {
    double Sum = 0.0;
    for (int I = 0; I < N; ++I)
      Sum += A[I] * B[I];
    return Sum;
  }
  return detail::fastDot(A, B, N);
}

/// Y[i] += Scale * X[i]; \p X and \p Y must not partially overlap.
/// Callers' zero-skips (skipping Scale == 0 entirely) stay at the call
/// site - they are semantically identical in both tiers and part of the
/// Strict accumulation order.
///
/// Strict: four (AVX2) or two (SSE2) elements per instruction and a
/// scalar tail, each one multiply then one add as in the scalar loop
/// (-ffp-contract=off keeps them unfused); tests/kernels_test.cpp
/// checks the bits against the scalar loop.
///
/// A subtraction loop `Y[i] -= F * X[i]` routes through here as
/// kernelAxpy(Y, X, -F, N): IEEE negation is exact and
/// a + (-t) == a - t, so the Strict bits are unchanged.
inline void kernelAxpy(double *Y, const double *X, double Scale, int N,
                       Determinism Tier) {
  if (Tier != Determinism::Strict) {
    detail::fastAxpy(Y, X, Scale, N);
    return;
  }
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

/// The calling thread's ambient tier (Strict unless a KernelTierScope
/// is live on this thread).
Determinism currentKernelTier();

/// RAII ambient-tier override for the current thread. Installed at the
/// top of each repair job (core/PointRepair.cpp) so the nn/ GEMMs the
/// job calls inherit the request's tier; restores the previous tier on
/// destruction, so nested scopes and reused pool threads stay correct.
class KernelTierScope {
public:
  explicit KernelTierScope(Determinism Tier);
  ~KernelTierScope();

  KernelTierScope(const KernelTierScope &) = delete;
  KernelTierScope &operator=(const KernelTierScope &) = delete;

private:
  Determinism Saved;
};

} // namespace linalg
} // namespace prdnn

#endif // PRDNN_LINALG_KERNELS_H
