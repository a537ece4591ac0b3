//===- tests/kernels_test.cpp - dense kernel bit-identity tests --------------===//
//
// The kernel contract (src/linalg/README.md): Matrix products are
// bit-for-bit the seed's scalar accumulation at any thread count, and
// the SIMD axpy (AVX2, or SSE2 on a generic-arch build) matches the
// scalar loop bit for bit, on adversarial inputs too (NaN, signed
// zero, denormals, infinities).
//
//===----------------------------------------------------------------------===//

#include "linalg/Kernels.h"

#include "linalg/Matrix.h"
#include "support/Parallel.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

namespace {

using namespace prdnn;

Vector randomVector(Rng &R, int Size, double Scale = 1.0) {
  Vector V(Size);
  for (int I = 0; I < Size; ++I)
    V[I] = Scale * R.normal();
  return V;
}

Matrix randomMatrix(Rng &R, int Rows, int Cols, double Scale = 1.0) {
  Matrix M(Rows, Cols);
  for (int I = 0; I < Rows; ++I)
    for (int J = 0; J < Cols; ++J)
      M(I, J) = Scale * R.normal();
  return M;
}

TEST(StrictKernels, StrictMatchesInlineScalarReferenceBitwise) {
  // The kernels keep the seed's accumulation order: a plain
  // ascending-k scalar loop (blocked ikj with one K block, row
  // parallelism only - element-independent).
  Rng R(301);
  const int M = 23, K = 57, N = 31; // K under the 256 GEMM block size
  Matrix A = randomMatrix(R, M, K);
  Matrix B = randomMatrix(R, K, N);
  Vector X = randomVector(R, K);

  Matrix RefMul(M, N);
  for (int I = 0; I < M; ++I)
    for (int Kk = 0; Kk < K; ++Kk)
      for (int J = 0; J < N; ++J)
        RefMul(I, J) += A(I, Kk) * B(Kk, J);
  Vector RefApply(M);
  for (int I = 0; I < M; ++I) {
    double Sum = 0.0;
    for (int Kk = 0; Kk < K; ++Kk)
      Sum += A(I, Kk) * X[Kk];
    RefApply[I] = Sum;
  }

  int Saved = globalThreadCount();
  for (int Threads : {1, 4}) {
    setGlobalThreadCount(Threads);
    Matrix C = A.multiply(B);
    Vector Y = A.apply(X);
    for (int I = 0; I < M; ++I) {
      EXPECT_EQ(Y[I], RefApply[I]) << "threads " << Threads;
      for (int J = 0; J < N; ++J)
        EXPECT_EQ(C(I, J), RefMul(I, J)) << "threads " << Threads;
    }
  }
  setGlobalThreadCount(Saved);
}

/// Bit equality, except that any NaN matches any NaN: IEEE 754 leaves
/// open which payload an add of two NaNs keeps, and a compiler may
/// commute the operands of a scalar add.
bool sameBitsOrBothNaN(double A, double B) {
  if (std::isnan(A) || std::isnan(B))
    return std::isnan(A) && std::isnan(B);
  return std::memcmp(&A, &B, sizeof(double)) == 0;
}

TEST(StrictKernels, StrictAxpyMatchesScalarLoopBitwise) {
  // The axpy runs SIMD lanes (AVX2, or SSE2 on a generic-arch
  // build) and a scalar tail. Every element must carry the scalar loop's
  // multiply-then-add bits at each length around the lane widths, at
  // unaligned offsets, and on signed zeros, denormals, infinities and
  // NaN; the padding around the written range must stay untouched.
  const double Inf = std::numeric_limits<double>::infinity();
  const double NaN = std::numeric_limits<double>::quiet_NaN();
  const double Tiny = std::numeric_limits<double>::denorm_min();
  const double Specials[] = {0.0,  -0.0, Tiny,  -Tiny,  4.9e-310,
                             Inf,  -Inf, NaN,   1e308,  -1e-300};
  const int MaxN = 67, Pad = 3;
  Rng R(311);
  std::vector<double> X(MaxN + 2 * Pad), Y(MaxN + 2 * Pad), Ref, Got;
  int Cases = 0, Mismatches = 0;
  for (int N = 0; N <= MaxN; ++N)
    for (int XOff = 0; XOff < Pad; ++XOff)
      for (int YOff = 0; YOff < Pad; ++YOff)
        for (double Scale : {R.uniform(-2.0, 2.0), 0.0, -0.0, Tiny, 1e300,
                             -Inf, NaN}) {
          for (size_t I = 0; I < X.size(); ++I) {
            bool Special = (I * 7 + static_cast<size_t>(N)) % 5 == 0;
            X[I] = Special ? Specials[(I + static_cast<size_t>(N)) % 10]
                           : R.uniform(-4.0, 4.0);
            Y[I] = (I * 3 + static_cast<size_t>(N)) % 7 == 0
                       ? Specials[(I * 3) % 10]
                       : R.uniform(-4.0, 4.0);
          }
          Ref = Y;
          for (int I = 0; I < N; ++I)
            Ref[static_cast<size_t>(YOff + I)] +=
                Scale * X[static_cast<size_t>(XOff + I)];
          Got = Y;
          linalg::kernelAxpy(Got.data() + YOff, X.data() + XOff, Scale, N);
          ++Cases;
          for (size_t I = 0; I < Got.size(); ++I)
            if (!sameBitsOrBothNaN(Got[I], Ref[I])) {
              if (++Mismatches <= 5)
                ADD_FAILURE() << "N " << N << ", offsets " << XOff << "/"
                              << YOff << ", scale " << Scale << ", element "
                              << I << ": " << Got[I] << " vs " << Ref[I];
            }
        }
  EXPECT_EQ(Mismatches, 0) << "over " << Cases << " cases";
}

} // namespace
