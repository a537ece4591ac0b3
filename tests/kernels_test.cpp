//===- tests/kernels_test.cpp - determinism-tier kernel tests -----------------===//
//
// The Strict/Fast kernel tier contract (src/linalg/README.md):
// Strict is bit-for-bit the seed's scalar accumulation at any thread
// count, its SIMD axpy included; Fast is epsilon-verified against
// Strict, including on adversarial inputs (NaN, signed zero, denormals,
// catastrophic cancellation); the ambient tier travels by
// KernelTierScope; the tier round-trips through the RPC wire codec; and
// no cached artifact ever crosses tiers (a Fast artifact can never
// serve a Strict request, and Fast LP solves never touch the warm-start
// basis cache). Runs under the CI ThreadSanitizer job.
//
//===----------------------------------------------------------------------===//

#include "linalg/Kernels.h"

#include "api/RepairEngine.h"
#include "cache/Fingerprint.h"
#include "linalg/Matrix.h"
#include "nn/ActivationLayers.h"
#include "nn/LinearLayers.h"
#include "persist/Codec.h"
#include "rpc/Wire.h"
#include "serve/RepairService.h"
#include "support/Parallel.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <vector>

namespace {

using namespace prdnn;
using persist::ByteReader;
using persist::ByteWriter;

constexpr double kEps = 2.220446049250313e-16; // 2^-52
constexpr double kBoundFactor = 16.0;

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

/// The epsilon contract for one pair of values accumulated over \p N
/// products whose absolute sum is \p AbsSum.
void expectWithinEpsilon(double Strict, double Fast, double AbsSum, int N) {
  if (std::isnan(Strict) || std::isnan(Fast)) {
    EXPECT_EQ(std::isnan(Strict), std::isnan(Fast));
    return;
  }
  double Bound = kBoundFactor * static_cast<double>(N) * kEps * AbsSum;
  EXPECT_LE(std::fabs(Fast - Strict), Bound);
}

/// Every element of a Fast product vs its Strict twin, with the
/// magnitude envelope |A|*|B| computed under Strict.
void expectMatrixWithinEpsilon(const Matrix &Strict, const Matrix &Fast,
                               const Matrix &AbsRef, int N) {
  ASSERT_EQ(Strict.rows(), Fast.rows());
  ASSERT_EQ(Strict.cols(), Fast.cols());
  for (int I = 0; I < Strict.rows(); ++I)
    for (int J = 0; J < Strict.cols(); ++J)
      expectWithinEpsilon(Strict(I, J), Fast(I, J), AbsRef(I, J), N);
}

Matrix absMatrix(const Matrix &M) {
  Matrix A(M.rows(), M.cols());
  for (int I = 0; I < M.rows(); ++I)
    for (int J = 0; J < M.cols(); ++J)
      A(I, J) = std::fabs(M(I, J));
  return A;
}

Network makeClassifier(Rng &R, int InputSize = 5, int Hidden = 12,
                       int Classes = 3) {
  Network Net;
  Net.addLayer(std::make_unique<FullyConnectedLayer>(
      randomMatrix(R, Hidden, InputSize, 0.9), randomVector(R, Hidden, 0.3)));
  Net.addLayer(std::make_unique<ReLULayer>(Hidden));
  Net.addLayer(std::make_unique<FullyConnectedLayer>(
      randomMatrix(R, Classes, Hidden, 0.9), randomVector(R, Classes, 0.3)));
  return Net;
}

PointSpec makeSpec(Rng &R, const Network &Net, int Points) {
  PointSpec Spec;
  for (int I = 0; I < Points; ++I)
    Spec.push_back({randomVector(R, Net.inputSize(), 1.5),
                    classificationConstraint(
                        Net.outputSize(),
                        R.uniformInt(0, Net.outputSize() - 1), 1e-3),
                    std::nullopt});
  return Spec;
}

// --- Tier plumbing ----------------------------------------------------------

TEST(KernelTier, AmbientTierDefaultsStrictAndScopesNestAndRestore) {
  EXPECT_EQ(linalg::currentKernelTier(), linalg::Determinism::Strict);
  {
    linalg::KernelTierScope Fast(linalg::Determinism::Fast);
    EXPECT_EQ(linalg::currentKernelTier(), linalg::Determinism::Fast);
    {
      linalg::KernelTierScope Strict(linalg::Determinism::Strict);
      EXPECT_EQ(linalg::currentKernelTier(), linalg::Determinism::Strict);
    }
    EXPECT_EQ(linalg::currentKernelTier(), linalg::Determinism::Fast);
  }
  EXPECT_EQ(linalg::currentKernelTier(), linalg::Determinism::Strict);
}

TEST(KernelTier, BackendNameIsResolvedAndStable) {
  const char *Name = linalg::kernelBackendName();
  ASSERT_NE(Name, nullptr);
  EXPECT_STREQ(Name, linalg::kernelBackendName());
  // The SIMD flag and the name must agree.
  if (linalg::kernelBackendIsSimd())
    EXPECT_STRNE(Name, "portable");
  else
    EXPECT_STREQ(Name, "portable");
}

// --- Strict bit-identity ----------------------------------------------------

TEST(KernelTier, StrictMatchesInlineScalarReferenceBitwise) {
  // The Strict tier is the seed's accumulation order: a plain
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
    Matrix C = A.multiply(B, linalg::Determinism::Strict);
    Vector Y = A.apply(X, linalg::Determinism::Strict);
    for (int I = 0; I < M; ++I) {
      EXPECT_EQ(Y[I], RefApply[I]) << "threads " << Threads;
      for (int J = 0; J < N; ++J)
        EXPECT_EQ(C(I, J), RefMul(I, J)) << "threads " << Threads;
    }
    // The default entry point under no scope is Strict - same bits.
    Matrix CDefault = A.multiply(B);
    for (int I = 0; I < M; ++I)
      for (int J = 0; J < N; ++J)
        EXPECT_EQ(CDefault(I, J), C(I, J));
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

TEST(KernelTier, StrictAxpyMatchesScalarLoopBitwise) {
  // The Strict axpy runs SIMD lanes (AVX2, or SSE2 on a generic-arch
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
          linalg::kernelAxpy(Got.data() + YOff, X.data() + XOff, Scale, N,
                             linalg::Determinism::Strict);
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

// --- Fast epsilon contract --------------------------------------------------

TEST(KernelTier, FastWithinEpsilonOfStrictOnRandomMatrices) {
  Rng R(302);
  int Saved = globalThreadCount();
  // Sizes straddle the SIMD lane widths (16/8/4) and their remainders.
  for (int N : {3, 17, 33, 100}) {
    Matrix A = randomMatrix(R, N, N);
    Matrix B = randomMatrix(R, N, N);
    Matrix AbsMul =
        absMatrix(A).multiply(absMatrix(B), linalg::Determinism::Strict);
    Matrix AbsMulT = absMatrix(A).multiplyTransposed(
        absMatrix(B), linalg::Determinism::Strict);
    for (int Threads : {1, 4}) {
      setGlobalThreadCount(Threads);
      expectMatrixWithinEpsilon(
          A.multiply(B, linalg::Determinism::Strict),
          A.multiply(B, linalg::Determinism::Fast), AbsMul, N);
      expectMatrixWithinEpsilon(
          A.multiplyTransposed(B, linalg::Determinism::Strict),
          A.multiplyTransposed(B, linalg::Determinism::Fast), AbsMulT, N);
    }
  }
  setGlobalThreadCount(Saved);
}

TEST(KernelTier, FastPropagatesNaNLikeStrict) {
  Rng R(303);
  const int N = 40;
  Matrix A = randomMatrix(R, N, N);
  Matrix B = randomMatrix(R, N, N);
  A(3, 17) = std::numeric_limits<double>::quiet_NaN();
  Matrix Strict = A.multiply(B, linalg::Determinism::Strict);
  Matrix Fast = A.multiply(B, linalg::Determinism::Fast);
  for (int I = 0; I < N; ++I)
    for (int J = 0; J < N; ++J)
      EXPECT_EQ(std::isnan(Strict(I, J)), std::isnan(Fast(I, J)))
          << I << "," << J;
  // Row 3 hit the NaN in every dot; other rows are clean.
  EXPECT_TRUE(std::isnan(Fast(3, 0)));
  EXPECT_FALSE(std::isnan(Fast(2, 0)));
}

TEST(KernelTier, FastHandlesSignedZeroAndDenormals) {
  const int N = 19;
  Matrix A(3, N), B(N, 3);
  for (int J = 0; J < N; ++J) {
    A(0, J) = -0.0;
    A(1, J) = (J % 2 == 0) ? 5e-310 : -5e-310; // denormal inputs
    A(2, J) = 0.0;
    for (int C = 0; C < 3; ++C)
      B(J, C) = (C == 1) ? 2.0 : 1.0;
  }
  Matrix Strict = A.multiply(B, linalg::Determinism::Strict);
  Matrix Fast = A.multiply(B, linalg::Determinism::Fast);
  for (int I = 0; I < 3; ++I)
    for (int J = 0; J < 3; ++J) {
      // Everything here is exact in both tiers (zeros, and denormal
      // sums that never round): the tiers agree to the last bit of
      // magnitude, and nothing becomes NaN/Inf.
      EXPECT_TRUE(std::isfinite(Fast(I, J)));
      EXPECT_NEAR(Strict(I, J), Fast(I, J), 1e-300) << I << "," << J;
    }
}

TEST(KernelTier, FastSurvivesCatastrophicCancellation) {
  // Alternating +/- 1e15 pairs with a tiny residual: the dot's exact
  // value is the residual, and the epsilon bound - which scales with
  // sum |a_i b_i|, not with the result - is what makes the contract
  // honest about cancellation.
  const int N = 64;
  Matrix A(1, N), B(N, 1);
  double AbsSum = 0.0;
  for (int J = 0; J < N; ++J) {
    A(0, J) = (J % 2 == 0) ? 1e15 : -1e15;
    B(J, 0) = 1.0;
    AbsSum += 1e15;
  }
  A(0, N - 1) = 0.5; // odd slot: cancels all but this
  AbsSum += 0.5 - 1e15;
  Matrix Strict = A.multiply(B, linalg::Determinism::Strict);
  Matrix Fast = A.multiply(B, linalg::Determinism::Fast);
  expectWithinEpsilon(Strict(0, 0), Fast(0, 0), AbsSum, N);
}

// --- Wire codec round-trip --------------------------------------------------

TEST(KernelTier, TierRoundTripsThroughWireCodec) {
  Rng R(304);
  Network Net = makeClassifier(R);
  NetworkFingerprint Fp = fingerprintNetwork(Net);

  // Explicit Fast request tier + Fast LP tier.
  serve::ServeRequest Request;
  Request.Model = Fp;
  Request.Spec = makeSpec(R, Net, 2);
  Request.LayerIndex = 2;
  Request.Options.Determinism = linalg::Determinism::Fast;
  Request.Options.Lp.Determinism = linalg::Determinism::Fast;

  ByteWriter W;
  rpc::writeServeRequest(W, Request);
  ByteReader Reader(W.buffer().data(), W.buffer().size());
  serve::ServeRequest Back;
  ASSERT_TRUE(rpc::readServeRequest(Reader, Back));
  EXPECT_EQ(Reader.remaining(), 0u);
  ASSERT_TRUE(Back.Options.Determinism.has_value());
  EXPECT_EQ(*Back.Options.Determinism, linalg::Determinism::Fast);
  EXPECT_EQ(Back.Options.Lp.Determinism, linalg::Determinism::Fast);
  // Canonical: re-encoding reproduces the bytes.
  ByteWriter Again;
  rpc::writeServeRequest(Again, Back);
  EXPECT_EQ(W.buffer(), Again.buffer());

  // Unset tier survives as unset (the server default must stay the
  // server's decision, not harden into Strict on the wire).
  Request.Options.Determinism.reset();
  Request.Options.Lp.Determinism = linalg::Determinism::Strict;
  ByteWriter W2;
  rpc::writeServeRequest(W2, Request);
  ByteReader Reader2(W2.buffer().data(), W2.buffer().size());
  serve::ServeRequest Back2;
  ASSERT_TRUE(rpc::readServeRequest(Reader2, Back2));
  EXPECT_FALSE(Back2.Options.Determinism.has_value());
  EXPECT_EQ(Back2.Options.Lp.Determinism, linalg::Determinism::Strict);
}

TEST(KernelTier, ReportCarriesTierThroughWireCodec) {
  Rng R(305);
  auto Net = std::make_shared<Network>(makeClassifier(R));
  PointSpec Spec = makeSpec(R, *Net, 4);

  EngineOptions Options;
  Options.EnableCache = false;
  Options.Determinism = linalg::Determinism::Fast;
  RepairEngine Engine(Options);
  RepairReport Report =
      Engine.run(RepairRequest::points(Net, 2, Spec));
  ASSERT_EQ(Report.Status, RepairStatus::Success);
  ASSERT_EQ(Report.Result.Stats.Determinism, linalg::Determinism::Fast);
  ASSERT_FALSE(Report.Sweep.empty());
  EXPECT_EQ(Report.Sweep[0].Determinism, linalg::Determinism::Fast);

  ByteWriter W;
  rpc::writeRepairReport(W, Report);
  ByteReader Reader(W.buffer().data(), W.buffer().size());
  RepairReport Back;
  ASSERT_TRUE(rpc::readRepairReport(Reader, Back));
  EXPECT_EQ(Back.Result.Stats.Determinism, linalg::Determinism::Fast);
  ASSERT_EQ(Back.Sweep.size(), Report.Sweep.size());
  EXPECT_EQ(Back.Sweep[0].Determinism, linalg::Determinism::Fast);
}

// --- Tier-keyed caching -----------------------------------------------------

TEST(KernelTier, HashDeterminismKeepsStrictKeysAndForksFastKeys) {
  Hasher Plain;
  Plain.u64(1);
  Hasher StrictH;
  StrictH.u64(1);
  hashDeterminism(StrictH, linalg::Determinism::Strict);
  Hasher FastH;
  FastH.u64(1);
  hashDeterminism(FastH, linalg::Determinism::Fast);

  // Strict absorbs nothing: every pre-tier cache key (all Strict by
  // construction) is unchanged, so warm L2 stores survive the upgrade.
  Digest128 PlainD = Plain.digest();
  Digest128 StrictD = StrictH.digest();
  Digest128 FastD = FastH.digest();
  EXPECT_EQ(PlainD.Hi, StrictD.Hi);
  EXPECT_EQ(PlainD.Lo, StrictD.Lo);
  EXPECT_FALSE(FastD.Hi == StrictD.Hi && FastD.Lo == StrictD.Lo);
}

TEST(KernelTier, FastArtifactsNeverServeStrictRequests) {
  Rng R(306);
  auto Net = std::make_shared<Network>(makeClassifier(R));
  PointSpec Spec = makeSpec(R, *Net, 6);

  RepairEngine Engine((EngineOptions()));
  ASSERT_TRUE(Engine.hasCache());

  auto RunTier = [&](linalg::Determinism Tier) {
    RepairRequest Request = RepairRequest::points(Net, 2, Spec);
    Request.Options.Determinism = Tier;
    return Engine.run(Request);
  };

  RepairReport Strict1 = RunTier(linalg::Determinism::Strict);
  ASSERT_EQ(Strict1.Status, RepairStatus::Success);
  EXPECT_GT(Strict1.CacheMisses, 0);

  RepairReport Strict2 = RunTier(linalg::Determinism::Strict);
  EXPECT_GT(Strict2.CacheHits, 0);
  EXPECT_EQ(Strict2.CacheMisses, 0);

  // Same network, same spec, other tier: nothing may be served from
  // the Strict entries.
  RepairReport Fast1 = RunTier(linalg::Determinism::Fast);
  ASSERT_EQ(Fast1.Status, RepairStatus::Success);
  EXPECT_EQ(Fast1.CacheHits, 0);
  EXPECT_GT(Fast1.CacheMisses, 0);

  // And the Fast entries serve later Fast requests normally.
  RepairReport Fast2 = RunTier(linalg::Determinism::Fast);
  EXPECT_GT(Fast2.CacheHits, 0);
  EXPECT_EQ(Fast2.CacheMisses, 0);

  // Strict results are bit-identical across the interleaving (the
  // Fast runs shared nothing with them).
  RepairReport Strict3 = RunTier(linalg::Determinism::Strict);
  EXPECT_EQ(Strict3.Result.DeltaL1, Strict1.Result.DeltaL1);
  EXPECT_EQ(Strict3.Result.DeltaLInf, Strict1.Result.DeltaLInf);
}

TEST(KernelTier, FastSolvesNeverTouchTheBasisCache) {
  Rng R(307);
  auto Net = std::make_shared<Network>(makeClassifier(R));
  PointSpec Spec = makeSpec(R, *Net, 6);

  RepairEngine Engine((EngineOptions()));
  auto RunTier = [&](linalg::Determinism Tier) {
    RepairRequest Request = RepairRequest::points(Net, 2, Spec);
    Request.Options.Determinism = Tier;
    return Engine.run(Request);
  };

  // Warm the basis cache with two Strict runs; the second replays.
  RepairReport Strict1 = RunTier(linalg::Determinism::Strict);
  ASSERT_EQ(Strict1.Status, RepairStatus::Success);
  RepairReport Strict2 = RunTier(linalg::Determinism::Strict);
  EXPECT_GT(Strict2.Result.Stats.BasisHits, 0);

  // Fast runs solve cold - no basis reads (hits) even when warm
  // Strict bases exist, and repeated Fast runs stay cold too.
  RepairReport Fast1 = RunTier(linalg::Determinism::Fast);
  EXPECT_EQ(Fast1.Result.Stats.BasisHits, 0);
  RepairReport Fast2 = RunTier(linalg::Determinism::Fast);
  EXPECT_EQ(Fast2.Result.Stats.BasisHits, 0);
  EXPECT_EQ(Fast2.Result.Stats.BasisMisses, 0); // gated off, not missing
}

// --- Solution-level agreement ----------------------------------------------

TEST(KernelTier, FastRepairAgreesWithStrictAtSolutionLevel) {
  Rng R(308);
  Network Net = makeClassifier(R, 5, 14, 4);
  Rng SpecR(309);
  PointSpec Spec = makeSpec(SpecR, Net, 8);
  int Layer = Net.parameterizedLayerIndices().back();

  RepairOptions StrictOptions;
  StrictOptions.Determinism = linalg::Determinism::Strict;
  RepairResult Strict = repairPoints(Net, Layer, Spec, StrictOptions);
  ASSERT_EQ(Strict.Status, RepairStatus::Success);
  EXPECT_EQ(Strict.Stats.Determinism, linalg::Determinism::Strict);

  RepairOptions FastOptions;
  FastOptions.Determinism = linalg::Determinism::Fast;
  RepairResult Fast = repairPoints(Net, Layer, Spec, FastOptions);
  ASSERT_EQ(Fast.Status, RepairStatus::Success);
  EXPECT_EQ(Fast.Stats.Determinism, linalg::Determinism::Fast);

  // Solution-level: same objective norm to epsilon (the Delta vector
  // itself may differ - Fast simplex can land on another vertex of an
  // equal-objective face), and the repaired network still satisfies
  // the spec on re-verification.
  EXPECT_NEAR(Fast.DeltaL1, Strict.DeltaL1,
              1e-6 * std::max(1.0, Strict.DeltaL1));
  EXPECT_LE(Fast.Stats.VerifiedViolation, 1e-6);
}

} // namespace
