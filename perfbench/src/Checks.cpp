//===- perfbench/src/Checks.cpp - properties every output must have ------===//
//
// The checks derive what a correct answer must satisfy from the paper's
// theorems, never from a stored copy of an earlier run's output:
// Definition 5.2 (spec satisfaction, on the repaired DDNN), Theorem 4.5
// (the DDNN output is affine in the edited layer's parameters),
// Theorem 5.4 (the LP optimum is the minimal repair, and an infeasible
// LP proves no single-layer repair exists).
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "lp/NormObjective.h"
#include "nn/Jacobian.h"
#include "nn/LinearLayers.h"
#include "support/Casting.h"
#include "support/Timer.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <exception>
#include <sstream>
#include <thread>

using namespace prdnn;
using namespace perfbench;

namespace {

/// Slack on a spec row: the spec's own satisfaction tolerance
/// (OutputConstraint::satisfiedBy's default).
constexpr double kSpecTol = 1e-6;

/// Relative slack of the affine identity: both sides sum the same
/// terms in different orders, so they differ by rounding only.
constexpr double kAffineTol = 1e-9;

/// Relative slack between two optima of the same LP solved along
/// different pivot paths (the solver's feasibility tolerance is 1e-7).
constexpr double kObjectiveTol = 1e-6;

std::string describe(const char *What, std::size_t Index, double Value) {
  std::ostringstream Os;
  Os << What << " at point " << Index << ": " << Value;
  return Os.str();
}

Vector repairedOutput(const RepairResult &Result, const SpecPoint &P) {
  return P.Pattern ? Result.Repaired->evaluateWithPattern(P.X, *P.Pattern)
                   : Result.Repaired->evaluate(P.X);
}

} // namespace

std::string perfbench::checkSpecSatisfied(const RepairResult &Result,
                                          const PointSpec &Spec) {
  if (!Result.Repaired)
    return "Success without a repaired network";
  for (std::size_t I = 0; I < Spec.size(); ++I) {
    double V = Spec[I].Constraint.violation(repairedOutput(Result, Spec[I]));
    if (V > kSpecTol)
      return describe("spec row violated", I, V);
  }
  return "";
}

std::string perfbench::checkDenseLines(const RepairResult &Result,
                                       const PolytopeSpec &Spec,
                                       int SamplesPerLine) {
  if (!Result.Repaired)
    return "Success without a repaired network";
  for (std::size_t L = 0; L < Spec.size(); ++L) {
    const auto *Segment = std::get_if<SegmentPolytope>(&Spec[L].Shape);
    if (!Segment)
      return "dense check expects line specs";
    for (int S = 0; S < SamplesPerLine; ++S) {
      // Midpoints of equal sub-segments: none is an endpoint.
      double T = (S + 0.5) / SamplesPerLine;
      Vector X = Segment->B - Segment->A;
      X *= T;
      X += Segment->A;
      double V = Spec[L].Constraint.violation(Result.Repaired->evaluate(X));
      if (V > kSpecTol)
        return describe("dense line point violated on line", L, V);
    }
  }
  return "";
}

std::string perfbench::checkAffine(const Network &Net, int LayerIndex,
                                   const RepairResult &Result,
                                   const std::vector<SpecPoint> &Points) {
  if (!Result.Repaired)
    return "Success without a repaired network";
  const std::vector<double> &Delta = Result.Delta;
  for (std::size_t I = 0; I < Points.size(); ++I) {
    const SpecPoint &P = Points[I];
    JacobianResult Jr = paramJacobian(Net, LayerIndex, P.X,
                                      P.Pattern ? &*P.Pattern : nullptr);
    if (Jr.J.cols() != static_cast<int>(Delta.size()))
      return "Delta size differs from the layer's parameter count";
    Vector Y = repairedOutput(Result, P);
    for (int O = 0; O < Jr.J.rows(); ++O) {
      const double *Row = Jr.J.rowData(O);
      double Predicted = Jr.Output[O], Scale = std::fabs(Jr.Output[O]);
      for (std::size_t E = 0; E < Delta.size(); ++E) {
        Predicted += Row[E] * Delta[E];
        Scale += std::fabs(Row[E] * Delta[E]);
      }
      double Gap = std::fabs(Y[O] - Predicted);
      if (!(Gap <= kAffineTol * (1.0 + Scale)))
        return describe("N'(x) != N(x) + J_x Delta", I, Gap);
    }
  }
  return "";
}

std::string perfbench::checkMinimal(const Network &Net, int LayerIndex,
                                    const PointSpec &Spec,
                                    const RepairResult &Result,
                                    double *BatchSeconds, double *LpSeconds) {
  int NumParams = cast<LinearLayer>(&Net.layer(LayerIndex))->numParams();
  std::vector<Vector> Xs;
  std::vector<const NetworkPattern *> Pinned;
  bool AnyPinned = false;
  for (const SpecPoint &P : Spec) {
    Xs.push_back(P.X);
    Pinned.push_back(P.Pattern ? &*P.Pattern : nullptr);
    AnyPinned = AnyPinned || P.Pattern.has_value();
  }
  if (!AnyPinned)
    Pinned.clear();
  WallTimer BatchTimer;
  std::vector<JacobianResult> Jrs =
      paramJacobianBatch(Net, LayerIndex, Xs, Pinned);
  *BatchSeconds = BatchTimer.seconds();

  // Row k of point x: (A_k J_x) Delta <= b_k - A_k N(x) - RowMargin, the
  // same rows Algorithm 1 states, all of them at once.
  const double RowMargin = RepairOptions().RowMargin;
  lp::DeltaLp Lp(NumParams, lp::Norm::L1);
  std::vector<double> Coef(static_cast<size_t>(NumParams));
  for (std::size_t I = 0; I < Spec.size(); ++I) {
    const OutputConstraint &C = Spec[I].Constraint;
    for (int K = 0; K < C.numRows(); ++K) {
      std::fill(Coef.begin(), Coef.end(), 0.0);
      double Activity = 0.0;
      for (int O = 0; O < C.A.cols(); ++O) {
        double AKo = C.A(K, O);
        if (AKo == 0.0)
          continue;
        Activity += AKo * Jrs[I].Output[O];
        const double *JRow = Jrs[I].J.rowData(O);
        for (int E = 0; E < NumParams; ++E)
          Coef[static_cast<size_t>(E)] += AKo * JRow[E];
      }
      Lp.addConstraint(Coef, -lp::kInfinity, C.B[K] - Activity - RowMargin);
    }
  }
  // Single-threaded kernels: the checks of a run solve side by side on
  // all cores (checkAll).
  lp::SimplexOptions Options;
  Options.ParallelKernels = false;
  WallTimer LpTimer;
  lp::LpSolution Sol = lp::solveLp(Lp.problem(), Options);
  *LpSeconds = LpTimer.seconds();

  std::ostringstream Os;
  if (Result.Status == RepairStatus::Infeasible) {
    if (Sol.Status != lp::SolveStatus::Infeasible)
      Os << "Infeasible repair, but the full-row LP is "
         << lp::toString(Sol.Status);
  } else if (Result.Status == RepairStatus::Success) {
    if (Sol.Status != lp::SolveStatus::Optimal)
      Os << "Success, but the full-row LP is " << lp::toString(Sol.Status);
    else if (std::fabs(Sol.Objective - Result.DeltaL1) >
             kObjectiveTol * std::max(1.0, std::fabs(Sol.Objective)))
      Os << "||Delta||_1 = " << Result.DeltaL1
         << " but the full-row LP optimum is " << Sol.Objective;
  } else {
    Os << "repair ended " << toString(Result.Status);
  }
  return Os.str();
}

std::vector<std::string>
perfbench::checkAll(std::size_t Count,
                    const std::function<std::string(std::size_t)> &Check) {
  std::vector<std::string> Errors(Count);
  std::atomic<std::size_t> Next{0};
  std::vector<std::thread> Threads;
  unsigned Cores = std::max(1u, std::thread::hardware_concurrency());
  for (unsigned T = 0; T < Cores; ++T)
    Threads.emplace_back([&] {
      unpinThisThread();
      for (std::size_t I; (I = Next.fetch_add(1)) < Count;) {
        try {
          Errors[I] = Check(I);
        } catch (const std::exception &E) {
          Errors[I] = std::string("check threw: ") + E.what();
        }
      }
    });
  for (std::thread &Thread : Threads)
    Thread.join();
  return Errors;
}

bool perfbench::bitIdentical(const RepairResult &A, const RepairResult &B) {
  auto Same = [](double X, double Y) {
    return std::memcmp(&X, &Y, sizeof(double)) == 0;
  };
  if (A.Status != B.Status || A.Delta.size() != B.Delta.size() ||
      !Same(A.DeltaL1, B.DeltaL1) || !Same(A.DeltaLInf, B.DeltaLInf))
    return false;
  for (std::size_t I = 0; I < A.Delta.size(); ++I)
    if (!Same(A.Delta[I], B.Delta[I]))
      return false;
  return true;
}
