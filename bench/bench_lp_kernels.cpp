//===- bench/bench_lp_kernels.cpp - parallel simplex kernel bench -------------===//
//
// Measures the blocked/parallel revised-simplex kernels (pricing,
// FTRAN/BTRAN, refactorization, eta update, ratio preselection) against
// the scalar reference path on dense LPs of M in {64, 256, 1024} kept
// rows (M/2 structural variables, so NT = 1.5 M columns), at 1, 4, and
// 8 pool threads. The parallel path promises bit-for-bit the scalar
// solutions, so besides end-to-end and per-kernel speedups the bench
// checks - and exits non-zero on - any solution divergence (status, X,
// duals, objective bits) or pivot-sequence mismatch (pivot hash /
// iteration counts) at any thread count.
//
// Emits BENCH_lp_kernels.json, one record per (M, threads): scalar and
// parallel wall seconds, end-to-end speedup, per-kernel seconds and
// speedups, iterations/refactors, max solution divergence (must be 0),
// and pivot-hash agreement. Kernel speedups track core count: on a
// 1-core container every speedup is ~1x by construction; the 4/8
// thread rows become meaningful on CI-class multicore hosts.
//
// Run with --smoke (CI) to drop the M = 1024 size and repeats.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "lp/Simplex.h"
#include "support/Parallel.h"
#include "support/Rng.h"
#include "support/Table.h"
#include "support/Timer.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

using namespace prdnn;
using namespace prdnn::lp;
using namespace prdnn::bench;

namespace {

/// Dense feasible LP with M rows and M/2 bounded variables, built
/// around a witness point; mixed <= / >= / two-sided rows keep both
/// phase-1 and phase-2 pivoting busy.
LinearProgram makeDenseLp(int M, uint64_t Seed) {
  int Vars = M / 2;
  Rng R(Seed);
  LinearProgram P;
  std::vector<double> Witness(static_cast<size_t>(Vars));
  for (int J = 0; J < Vars; ++J) {
    P.addVariable(-10.0, 10.0, R.normal());
    Witness[static_cast<size_t>(J)] = R.uniform(-5.0, 5.0);
  }
  for (int I = 0; I < M; ++I) {
    std::vector<int> Index(static_cast<size_t>(Vars));
    std::vector<double> Value(static_cast<size_t>(Vars));
    double Activity = 0.0;
    for (int J = 0; J < Vars; ++J) {
      Index[static_cast<size_t>(J)] = J;
      double C = R.normal();
      Value[static_cast<size_t>(J)] = C;
      Activity += C * Witness[static_cast<size_t>(J)];
    }
    double Slack = R.uniform(0.1, 1.5);
    if (I % 3 == 0)
      P.addRow(std::move(Index), std::move(Value), Activity - Slack,
               Activity + Slack);
    else if (I % 3 == 1)
      P.addRowLe(std::move(Index), std::move(Value), Activity + Slack);
    else
      P.addRowGe(std::move(Index), std::move(Value), Activity - Slack);
  }
  return P;
}

/// Max absolute elementwise difference; huge if shapes differ or one
/// side is NaN where the other is not (a plain fabs of a NaN difference
/// would vanish inside std::max and hide the divergence).
double maxDiff(const std::vector<double> &A, const std::vector<double> &B) {
  if (A.size() != B.size())
    return 1e300;
  double Max = 0.0;
  for (size_t I = 0; I < A.size(); ++I) {
    double D = std::fabs(A[I] - B[I]);
    if (std::isnan(D))
      D = std::isnan(A[I]) && std::isnan(B[I]) ? 0.0 : 1e300;
    Max = std::max(Max, D);
  }
  return Max;
}

struct Measured {
  LpSolution Sol;
  double Seconds = 0.0; // best-of-repeats wall time
};

Measured solveTimed(const LinearProgram &P, const SimplexOptions &Options,
                    int Repeats) {
  Measured Out;
  Out.Seconds = 1e300;
  for (int Rep = 0; Rep < Repeats; ++Rep) {
    WallTimer Timer;
    LpSolution Sol = solveLp(P, Options);
    Out.Seconds = std::min(Out.Seconds, Timer.seconds());
    Out.Sol = std::move(Sol);
  }
  return Out;
}

double ratio(double Num, double Den) { return Den > 0.0 ? Num / Den : 0.0; }

} // namespace

int main(int argc, char **argv) {
  bool Smoke = false;
  for (int I = 1; I < argc; ++I)
    Smoke = Smoke || std::strcmp(argv[I], "--smoke") == 0;
  std::vector<int> Sizes = Smoke ? std::vector<int>{64, 256}
                                 : std::vector<int>{64, 256, 1024};
  const int Repeats = Smoke ? 1 : 3;

  int SavedThreads = globalThreadCount();
  std::printf("=== Parallel simplex kernels vs scalar path%s ===\n",
              Smoke ? " (smoke)" : "");
  std::printf("hardware concurrency: %u; initial pool threads: %d\n\n",
              std::thread::hardware_concurrency(), SavedThreads);

  BenchJson Json("lp_kernels");
  TablePrinter Table({"M", "threads", "scalar(s)", "parallel(s)", "speedup",
                      "pricing x", "ftran x", "btran x", "refactor x",
                      "iters", "max |dX|"});

  bool DivergenceOk = true;
  bool PivotsOk = true;

  for (int M : Sizes) {
    LinearProgram P = makeDenseLp(M, 42000 + static_cast<uint64_t>(M));

    // Scalar reference: kernel path fixed to the scalar loops.
    SimplexOptions ScalarOpts;
    ScalarOpts.ParallelKernels = false;
    setGlobalThreadCount(1);
    Measured Scalar = solveTimed(P, ScalarOpts, Repeats);
    if (Scalar.Sol.Status != SolveStatus::Optimal) {
      std::printf("M=%d: scalar solve returned %s - bench workload must be "
                  "Optimal\n",
                  M, toString(Scalar.Sol.Status));
      setGlobalThreadCount(SavedThreads);
      return 1;
    }

    SimplexOptions ParOpts;
    ParOpts.ParallelKernels = true;
    ParOpts.ParallelMinDim = 1; // measure the kernels at every size
    for (int Threads : {1, 4, 8}) {
      setGlobalThreadCount(Threads);
      Measured Par = solveTimed(P, ParOpts, Repeats);

      double Diff = std::max(maxDiff(Par.Sol.X, Scalar.Sol.X),
                             maxDiff(Par.Sol.RowDuals, Scalar.Sol.RowDuals));
      if (Par.Sol.Status != Scalar.Sol.Status ||
          Par.Sol.Objective != Scalar.Sol.Objective)
        Diff = std::max(Diff, 1e300);
      bool SamePivots =
          Par.Sol.Stats.PivotHash == Scalar.Sol.Stats.PivotHash &&
          Par.Sol.Iterations == Scalar.Sol.Iterations &&
          Par.Sol.Stats.Refactors == Scalar.Sol.Stats.Refactors;
      DivergenceOk = DivergenceOk && Diff == 0.0;
      PivotsOk = PivotsOk && SamePivots;

      const SimplexStats &Ss = Scalar.Sol.Stats;
      const SimplexStats &Ps = Par.Sol.Stats;
      double Speedup = ratio(Scalar.Seconds, Par.Seconds);

      Json.beginRecord();
      Json.add("m", M);
      Json.add("vars", P.numVariables());
      Json.add("threads", Threads);
      Json.add("smoke", Smoke ? 1 : 0);
      Json.add("scalar_seconds", Scalar.Seconds);
      Json.add("parallel_seconds", Par.Seconds);
      Json.add("end_to_end_speedup", Speedup);
      Json.add("scalar_pricing_seconds", Ss.PricingSeconds);
      Json.add("scalar_ftran_seconds", Ss.FtranSeconds);
      Json.add("scalar_btran_seconds", Ss.BtranSeconds);
      Json.add("scalar_ratio_seconds", Ss.RatioSeconds);
      Json.add("scalar_update_seconds", Ss.UpdateSeconds);
      Json.add("scalar_refactor_seconds", Ss.RefactorSeconds);
      Json.add("parallel_pricing_seconds", Ps.PricingSeconds);
      Json.add("parallel_ftran_seconds", Ps.FtranSeconds);
      Json.add("parallel_btran_seconds", Ps.BtranSeconds);
      Json.add("parallel_ratio_seconds", Ps.RatioSeconds);
      Json.add("parallel_update_seconds", Ps.UpdateSeconds);
      Json.add("parallel_refactor_seconds", Ps.RefactorSeconds);
      Json.add("pricing_speedup", ratio(Ss.PricingSeconds, Ps.PricingSeconds));
      Json.add("ftran_speedup", ratio(Ss.FtranSeconds, Ps.FtranSeconds));
      Json.add("btran_speedup", ratio(Ss.BtranSeconds, Ps.BtranSeconds));
      Json.add("refactor_speedup",
               ratio(Ss.RefactorSeconds, Ps.RefactorSeconds));
      Json.add("update_speedup", ratio(Ss.UpdateSeconds, Ps.UpdateSeconds));
      Json.add("iterations", Par.Sol.Iterations);
      Json.add("refactors", Ps.Refactors);
      Json.add("pivots", Ps.Pivots);
      Json.add("bound_flips", Ps.BoundFlips);
      Json.add("max_divergence", Diff);
      Json.add("pivot_hash_match", SamePivots ? 1 : 0);
      Json.add("hardware_concurrency",
               static_cast<int>(std::thread::hardware_concurrency()));

      Table.addRow({std::to_string(M), std::to_string(Threads),
                    formatDouble(Scalar.Seconds, 4),
                    formatDouble(Par.Seconds, 4), formatDouble(Speedup, 2),
                    formatDouble(ratio(Ss.PricingSeconds, Ps.PricingSeconds), 2),
                    formatDouble(ratio(Ss.FtranSeconds, Ps.FtranSeconds), 2),
                    formatDouble(ratio(Ss.BtranSeconds, Ps.BtranSeconds), 2),
                    formatDouble(ratio(Ss.RefactorSeconds, Ps.RefactorSeconds),
                                 2),
                    std::to_string(Par.Sol.Iterations),
                    Diff == 0.0 ? "0" : formatDouble(Diff, 12)});
    }
  }
  setGlobalThreadCount(SavedThreads);

  Table.print(std::cout);
  std::string JsonFile = Json.write();
  if (!JsonFile.empty())
    std::printf("\nwrote %s\n", JsonFile.c_str());

  bool Ok = DivergenceOk && PivotsOk;
  std::printf("%s\n", Ok ? "bench_lp_kernels: parallel kernels bit-identical "
                           "to the scalar path at 1/4/8 threads"
                         : "bench_lp_kernels: DETERMINISM CHECK FAILED");
  return Ok ? 0 : 1;
}
