//===- lp/Simplex.cpp - bounded-variable revised simplex -------------------===//
//
// Implementation notes. The LP
//
//   min c.x   s.t.  RowLo <= A x <= RowHi,  VarLo <= x <= VarHi
//
// is rewritten with one slack per row as the equality system
//
//   [A | -I] z = 0,    z = (x, s),   s_i in [RowLo_i, RowHi_i].
//
// The initial basis is the slack set (basis matrix -I), which is always
// nonsingular; phase 1 then minimizes the total bound violation of the
// basic variables (composite phase-1 for bounded variables, cf. Chvatal
// ch. 8), after which phase 2 minimizes the true objective. The basis
// inverse is kept densely and updated with product-form (eta) pivots;
// it is recomputed from scratch by Gauss-Jordan elimination periodically
// and before any terminal status is reported, so returned solutions are
// always re-verified against a freshly factorized basis.
//
// Kernels. Every output element of every dense kernel keeps the
// operation sequence of a plain scalar loop - one multiply, then one
// add, per term, terms in ascending order - so the layouts below change
// no bit:
//  - A is stored once: RowA holds the scaled base columns row-major. A
//    column that is the exact negation of an earlier one (the l1
//    split's Q_j = -P_j) is a mirror and stores nothing.
//  - pricing: one sweep Acc = A_base^T y of row-wise axpys over RowA,
//    then a serial scan of the reduced costs; a mirror is priced from
//    its base's dot.
//  - FTRAN: four Binv row dots side by side; BTRAN, the eta update and
//    refactorization: axpys over Binv rows (SIMD in linalg::kernelAxpy).
//  - ratio test: blocking rows are preselected per row block (the
//    per-row limit computation is order-free), then merged by a serial
//    replay of the scalar scan. The merge must be serial: the tie
//    window tracks the incumbent ratio, so candidate selection is
//    genuinely order-dependent and per-block winners would diverge.
// Once M >= SimplexOptions::ParallelMinDim (and ParallelKernels is on)
// the kernels split their disjoint outputs across the shared
// support/Parallel.h pool; each element is still computed by one thread
// in the scalar order, so any thread count gives the same pivot
// sequence and LpSolution bits (enforced by tests/lp_test.cpp).
// See src/lp/README.md for the full contract.
//
//===----------------------------------------------------------------------===//

#include "lp/Simplex.h"

#include "linalg/Kernels.h"
#include "support/Error.h"
#include "support/Parallel.h"
#include "support/Timer.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <unordered_map>

using namespace prdnn;
using namespace prdnn::lp;

const char *prdnn::lp::toString(SolveStatus Status) {
  switch (Status) {
  case SolveStatus::Optimal:
    return "Optimal";
  case SolveStatus::Infeasible:
    return "Infeasible";
  case SolveStatus::Unbounded:
    return "Unbounded";
  case SolveStatus::IterationLimit:
    return "IterationLimit";
  case SolveStatus::NumericalError:
    return "NumericalError";
  case SolveStatus::Cancelled:
    return "Cancelled";
  }
  // Statuses now travel over the wire (rpc/Wire.h); a value from a
  // foreign peer must print, not abort.
  return "unknown";
}

namespace {

enum class VarStatus : uint8_t { Basic, AtLower, AtUpper, FreeNb };

/// Accumulates the enclosing scope's wall time into a SimplexStats
/// field; timing never feeds back into any computed value, so the
/// instrumentation cannot perturb determinism.
class KernelTimer {
public:
  explicit KernelTimer(double &Accumulator) : Accumulator(Accumulator) {}
  ~KernelTimer() { Accumulator += Timer.seconds(); }
  KernelTimer(const KernelTimer &) = delete;
  KernelTimer &operator=(const KernelTimer &) = delete;

private:
  double &Accumulator;
  WallTimer Timer;
};

/// One simplex solve; owns all scaled problem data and factorizations.
class Worker {
public:
  Worker(const LinearProgram &Problem, const SimplexOptions &Options)
      : Prob(Problem), Opt(Options) {}

  LpSolution run();

private:
  const LinearProgram &Prob;
  SimplexOptions Opt;

  // Shapes: M kept rows, NS structural variables, NT = NS + M total,
  // NB base columns (structural columns that are not mirrors).
  int M = 0, NS = 0, NT = 0, NB = 0;
  std::vector<int> KeptRows;     // worker row -> original row index
  std::vector<int> ColRef;       // per structural: base index b, or ~b
                                 // for the mirror (exact negation) of b
  std::vector<double> RowA;      // row-major scaled base columns, entry
                                 // (i,b) at i*NB + b
  bool AFinite = true;           // no inf/NaN entry in RowA
  std::vector<double> RowScale;  // per kept row
  std::vector<double> Lo, Hi, Cost; // per total variable
  std::vector<int> Basis;           // var basic in each row
  std::vector<VarStatus> Stat;      // per total variable
  std::vector<double> X;            // per total variable
  std::vector<double> Binv;         // dense M*M, row-major
  std::vector<double> W, Y, Cb, Rhs;
  std::vector<double> Acc;    // NB base-column dots A_base^T Y
  std::vector<double> ColBuf; // M: one gathered structural column

  // Parallel-kernel state. All scratch lives on the Worker and is
  // sized once in initialBasis(), so the iteration hot loop allocates
  // nothing (asserted in debug builds via the capacity watermark).
  bool Par = false; // parallel kernels active for this solve
  static constexpr int PriceGrain = 64;  // columns per sweep chunk
  static constexpr int RatioGrain = 256; // rows per ratio block
  int NumRatioBlocks = 0;
  struct RatioCand {
    double Limit;
    double WAbs;
    int Row;
    bool AtUpper;
  };
  std::vector<std::vector<RatioCand>> RatioBlocks; // preselected rows
  std::vector<double> RefB, RefInv;                // refactor scratch

  SimplexStats Stats;

  int Iterations = 0;
  int Phase1Iterations = 0;
  int PivotsSinceRefactor = 0;
  bool Bland = false;
  int Stall = 0;
  double PrevObj = 0.0;
  bool HavePrevObj = false;
  bool WarmStartedV = false; // warm basis accepted for this solve

#ifndef NDEBUG
  // Per-iteration-allocation guard: capacities of every hot-loop
  // buffer, snapshotted after setup; iterate() asserts the counter of
  // capacity changes stays zero.
  std::vector<size_t> ScratchWatermark, ScratchCapsNow;
  void collectScratchCaps(std::vector<size_t> &Out) const;
  void snapshotScratch();
  int scratchGrowths();
#endif

  bool buildProblem(LpSolution &Out); // false => Out holds final status
  void buildColumns();
  void initialBasis();
  void setSlackBasis();
  bool tryWarmStart(const SimplexBasis &Warm);
  bool refactor();
  void recomputeBasicValues();
  double infeasibility() const;
  double currentObjective() const;
  void computeColumn(int J);
  void computeDuals();
  bool isFixed(int J) const { return Hi[J] - Lo[J] <= 1e-30; }

  /// Scaled A(I, J) of structural column \p J, bit for bit the entry a
  /// full copy of A holds: a mirror's 0.0 - v is -v, and +0.0 for v ==
  /// +0.0 (A never holds -0.0: every entry accumulates from +0.0).
  double entry(int I, int J) const {
    int Ref = ColRef[static_cast<size_t>(J)];
    const double *Row = RowA.data() + static_cast<size_t>(I) * NB;
    return Ref >= 0 ? Row[Ref] : 0.0 - Row[~Ref];
  }
  void gatherColumn(int J);

  /// Acc = A_base^T Y: the pricing sweep.
  void sweepDuals();
  /// Reduced cost of column \p J from the last sweep. A mirror's dot is
  /// the exact negation of its base's, and a - (-b) == a + b; the two
  /// forms can differ only in the sign of a zero, which no comparison
  /// on a reduced cost sees.
  double reducedCost(int J, bool Phase1) const {
    double C = Phase1 ? 0.0 : Cost[static_cast<size_t>(J)];
    if (J >= NS)
      return C - (-Y[static_cast<size_t>(J - NS)]);
    int Ref = ColRef[static_cast<size_t>(J)];
    return Ref >= 0 ? C - Acc[static_cast<size_t>(Ref)]
                    : C + Acc[static_cast<size_t>(~Ref)];
  }
  /// Calls \p Store(R, Binv row R . V) for R in [Begin, End).
  template <typename StoreFn>
  void rowDots(int Begin, int End, const double *V, StoreFn Store) const;

  int chooseEntering(bool Phase1, int &SigmaOut);

  struct RatioResult {
    double T = 0.0;
    int Row = -1;
    bool LeaveAtUpper = false;
    bool BoundFlip = false;
    bool Unbounded = false;
  };
  RatioResult ratioTest(int J, int Sigma, bool Phase1);
  RatioResult ratioTestScalar(int J, int Sigma, bool Phase1);
  RatioResult ratioTestParallel(int J, int Sigma, bool Phase1);

  /// The one per-row blocking computation, shared by the scalar scan
  /// and the parallel preselection: how far the entering step travels
  /// before basic row \p R blocks it (Blocking false if it never does).
  struct RowLimit {
    double Limit = 0.0;
    double WAbs = 0.0;
    bool AtUpper = false;
    bool Blocking = false;
  };
  RowLimit rowLimit(int R, int Sigma, bool Phase1) const {
    RowLimit Out;
    double Wr = W[static_cast<size_t>(R)];
    if (std::fabs(Wr) <= Opt.PivotTol)
      return Out;
    double Delta = -Sigma * Wr; // d X[Basis[R]] / d t
    int K = Basis[static_cast<size_t>(R)];
    double V = X[static_cast<size_t>(K)];
    double FeasEps = Opt.FeasTol;

    double Limit = kInfinity;
    bool AtUpper = false;
    if (Phase1 && V < Lo[K] - FeasEps) {
      // Infeasible below its lower bound: blocks only when rising back
      // to that bound.
      if (Delta > 0.0) {
        Limit = (Lo[K] - V) / Delta;
        AtUpper = false;
      }
    } else if (Phase1 && V > Hi[K] + FeasEps) {
      if (Delta < 0.0) {
        Limit = (Hi[K] - V) / Delta;
        AtUpper = true;
      }
    } else if (Delta > 0.0) {
      if (std::isfinite(Hi[K])) {
        Limit = (Hi[K] - V) / Delta;
        AtUpper = true;
      }
    } else { // Delta < 0
      if (std::isfinite(Lo[K])) {
        Limit = (Lo[K] - V) / Delta;
        AtUpper = false;
      }
    }
    if (!std::isfinite(Limit))
      return Out;
    if (Limit < 0.0)
      Limit = 0.0; // degenerate: basic already (numerically) at bound
    Out.Limit = Limit;
    Out.WAbs = std::fabs(Wr);
    Out.AtUpper = AtUpper;
    Out.Blocking = true;
    return Out;
  }

  /// The one incumbent-relative acceptance rule of the ratio test,
  /// shared by the scalar scan and the parallel merge. Prefer strictly
  /// smaller ratios; within a small tie window prefer the larger pivot
  /// magnitude for numerical stability (or the lowest basis index under
  /// Bland's rule). Ties against a bound flip (BestRow < 0) keep the
  /// flip, which is the cheapest step.
  bool ratioBetter(double Limit, double WAbs, int Row, double BestT,
                   int BestRow, double BestPivotMag) const {
    if (!std::isfinite(BestT) || Limit < BestT - 1e-9 * (1.0 + BestT))
      return true;
    if (Limit <= BestT + 1e-9 * (1.0 + BestT) && BestRow >= 0) {
      if (Bland)
        return Basis[static_cast<size_t>(Row)] <
               Basis[static_cast<size_t>(BestRow)];
      return WAbs > BestPivotMag;
    }
    return false;
  }
  void applyStep(int J, int Sigma, const RatioResult &R);
  void updateBinv(int PivotRow);

  SolveStatus iterate(bool Phase1);
  LpSolution finish(SolveStatus Status);
};

#ifndef NDEBUG
void Worker::collectScratchCaps(std::vector<size_t> &Out) const {
  Out.clear();
  Out.push_back(W.capacity());
  Out.push_back(Y.capacity());
  Out.push_back(Cb.capacity());
  Out.push_back(Rhs.capacity());
  Out.push_back(Binv.capacity());
  Out.push_back(X.capacity());
  Out.push_back(Basis.capacity());
  Out.push_back(RowA.capacity());
  Out.push_back(Acc.capacity());
  Out.push_back(ColBuf.capacity());
  Out.push_back(RefB.capacity());
  Out.push_back(RefInv.capacity());
  for (const auto &Block : RatioBlocks)
    Out.push_back(Block.capacity());
}

void Worker::snapshotScratch() {
  collectScratchCaps(ScratchWatermark);
  ScratchCapsNow.reserve(ScratchWatermark.capacity());
}

/// Number of hot-loop buffers whose capacity changed since the
/// snapshot - i.e. per-iteration allocations. Must stay 0.
int Worker::scratchGrowths() {
  collectScratchCaps(ScratchCapsNow);
  if (ScratchCapsNow.size() != ScratchWatermark.size())
    return static_cast<int>(ScratchCapsNow.size() + ScratchWatermark.size());
  int Growths = 0;
  for (size_t I = 0; I < ScratchCapsNow.size(); ++I)
    Growths += ScratchCapsNow[I] != ScratchWatermark[I];
  return Growths;
}
#endif

bool Worker::buildProblem(LpSolution &Out) {
  NS = Prob.numVariables();

  // Light presolve: drop rows with no nonzero coefficients. Such a row
  // is vacuous when 0 lies within its bounds and makes the whole LP
  // infeasible otherwise.
  for (int I = 0; I < Prob.numRows(); ++I) {
    const LpRow &Row = Prob.row(I);
    bool HasNonzero = false;
    for (double V : Row.Value)
      if (V != 0.0) {
        HasNonzero = true;
        break;
      }
    if (HasNonzero) {
      KeptRows.push_back(I);
      continue;
    }
    if (Row.Lo > Opt.FeasTol || Row.Hi < -Opt.FeasTol) {
      Out = LpSolution();
      Out.Status = SolveStatus::Infeasible;
      return false;
    }
  }
  M = static_cast<int>(KeptRows.size());
  NT = NS + M;

  // Row equilibration: divide each row (and its bounds) by its largest
  // coefficient magnitude so feasibility tolerances are meaningful.
  RowScale.assign(static_cast<size_t>(M), 1.0);
  if (Opt.ScaleRows) {
    for (int R = 0; R < M; ++R) {
      const LpRow &Row = Prob.row(KeptRows[R]);
      double MaxAbs = 0.0;
      for (double V : Row.Value)
        MaxAbs = std::max(MaxAbs, std::fabs(V));
      if (MaxAbs > 0.0)
        RowScale[R] = MaxAbs;
    }
  }

  buildColumns();

  Lo.resize(NT);
  Hi.resize(NT);
  Cost.assign(static_cast<size_t>(NT), 0.0);
  for (int J = 0; J < NS; ++J) {
    Lo[J] = Prob.variableLo(J);
    Hi[J] = Prob.variableHi(J);
    Cost[J] = Prob.objectiveCoef(J);
  }
  for (int R = 0; R < M; ++R) {
    const LpRow &Row = Prob.row(KeptRows[R]);
    Lo[NS + R] = Row.Lo / RowScale[R];
    Hi[NS + R] = Row.Hi / RowScale[R];
  }
  return true;
}

void Worker::buildColumns() {
  // Streams scaled row R of A into the dense NS-vector Row, accumulated
  // exactly as a column-major fill from +0.0 would; ClearRow undoes it.
  std::vector<double> Row(static_cast<size_t>(NS), 0.0);
  auto LoadRow = [&](int R) {
    const LpRow &Src = Prob.row(KeptRows[R]);
    for (size_t K = 0; K < Src.Index.size(); ++K)
      Row[static_cast<size_t>(Src.Index[K])] += Src.Value[K] / RowScale[R];
  };
  auto ClearRow = [&](int R) {
    for (int J : Prob.row(KeptRows[R]).Index)
      Row[static_cast<size_t>(J)] = 0.0;
  };
  auto Bits = [](double V) { return std::bit_cast<std::uint64_t>(V); };

  // Mirror candidates: an order-sensitive digest of every column and of
  // its negation; column J is paired with the earliest base column
  // whose negation digest equals J's digest.
  std::vector<std::uint64_t> Digest(static_cast<size_t>(NS),
                                    0xcbf29ce484222325ULL);
  std::vector<std::uint64_t> NegDigest = Digest;
  for (int R = 0; R < M; ++R) {
    LoadRow(R);
    for (int J = 0; J < NS; ++J) {
      double V = Row[static_cast<size_t>(J)];
      Digest[J] = (Digest[J] ^ Bits(V)) * 0x100000001b3ULL;
      NegDigest[J] = (NegDigest[J] ^ Bits(0.0 - V)) * 0x100000001b3ULL;
    }
    ClearRow(R);
  }
  std::vector<int> MirrorOf(static_cast<size_t>(NS), -1);
  std::unordered_map<std::uint64_t, int> BaseByNegDigest;
  for (int J = 0; J < NS; ++J) {
    auto It = BaseByNegDigest.find(Digest[J]);
    if (It != BaseByNegDigest.end())
      MirrorOf[J] = It->second;
    else
      BaseByNegDigest.emplace(NegDigest[J], J);
  }

  // Fill RowA with the base columns. A digest match is only a
  // candidate, so the same pass checks every mirror entry bit for bit;
  // a column that differs anywhere is demoted to a base column and the
  // fill reruns (a 64-bit digest collision: in practice never).
  bool Demoted = true;
  while (Demoted) {
    Demoted = false;
    NB = 0;
    ColRef.resize(static_cast<size_t>(NS));
    for (int J = 0; J < NS; ++J)
      ColRef[J] = MirrorOf[J] < 0 ? NB++ : ~ColRef[MirrorOf[J]];
    RowA.assign(static_cast<size_t>(M) * static_cast<size_t>(NB), 0.0);
    AFinite = true;
    for (int R = 0; R < M; ++R) {
      LoadRow(R);
      double *Out = RowA.data() + static_cast<size_t>(R) * NB;
      for (int J = 0; J < NS; ++J) {
        double V = Row[static_cast<size_t>(J)];
        int B = MirrorOf[J];
        if (ColRef[J] >= 0) {
          Out[ColRef[J]] = V;
          AFinite = AFinite && std::isfinite(V);
        } else if (B >= 0 &&
                   Bits(V) != Bits(0.0 - Row[static_cast<size_t>(B)])) {
          MirrorOf[J] = -1;
          Demoted = true;
        }
      }
      ClearRow(R);
    }
  }
}

void Worker::initialBasis() {
  Basis.resize(M);
  Stat.assign(static_cast<size_t>(NT), VarStatus::AtLower);
  X.assign(static_cast<size_t>(NT), 0.0);
  Binv.assign(static_cast<size_t>(M) * M, 0.0);
  W.resize(M);
  Y.resize(M);
  Cb.resize(M);
  Rhs.resize(M);
  Acc.resize(static_cast<size_t>(NB));
  ColBuf.resize(M);
  // Refactorization scratch (both kernel paths) and the ratio-
  // preselection scratch (parallel path only), sized once so no
  // iteration ever allocates.
  RefB.resize(static_cast<size_t>(M) * M);
  RefInv.resize(static_cast<size_t>(M) * M);
  if (Par) {
    NumRatioBlocks = (M + RatioGrain - 1) / RatioGrain;
    RatioBlocks.resize(static_cast<size_t>(NumRatioBlocks));
    for (auto &Block : RatioBlocks)
      Block.reserve(RatioGrain); // a block never holds more rows
  }
#ifndef NDEBUG
  snapshotScratch();
#endif

  setSlackBasis();
}

void Worker::setSlackBasis() {
  // The cold starting point: every structural nonbasic at its
  // "cheaper" bound (or free at zero) and the always-nonsingular slack
  // basis with inverse -I. Also the bit-exact fallback target when a
  // warm basis is rejected: it rebuilds Stat/X/Basis/Binv wholesale, so
  // a failed warm attempt leaves no trace in any computed value.
  for (int J = 0; J < NS; ++J) {
    bool LoFinite = std::isfinite(Lo[J]);
    bool HiFinite = std::isfinite(Hi[J]);
    if (!LoFinite && !HiFinite) {
      Stat[J] = VarStatus::FreeNb;
      X[J] = 0.0;
    } else if (LoFinite && (!HiFinite || std::fabs(Lo[J]) <= std::fabs(Hi[J]))) {
      Stat[J] = VarStatus::AtLower;
      X[J] = Lo[J];
    } else {
      Stat[J] = VarStatus::AtUpper;
      X[J] = Hi[J];
    }
  }
  std::fill(Binv.begin(), Binv.end(), 0.0);
  for (int R = 0; R < M; ++R) {
    Basis[R] = NS + R;
    Stat[NS + R] = VarStatus::Basic;
    X[NS + R] = 0.0;
    Binv[static_cast<size_t>(R) * M + R] = -1.0;
  }
  recomputeBasicValues();
}

bool Worker::tryWarmStart(const SimplexBasis &Warm) {
  // Validation pass - no Worker state is touched until the snapshot is
  // known to be structurally coherent for *this* LP: exact dimensions,
  // status bytes in range, exactly M basic variables listed once each
  // in Basic[] and marked basic, and bound states only where the bound
  // exists. (The basis-cache key is tolerant of RHS-only drift, so a
  // coherent basis may still be primal-infeasible here; phase 1 repairs
  // that from the warm point, which is the cheap crash we want.)
  if (Warm.NumRows != M || Warm.NumVars != NT)
    return false;
  if (static_cast<int>(Warm.Basic.size()) != M ||
      static_cast<int>(Warm.NonbasicState.size()) != NT)
    return false;
  int BasicCount = 0;
  for (int J = 0; J < NT; ++J) {
    std::uint8_t S = Warm.NonbasicState[J];
    if (S > static_cast<std::uint8_t>(VarStatus::FreeNb))
      return false;
    if (S == static_cast<std::uint8_t>(VarStatus::Basic))
      ++BasicCount;
    if (S == static_cast<std::uint8_t>(VarStatus::AtLower) &&
        !std::isfinite(Lo[J]))
      return false;
    if (S == static_cast<std::uint8_t>(VarStatus::AtUpper) &&
        !std::isfinite(Hi[J]))
      return false;
  }
  if (BasicCount != M)
    return false;
  std::vector<char> InBasis(static_cast<size_t>(NT), 0);
  for (int R = 0; R < M; ++R) {
    int J = Warm.Basic[R];
    if (J < 0 || J >= NT || InBasis[static_cast<size_t>(J)] ||
        Warm.NonbasicState[static_cast<size_t>(J)] !=
            static_cast<std::uint8_t>(VarStatus::Basic))
      return false;
    InBasis[static_cast<size_t>(J)] = 1;
  }

  // Apply, then refactorize once from scratch. A structurally coherent
  // basis can still be numerically singular (e.g. duplicated structural
  // columns); refactor() detects that and we fall back to the slack
  // basis, which rebuilds every mutated buffer - the cold path then
  // proceeds bit-identically to a solve that never saw the warm basis.
  for (int J = 0; J < NT; ++J) {
    switch (static_cast<VarStatus>(Warm.NonbasicState[J])) {
    case VarStatus::Basic:
      Stat[J] = VarStatus::Basic; // X filled by recomputeBasicValues
      break;
    case VarStatus::AtLower:
      Stat[J] = VarStatus::AtLower;
      X[J] = Lo[J];
      break;
    case VarStatus::AtUpper:
      Stat[J] = VarStatus::AtUpper;
      X[J] = Hi[J];
      break;
    case VarStatus::FreeNb:
      Stat[J] = VarStatus::FreeNb;
      X[J] = 0.0;
      break;
    }
  }
  for (int R = 0; R < M; ++R)
    Basis[R] = Warm.Basic[R];
  if (!refactor()) {
    setSlackBasis();
    return false;
  }
  recomputeBasicValues();
  return true;
}

bool Worker::refactor() {
  // Rebuild Binv from the current basis by Gauss-Jordan elimination with
  // partial pivoting, into the hoisted RefB/RefInv scratch. The row-
  // elimination updates parallelize over rows: each row's arithmetic is
  // independent of the partitioning, so the factorization is
  // bit-identical to the serial one.
  KernelTimer Timer(Stats.RefactorSeconds);
  ++Stats.Refactors;
  std::vector<double> &B = RefB;
  std::vector<double> &Inv = RefInv;
  // B row I holds entry I of every basic column (a slack's is -1 on its
  // own row and 0 elsewhere).
  auto BuildRow = [&](int I) {
    double *Row = B.data() + static_cast<size_t>(I) * M;
    for (int R = 0; R < M; ++R) {
      int J = Basis[R];
      Row[R] = J < NS ? entry(I, J) : (J - NS == I ? -1.0 : 0.0);
    }
  };
  if (Par)
    parallelFor(0, M, [&](std::int64_t I) { BuildRow(static_cast<int>(I)); });
  else
    for (int I = 0; I < M; ++I)
      BuildRow(I);
  std::fill(Inv.begin(), Inv.end(), 0.0);
  for (int I = 0; I < M; ++I)
    Inv[static_cast<size_t>(I) * M + I] = 1.0;

  for (int K = 0; K < M; ++K) {
    int Pivot = K;
    double Best = std::fabs(B[static_cast<size_t>(K) * M + K]);
    for (int I = K + 1; I < M; ++I) {
      double Mag = std::fabs(B[static_cast<size_t>(I) * M + K]);
      if (Mag > Best) {
        Best = Mag;
        Pivot = I;
      }
    }
    if (Best < 1e-12)
      return false;
    if (Pivot != K)
      for (int C = 0; C < M; ++C) {
        std::swap(B[static_cast<size_t>(K) * M + C],
                  B[static_cast<size_t>(Pivot) * M + C]);
        std::swap(Inv[static_cast<size_t>(K) * M + C],
                  Inv[static_cast<size_t>(Pivot) * M + C]);
      }
    double Scale = 1.0 / B[static_cast<size_t>(K) * M + K];
    for (int C = 0; C < M; ++C) {
      B[static_cast<size_t>(K) * M + C] *= Scale;
      Inv[static_cast<size_t>(K) * M + C] *= Scale;
    }
    auto EliminateRow = [&](int I) {
      if (I == K)
        return;
      double Factor = B[static_cast<size_t>(I) * M + K];
      if (Factor == 0.0)
        return;
      // y -= F * x as axpy(y, x, -F): exact in IEEE, so the Strict bits
      // match the fused loop; splitting B/Inv into two sweeps only
      // reorders independent elementwise updates.
      linalg::kernelAxpy(B.data() + static_cast<size_t>(I) * M,
                         B.data() + static_cast<size_t>(K) * M, -Factor, M);
      linalg::kernelAxpy(Inv.data() + static_cast<size_t>(I) * M,
                         Inv.data() + static_cast<size_t>(K) * M, -Factor, M);
    };
    if (Par)
      parallelFor(0, M,
                  [&](std::int64_t I) { EliminateRow(static_cast<int>(I)); });
    else
      for (int I = 0; I < M; ++I)
        EliminateRow(I);
  }
  // Adopt the fresh inverse; RefInv inherits the old Binv storage (same
  // capacity) and is overwritten on the next refactorization.
  std::swap(Binv, Inv);
  PivotsSinceRefactor = 0;
  return true;
}

void Worker::recomputeBasicValues() {
  // Basic values solve B xB = -N xN (the equality rhs is zero).
  std::fill(Rhs.begin(), Rhs.end(), 0.0);
  for (int J = 0; J < NT; ++J) {
    if (Stat[J] == VarStatus::Basic || X[J] == 0.0)
      continue;
    if (J < NS) {
      gatherColumn(J);
      linalg::kernelAxpy(Rhs.data(), ColBuf.data(), -X[J], M);
    } else {
      Rhs[J - NS] += X[J];
    }
  }
  // Basic entries of X are distinct slots, so the row-blocked matvec
  // writes disjointly; each element keeps its scalar accumulation order.
  auto Store = [&](int R, double V) { X[Basis[R]] = V; };
  if (Par)
    parallelForRanges(0, M, [&](std::int64_t Begin, std::int64_t End) {
      rowDots(static_cast<int>(Begin), static_cast<int>(End), Rhs.data(),
              Store);
    });
  else
    rowDots(0, M, Rhs.data(), Store);
}

void Worker::gatherColumn(int J) {
  for (int I = 0; I < M; ++I)
    ColBuf[I] = entry(I, J);
}

template <typename StoreFn>
void Worker::rowDots(int Begin, int End, const double *V,
                     StoreFn Store) const {
  // A Strict dot is one add chain and runs at FP-add latency; four
  // independent chains side by side run at throughput, and each is
  // still the sequential ascending sum kernelDot computes.
  int R = Begin;
  for (; R + 4 <= End; R += 4) {
    const double *B0 = Binv.data() + static_cast<size_t>(R) * M;
    const double *B1 = B0 + M, *B2 = B1 + M, *B3 = B2 + M;
    double S0 = 0.0, S1 = 0.0, S2 = 0.0, S3 = 0.0;
    for (int K = 0; K < M; ++K) {
      double Vk = V[K];
      S0 += B0[K] * Vk;
      S1 += B1[K] * Vk;
      S2 += B2[K] * Vk;
      S3 += B3[K] * Vk;
    }
    Store(R, S0);
    Store(R + 1, S1);
    Store(R + 2, S2);
    Store(R + 3, S3);
  }
  for (; R < End; ++R)
    Store(R, linalg::kernelDot(Binv.data() + static_cast<size_t>(R) * M, V,
                               M));
}

double Worker::infeasibility() const {
  // Sums violations that exceed the per-variable feasibility tolerance.
  // Using the same threshold as the phase-1 cost classification keeps
  // the two consistent: a state with only sub-tolerance violations is
  // feasible and has a zero phase-1 gradient.
  double Total = 0.0;
  for (int R = 0; R < M; ++R) {
    int K = Basis[R];
    double V = X[K];
    if (V < Lo[K] - Opt.FeasTol)
      Total += Lo[K] - V;
    else if (V > Hi[K] + Opt.FeasTol)
      Total += V - Hi[K];
  }
  return Total;
}

double Worker::currentObjective() const {
  double Sum = 0.0;
  for (int J = 0; J < NT; ++J)
    if (Cost[J] != 0.0)
      Sum += Cost[J] * X[J];
  return Sum;
}

void Worker::computeColumn(int J) {
  // FTRAN: W = Binv * Atilde_J. Row-blocked parallel matvec; every
  // W[R] is one sequential dot in the scalar order, so partitioning
  // cannot move a single bit.
  KernelTimer Timer(Stats.FtranSeconds);
  if (J >= NS) {
    int K = J - NS;
    for (int R = 0; R < M; ++R)
      W[R] = -Binv[static_cast<size_t>(R) * M + K];
    return;
  }
  gatherColumn(J);
  auto Store = [&](int R, double V) { W[R] = V; };
  if (Par)
    parallelForRanges(0, M, [&](std::int64_t Begin, std::int64_t End) {
      rowDots(static_cast<int>(Begin), static_cast<int>(End), ColBuf.data(),
              Store);
    });
  else
    rowDots(0, M, ColBuf.data(), Store);
}

void Worker::computeDuals() {
  // BTRAN: Y^T = Cb^T Binv. Column-blocked: each block walks the basic
  // rows in ascending order and accumulates its slice of Y, preserving
  // every Y[I]'s scalar accumulation order while still reading Binv
  // rows contiguously.
  KernelTimer Timer(Stats.BtranSeconds);
  if (!Par) {
    std::fill(Y.begin(), Y.end(), 0.0);
    for (int R = 0; R < M; ++R) {
      double C = Cb[R];
      if (C == 0.0)
        continue;
      linalg::kernelAxpy(Y.data(), Binv.data() + static_cast<size_t>(R) * M,
                         C, M);
    }
    return;
  }
  parallelForRanges(0, M, [&](std::int64_t Begin, std::int64_t End) {
    std::fill(Y.begin() + Begin, Y.begin() + End, 0.0);
    for (int R = 0; R < M; ++R) {
      double C = Cb[R];
      if (C == 0.0)
        continue;
      const double *Row = Binv.data() + static_cast<size_t>(R) * M;
      linalg::kernelAxpy(Y.data() + Begin, Row + Begin, C,
                         static_cast<int>(End - Begin));
    }
  });
}

void Worker::sweepDuals() {
  // Acc[b] += Y[i] * A[i][b] for i ascending: per column, the add
  // sequence of the dot Y . A_b, as row-wise axpys over RowA. A row
  // with Y[i] == 0 would add an exact +-0 to every entry (A is finite),
  // which leaves a sum that starts at +0.0 unchanged, so it is skipped -
  // most duals are zero while the basis is mostly slacks. Column ranges
  // are disjoint outputs, so the parallel split is bit-exact.
  auto Sweep = [&](std::int64_t Begin, std::int64_t End) {
    int N = static_cast<int>(End - Begin);
    double *Out = Acc.data() + Begin;
    std::fill(Out, Out + N, 0.0);
    for (int I = 0; I < M; ++I)
      if (Y[I] != 0.0 || !AFinite)
        linalg::kernelAxpy(Out,
                           RowA.data() + static_cast<size_t>(I) * NB + Begin,
                           Y[I], N);
  };
  if (Par)
    parallelForRanges(0, NB, Sweep, PriceGrain);
  else
    Sweep(0, NB);
}

int Worker::chooseEntering(bool Phase1, int &SigmaOut) {
  // Full Dantzig pricing (best |rc|, earliest index on ties); Bland's
  // rule takes the first improving index instead. Partial pricing was
  // tried and reverted: on the repair LPs' split-variable columns it
  // zigzags into iteration blow-ups that dwarf the per-iteration
  // savings.
  KernelTimer Timer(Stats.PricingSeconds);
  sweepDuals();
  int BestJ = -1;
  int BestSigma = 0;
  double BestScore = Opt.OptTol;
  for (int J = 0; J < NT; ++J) {
    VarStatus S = Stat[static_cast<size_t>(J)];
    if (S == VarStatus::Basic || isFixed(J))
      continue;
    double RcJ = reducedCost(J, Phase1);
    int Sigma = 0;
    if ((S == VarStatus::AtLower || S == VarStatus::FreeNb) &&
        RcJ < -Opt.OptTol)
      Sigma = 1; // rising from lower / free
    else if ((S == VarStatus::AtUpper || S == VarStatus::FreeNb) &&
             RcJ > Opt.OptTol)
      Sigma = -1; // falling from upper / free
    if (Sigma == 0)
      continue;
    if (Bland) {
      SigmaOut = Sigma;
      return J;
    }
    double Score = std::fabs(RcJ);
    if (Score > BestScore) {
      BestScore = Score;
      BestJ = J;
      BestSigma = Sigma;
    }
  }
  SigmaOut = BestSigma;
  return BestJ;
}

Worker::RatioResult Worker::ratioTest(int J, int Sigma, bool Phase1) {
  KernelTimer Timer(Stats.RatioSeconds);
  return Par ? ratioTestParallel(J, Sigma, Phase1)
             : ratioTestScalar(J, Sigma, Phase1);
}

Worker::RatioResult Worker::ratioTestScalar(int J, int Sigma, bool Phase1) {
  RatioResult Result;
  double BestT = kInfinity;
  bool BestIsFlip = false;
  int BestRow = -1;
  bool BestAtUpper = false;
  double BestPivotMag = 0.0;

  // The entering variable's own travel between its bounds.
  if (std::isfinite(Lo[J]) && std::isfinite(Hi[J])) {
    BestT = Hi[J] - Lo[J];
    BestIsFlip = true;
  }

  for (int R = 0; R < M; ++R) {
    RowLimit L = rowLimit(R, Sigma, Phase1);
    if (!L.Blocking)
      continue;
    if (ratioBetter(L.Limit, L.WAbs, R, BestT, BestRow, BestPivotMag)) {
      BestT = L.Limit;
      BestRow = R;
      BestAtUpper = L.AtUpper;
      BestPivotMag = L.WAbs;
      BestIsFlip = false;
    }
  }

  if (!std::isfinite(BestT)) {
    Result.Unbounded = true;
    return Result;
  }
  Result.T = BestT;
  Result.Row = BestRow;
  Result.LeaveAtUpper = BestAtUpper;
  Result.BoundFlip = BestIsFlip;
  return Result;
}

Worker::RatioResult Worker::ratioTestParallel(int J, int Sigma, bool Phase1) {
  // Phase A - blocking-row preselection: rowLimit is pure per-row
  // arithmetic (the same helper the scalar scan uses), so row blocks
  // compute it in parallel, compacting the rows that actually block
  // (finite limit, pivot above tolerance) into per-block candidate
  // lists in row order.
  parallelForRanges(
      0, M,
      [&](std::int64_t Begin, std::int64_t End) {
        auto &Cands = RatioBlocks[static_cast<size_t>(Begin / RatioGrain)];
        Cands.clear();
        for (std::int64_t R = Begin; R < End; ++R) {
          RowLimit L = rowLimit(static_cast<int>(R), Sigma, Phase1);
          if (L.Blocking)
            Cands.push_back({L.Limit, L.WAbs, static_cast<int>(R),
                             L.AtUpper});
        }
      },
      RatioGrain);

  // Phase B - deterministic merge: a serial replay of the scalar scan
  // over the preselected rows in ascending block/row order. This must
  // stay serial: the tie window is relative to the incumbent BestT,
  // which drifts across ties, so "which row wins" is order-dependent -
  // a per-block winner could discard a row that wins a tie against a
  // *different* incumbent in the global ordering. Non-blocking rows
  // never touch the scalar state, so skipping them here is exact.
  RatioResult Result;
  double BestT = kInfinity;
  bool BestIsFlip = false;
  int BestRow = -1;
  bool BestAtUpper = false;
  double BestPivotMag = 0.0;

  // The entering variable's own travel between its bounds.
  if (std::isfinite(Lo[J]) && std::isfinite(Hi[J])) {
    BestT = Hi[J] - Lo[J];
    BestIsFlip = true;
  }

  for (int Block = 0; Block < NumRatioBlocks; ++Block) {
    for (const RatioCand &Cand : RatioBlocks[static_cast<size_t>(Block)]) {
      if (ratioBetter(Cand.Limit, Cand.WAbs, Cand.Row, BestT, BestRow,
                      BestPivotMag)) {
        BestT = Cand.Limit;
        BestRow = Cand.Row;
        BestAtUpper = Cand.AtUpper;
        BestPivotMag = Cand.WAbs;
        BestIsFlip = false;
      }
    }
  }

  if (!std::isfinite(BestT)) {
    Result.Unbounded = true;
    return Result;
  }
  Result.T = BestT;
  Result.Row = BestRow;
  Result.LeaveAtUpper = BestAtUpper;
  Result.BoundFlip = BestIsFlip;
  return Result;
}

void Worker::applyStep(int J, int Sigma, const RatioResult &R) {
  // Pivot-sequence digest (order-sensitive FNV-1a): entering index,
  // direction, and bound-flip vs. (row, leaving side). Tests compare it
  // across kernel paths and thread counts - equal hashes mean the
  // parallel kernels walked the exact scalar pivot path.
  auto Mix = [this](std::uint64_t V) {
    Stats.PivotHash = (Stats.PivotHash ^ V) * 0x100000001b3ULL;
  };
  Mix(static_cast<std::uint64_t>(J));
  Mix(static_cast<std::uint64_t>(Sigma + 2));
  if (R.BoundFlip) {
    ++Stats.BoundFlips;
    Mix(~std::uint64_t{0});
  } else {
    ++Stats.Pivots;
    Mix(static_cast<std::uint64_t>(R.Row));
    Mix(R.LeaveAtUpper ? 3 : 5);
  }

  double T = R.T;
  // Move all basic variables along the step direction.
  if (T != 0.0)
    for (int Row = 0; Row < M; ++Row)
      X[Basis[Row]] -= Sigma * T * W[Row];

  if (R.BoundFlip) {
    X[J] = Sigma > 0 ? Hi[J] : Lo[J];
    Stat[J] = Sigma > 0 ? VarStatus::AtUpper : VarStatus::AtLower;
    return;
  }

  assert(R.Row >= 0 && "pivot without a blocking row");
  int Leaving = Basis[R.Row];
  X[Leaving] = R.LeaveAtUpper ? Hi[Leaving] : Lo[Leaving];
  Stat[Leaving] = R.LeaveAtUpper ? VarStatus::AtUpper : VarStatus::AtLower;

  X[J] += Sigma * T;
  Basis[R.Row] = J;
  Stat[J] = VarStatus::Basic;
  updateBinv(R.Row);
  ++PivotsSinceRefactor;
}

void Worker::updateBinv(int PivotRow) {
  // Product-form update: with W = Binv * Atilde_entering, the new inverse
  // is E * Binv where E differs from the identity only in column
  // PivotRow. Rows other than the pivot row update independently, so
  // the eta update parallelizes over rows bit-identically.
  KernelTimer Timer(Stats.UpdateSeconds);
  double Pivot = W[PivotRow];
  assert(std::fabs(Pivot) > 0.0 && "zero pivot in eta update");
  double *PivRow = Binv.data() + static_cast<size_t>(PivotRow) * M;
  double Inv = 1.0 / Pivot;
  for (int C = 0; C < M; ++C)
    PivRow[C] *= Inv;
  auto UpdateRow = [&](int R) {
    if (R == PivotRow)
      return;
    double Factor = W[R];
    if (Factor == 0.0)
      return;
    linalg::kernelAxpy(Binv.data() + static_cast<size_t>(R) * M, PivRow,
                       -Factor, M);
  };
  if (Par)
    parallelFor(0, M, [&](std::int64_t R) { UpdateRow(static_cast<int>(R)); });
  else
    for (int R = 0; R < M; ++R)
      UpdateRow(R);
}

SolveStatus Worker::iterate(bool Phase1) {
  Bland = false;
  Stall = 0;
  HavePrevObj = false;
  while (true) {
    // Cooperative cancellation: a relaxed load per iteration is noise
    // next to the O(M * NT) pricing pass below.
    if (Opt.CancelFlag &&
        Opt.CancelFlag->load(std::memory_order_relaxed))
      return SolveStatus::Cancelled;
    assert(scratchGrowths() == 0 &&
           "simplex hot loop allocated: a per-iteration scratch buffer "
           "grew after setup");
    if (Iterations >= Opt.MaxIterations)
      return SolveStatus::IterationLimit;
    if (PivotsSinceRefactor >= Opt.RefactorInterval) {
      if (!refactor())
        return SolveStatus::NumericalError;
      recomputeBasicValues();
    }

    double Obj;
    if (Phase1) {
      double Infeas = infeasibility();
      if (Infeas == 0.0)
        return SolveStatus::Optimal; // feasible; caller verifies
      for (int R = 0; R < M; ++R) {
        int K = Basis[R];
        double V = X[K];
        Cb[R] = V < Lo[K] - Opt.FeasTol   ? -1.0
                : V > Hi[K] + Opt.FeasTol ? 1.0
                                          : 0.0;
      }
      Obj = Infeas;
    } else {
      for (int R = 0; R < M; ++R)
        Cb[R] = Cost[Basis[R]];
      Obj = currentObjective();
    }
    computeDuals();

    // Cycling guard: no measurable progress for StallLimit iterations
    // switches pricing to Bland's rule until progress resumes.
    if (HavePrevObj && Obj >= PrevObj - 1e-12) {
      if (++Stall >= Opt.StallLimit)
        Bland = true;
    } else {
      Stall = 0;
      Bland = false;
    }
    PrevObj = Obj;
    HavePrevObj = true;

    int Sigma = 0;
    int Entering = chooseEntering(Phase1, Sigma);
    if (Entering < 0)
      return Phase1 ? SolveStatus::Infeasible : SolveStatus::Optimal;

    computeColumn(Entering);
    RatioResult R = ratioTest(Entering, Sigma, Phase1);
    if (R.Unbounded) {
      // A cost-improving ray. In phase 1 the objective is bounded below
      // by zero, so an unbounded ray indicates numerical trouble.
      return Phase1 ? SolveStatus::NumericalError : SolveStatus::Unbounded;
    }
    applyStep(Entering, Sigma, R);
    ++Iterations;
    if (Phase1)
      ++Phase1Iterations;
  }
}

LpSolution Worker::finish(SolveStatus Status) {
  LpSolution Out;
  Out.Status = Status;
  Out.Iterations = Iterations;
  Out.Phase1Iterations = Phase1Iterations;
  Stats.Iterations = Iterations;
  Stats.ParallelKernels = Par;
  Out.WarmStarted = WarmStartedV;
  if (Status != SolveStatus::Optimal) {
    Out.Stats = Stats;
    return Out;
  }

  if (Opt.ExportBasis) {
    auto B = std::make_shared<SimplexBasis>();
    B->NumRows = M;
    B->NumVars = NT;
    B->Basic = Basis;
    B->NonbasicState.resize(static_cast<size_t>(NT));
    for (int J = 0; J < NT; ++J)
      B->NonbasicState[static_cast<size_t>(J)] =
          static_cast<std::uint8_t>(Stat[static_cast<size_t>(J)]);
    B->Pivots = Stats.Pivots;
    Out.OptimalBasis = std::move(B);
  }

  Out.X.assign(X.begin(), X.begin() + NS);
  Out.Objective = Prob.objectiveValue(Out.X);

  // Duals: Y was last computed with phase-2 basic costs; unscale rows
  // and scatter over dropped (vacuous) rows.
  for (int R = 0; R < M; ++R)
    Cb[R] = Cost[Basis[R]];
  computeDuals();
  Out.RowDuals.assign(static_cast<size_t>(Prob.numRows()), 0.0);
  for (int R = 0; R < M; ++R)
    Out.RowDuals[KeptRows[R]] = Y[R] / RowScale[R];
  Out.Stats = Stats;
  return Out;
}

LpSolution Worker::run() {
  LpSolution Early;
  if (!buildProblem(Early))
    return Early;

  // Kernel-path decision, made once per solve: the blocked/parallel
  // kernels only pay off when the O(M^2) FTRAN/BTRAN and O(M * NT)
  // pricing passes dominate the pool-dispatch cost. Either path yields
  // bit-identical results; this is purely a performance crossover.
  Par = Opt.ParallelKernels && M >= Opt.ParallelMinDim;

  // Trivial cases first.
  if (NS == 0) {
    LpSolution Out;
    Out.Status = SolveStatus::Optimal;
    Out.RowDuals.assign(static_cast<size_t>(Prob.numRows()), 0.0);
    return Out;
  }
  if (M == 0) {
    LpSolution Out;
    Out.X.resize(NS);
    for (int J = 0; J < NS; ++J) {
      double C = Prob.objectiveCoef(J);
      double L = Prob.variableLo(J), H = Prob.variableHi(J);
      if (C > 0.0) {
        if (!std::isfinite(L)) {
          Out.Status = SolveStatus::Unbounded;
          Out.X.clear();
          return Out;
        }
        Out.X[J] = L;
      } else if (C < 0.0) {
        if (!std::isfinite(H)) {
          Out.Status = SolveStatus::Unbounded;
          Out.X.clear();
          return Out;
        }
        Out.X[J] = H;
      } else {
        Out.X[J] = std::isfinite(L) ? L : (std::isfinite(H) ? H : 0.0);
      }
    }
    Out.Status = SolveStatus::Optimal;
    Out.Objective = Prob.objectiveValue(Out.X);
    Out.RowDuals.assign(static_cast<size_t>(Prob.numRows()), 0.0);
    return Out;
  }

  initialBasis();

  // Warm start (advisory): crash onto the cached basis if it validates
  // and refactorizes; otherwise the slack basis from initialBasis() is
  // already in place (tryWarmStart restores it on a post-apply
  // failure), so the cold path below is untouched bit-for-bit.
  if (Opt.WarmBasis)
    WarmStartedV = tryWarmStart(*Opt.WarmBasis);

  // Phase 1 with refactorized verification: a "feasible" or
  // "infeasible" verdict from drifted arithmetic is re-checked against
  // a clean factorization before being believed.
  bool Feasible = false;
  bool InfeasibleConfirmed = false;
  for (int Attempt = 0; Attempt < 6 && !Feasible; ++Attempt) {
    SolveStatus Status = iterate(/*Phase1=*/true);
    if (Status == SolveStatus::IterationLimit ||
        Status == SolveStatus::NumericalError ||
        Status == SolveStatus::Unbounded ||
        Status == SolveStatus::Cancelled)
      return finish(Status == SolveStatus::Unbounded
                        ? SolveStatus::NumericalError
                        : Status);
    if (!refactor())
      return finish(SolveStatus::NumericalError);
    recomputeBasicValues();
    if (infeasibility() == 0.0) {
      Feasible = true;
      break;
    }
    if (Status == SolveStatus::Infeasible) {
      // Only believe an infeasibility verdict that is reproduced from a
      // freshly refactorized basis.
      if (InfeasibleConfirmed)
        return finish(SolveStatus::Infeasible);
      InfeasibleConfirmed = true;
      continue;
    }
    InfeasibleConfirmed = false;
    // Status was Optimal but the clean recompute disagrees: resume.
  }
  if (!Feasible)
    return finish(SolveStatus::NumericalError);

  // Phase 2, same verification discipline.
  for (int Attempt = 0; Attempt < 6; ++Attempt) {
    SolveStatus Status = iterate(/*Phase1=*/false);
    if (Status != SolveStatus::Optimal)
      return finish(Status);
    if (!refactor())
      return finish(SolveStatus::NumericalError);
    recomputeBasicValues();
    if (infeasibility() > 0.0) {
      // Drifted into infeasibility; clean it up via phase 1 again.
      SolveStatus P1 = iterate(/*Phase1=*/true);
      if (P1 != SolveStatus::Optimal)
        return finish(P1 == SolveStatus::Infeasible
                          ? SolveStatus::NumericalError
                          : P1);
      continue;
    }
    // Verify dual feasibility on the clean factorization.
    for (int R = 0; R < M; ++R)
      Cb[R] = Cost[Basis[R]];
    computeDuals();
    {
      KernelTimer Timer(Stats.PricingSeconds);
      sweepDuals();
    }
    bool DualOk = true;
    for (int J = 0; J < NT && DualOk; ++J) {
      if (Stat[J] == VarStatus::Basic || isFixed(J))
        continue;
      double RcJ = reducedCost(J, /*Phase1=*/false);
      if ((Stat[J] == VarStatus::AtLower || Stat[J] == VarStatus::FreeNb) &&
          RcJ < -50 * Opt.OptTol)
        DualOk = false;
      if ((Stat[J] == VarStatus::AtUpper || Stat[J] == VarStatus::FreeNb) &&
          RcJ > 50 * Opt.OptTol)
        DualOk = false;
    }
    if (DualOk)
      return finish(SolveStatus::Optimal);
  }
  return finish(SolveStatus::NumericalError);
}

} // namespace

LpSolution prdnn::lp::solveLp(const LinearProgram &Problem,
                              const SimplexOptions &Options) {
  Worker W(Problem, Options);
  return W.run();
}
