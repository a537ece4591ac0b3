//===- bench/bench_task1_layers.cpp - Figure 7(a) and 7(b) -------------------===//
//
// Per-layer view of Task 1 at the 400-point repair set: drawdown as a
// function of the repaired layer (Figure 7a) and the time split into
// Jacobian / LP / other per layer (Figure 7b). The paper's headline
// trends: later layers repair with less drawdown, and the time budget
// is dominated by one phase (Jacobians for the paper's PyTorch; the LP
// for our closed-form Jacobians - see the Baseline section of
// ROADMAP.md).
//
// The per-layer runs go through one RepairEngine, and the same
// experiment is then repeated as a single kAutoLayer request: the
// engine's layer sweep reproduces the per-layer attempts and returns
// the minimal-|Delta| success (the §7 methodology as an API mode).
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "api/RepairEngine.h"
#include "nn/LinearLayers.h"
#include "support/Casting.h"
#include "support/Table.h"

#include <cstdio>
#include <iostream>

using namespace prdnn;
using namespace prdnn::bench;

int main() {
  // The paper plots the 400-point set; we use 100 (+40 anchors) at our
  // ~100x smaller network scale - the per-layer trends are the target.
  std::printf("=== Task 1 per-layer repair at 100 points "
              "(Figure 7a / 7b) ===\n");
  Task1Workload W = makeTask1Workload(100);
  std::printf("buggy network: %.1f%% validation accuracy\n\n",
              100 * W.ValidationAccuracy);
  PointSpec Spec = task1Spec(W, 100, /*AnchorCount=*/40);

  RepairEngine Engine;
  TablePrinter Table({"Layer", "Kind", "Params", "Drawdown(%)",
                      "T total", "T jacobian", "T lp", "T other",
                      "LP rows used", "CG rounds"});
  for (int LayerIdx : W.Net.parameterizedLayerIndices()) {
    RepairResult Result =
        Engine
            .run(RepairRequest::points(RepairRequest::borrow(W.Net),
                                       LayerIdx, Spec))
            .Result;
    std::string Drawdown = "infeasible";
    if (Result.Status == RepairStatus::Success)
      Drawdown = formatDouble(
          100 * (W.ValidationAccuracy -
                 Result.Repaired->accuracy(W.Validation.Inputs,
                                           W.Validation.Labels)),
          1);
    int NumParams =
        cast<LinearLayer>(W.Net.layer(LayerIdx)).numParams();
    Table.addRow({std::to_string(LayerIdx),
                  W.Net.layer(LayerIdx).describe(),
                  std::to_string(NumParams),
                  Drawdown, formatDuration(Result.Stats.TotalSeconds),
                  formatDuration(Result.Stats.JacobianSeconds),
                  formatDuration(Result.Stats.LpSeconds),
                  formatDuration(Result.Stats.OtherSeconds),
                  std::to_string(Result.Stats.LpRowsUsed),
                  std::to_string(Result.Stats.CgRounds)});
  }
  Table.print(std::cout);
  std::printf("\nFigure 7(a): the Drawdown column by layer; "
              "Figure 7(b): the T jacobian / T lp / T other columns.\n");

  // --- The same experiment as one kAutoLayer sweep request -------------------
  RepairRequest Sweep;
  Sweep.Net = RepairRequest::borrow(W.Net);
  Sweep.Spec = Spec;
  Sweep.LayerIndex = kAutoLayer;
  RepairReport Report = Engine.run(Sweep);
  std::printf("\nkAutoLayer sweep: %s", toString(Report.Status));
  if (Report.succeeded())
    std::printf(", minimal-|Delta| layer = %d (|Delta|_1 = %.4f)",
                Report.RepairedLayer, Report.Result.DeltaL1);
  std::printf("; %zu attempts, %.1fs total\n", Report.Sweep.size(),
              Report.TotalSeconds);
  for (const SweepAttempt &Attempt : Report.Sweep)
    std::printf("  layer %d: %s, |Delta|_1 = %.4f, %s\n",
                Attempt.LayerIndex, toString(Attempt.Status),
                Attempt.DeltaL1,
                formatDuration(Attempt.Seconds).c_str());
  return 0;
}
