//===- perfbench/src/Tasks.cpp - paper-task repair workloads -------------===//
//
// task1_points: Table 1/4 pointwise repairs of the ShapeWorld conv
// classifier (Algorithm 1), cold, on a fixed list of (spec, layer)
// pairs with both feasible and infeasible layers, every LP at >= 512
// rows. The LP is 96-99.7% of each repair here and constraint
// generation keeps most rows.
//
// task2_lines: Table 2 fog-line repairs of the digit classifier on its
// middle and output layers (Algorithm 2): key points, LinRegions and
// pattern-pinned Jacobians feed an LP where constraint generation keeps
// about a tenth of the rows - the LP used the other way round.
//
// Both run a fixed list of repairs per round; --seconds picks the
// number of whole rounds (never a time-boxed loop), and --seed only
// orders each round. The inputs themselves are the repo's published
// task constructions: distinct point sets of one size differ up to 2x
// in simplex pivots (three random 64-point subsets took 3.9 s to 8.1 s
// per round), which no affordable number of repairs per run averages
// out. The served mix is where the seed draws the inputs.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "core/PolytopeRepair.h"
#include "data/Corruptions.h"
#include "data/Digits.h"
#include "data/ShapeWorld.h"
#include "support/Rng.h"
#include "support/Timer.h"

#include <algorithm>
#include <cstdio>
#include <cmath>
#include <filesystem>
#include <functional>
#include <memory>
#include <numeric>
#include <stdexcept>

using namespace prdnn;
using namespace prdnn::data;
using namespace perfbench;

namespace {

struct TaskEntry {
  std::string Label;
  RepairRequest Request;
};

struct TaskInputs {
  std::shared_ptr<const Network> Net;
  std::vector<TaskEntry> List;
  double TrainSeconds = 0.0;
};

/// Checks one round-0 report; adds the time of its benchmark-side
/// library calls to \p CheckTimes and, when tracing, records them as
/// spans under a "check" root.
using CheckFn = std::function<std::string(
    const TaskInputs &, const TaskEntry &, const RepairReport &,
    MetricSet &CheckTimes, Tracer &T)>;

struct Workload {
  const char *Name;
  std::function<TaskInputs()> Setup;
  /// Wall time of one round on the reference machine (one core): the
  /// run does ceil(--seconds / this) whole rounds.
  double NominalRoundSeconds;
  CheckFn Check;
};

// --- task1_points ----------------------------------------------------------

PointSpec classificationSpec(const Dataset &Data, int Begin, int Count,
                             int NumClasses) {
  PointSpec Spec;
  for (int I = Begin; I < Begin + Count; ++I)
    Spec.push_back({Data.Inputs[static_cast<size_t>(I)],
                    classificationConstraint(
                        NumClasses, Data.Labels[static_cast<size_t>(I)], 1e-4),
                    std::nullopt});
  return Spec;
}

TaskInputs setupTask1() {
  // The repo's Table 1/4 construction: network, NAE pool and anchor
  // pool from the same fixed seeds as the paper-task benches.
  TaskInputs In;
  WallTimer Train;
  Rng R(1001);
  auto Net = std::make_shared<Network>(
      trainShapeClassifier(/*TrainCount=*/1800, /*Epochs=*/8, R));
  In.TrainSeconds = Train.seconds();
  Rng AdvR(1003);
  Dataset Adversarials = makeNaturalAdversarials(*Net, 75, AdvR);
  Rng AnchorR(1004);
  Dataset Anchors;
  while (Anchors.size() < 24) {
    int Shape = Anchors.size() % kShapeClasses;
    Vector Image = makeShapeImage(Shape, AnchorR);
    if (Net->classify(Image) == Shape)
      Anchors.push(std::move(Image), Shape);
  }
  if (Adversarials.size() < 75)
    throw std::runtime_error("task1: NAE generator yielded too few points");

  // F: 40 NAEs + 24 anchors (512 rows), feasible on every layer.
  // I: 75 NAEs + 20 anchors (760 rows), infeasible on L0 and L9.
  auto Spec = [&](int Naes, int AnchorCount) {
    PointSpec S = classificationSpec(Adversarials, 0, Naes, kShapeClasses);
    PointSpec A = classificationSpec(Anchors, 0, AnchorCount, kShapeClasses);
    S.insert(S.end(), A.begin(), A.end());
    return S;
  };
  PointSpec F = Spec(40, 24), I = Spec(75, 20);
  std::vector<int> Layers = Net->parameterizedLayerIndices();
  for (int L : Layers)
    In.List.push_back({"F64@L" + std::to_string(L),
                       RepairRequest::points(Net, L, F)});
  for (int L : {Layers.front(), Layers.back()})
    In.List.push_back({"I95@L" + std::to_string(L),
                       RepairRequest::points(Net, L, I)});
  In.Net = std::move(Net);
  return In;
}

std::string checkTask1(const TaskInputs &In, const TaskEntry &E,
                       const RepairReport &Report, MetricSet &CheckTimes,
                       Tracer &T) {
  const PointSpec &Spec = std::get<PointSpec>(E.Request.Spec);
  const RepairResult &Result = Report.Result;
  if (Result.Status == RepairStatus::Success) {
    std::string Error = checkSpecSatisfied(Result, Spec);
    if (Error.empty())
      Error = checkAffine(*In.Net, E.Request.LayerIndex, Result, Spec);
    if (!Error.empty())
      return Error;
  }
  double Start = T.now(), BatchSeconds = 0.0, LpSeconds = 0.0;
  std::string Error = checkMinimal(*In.Net, E.Request.LayerIndex, Spec,
                                   Result, &BatchSeconds, &LpSeconds);
  int Root = T.record("check", Start, BatchSeconds + LpSeconds, -1, 0);
  T.record("nn.jacobian_batch", Start, BatchSeconds, Root, 0);
  T.record("lp.full_solve", Start + BatchSeconds, LpSeconds, Root, 0);
  CheckTimes.add("nn.jacobian_batch_s", BatchSeconds, "s");
  CheckTimes.add("lp.full_solve_s", LpSeconds, "s");
  CheckTimes.add("checked", 1, "count");
  return Error;
}

// --- task2_lines -----------------------------------------------------------

TaskInputs setupTask2() {
  // The repo's Table 2 construction: 25 clean->fog lines anchored at
  // correctly classified clean digits.
  TaskInputs In;
  WallTimer Train;
  Rng R(2001);
  auto Net = std::make_shared<Network>(trainDigitClassifier(
      /*Hidden=*/32, /*TrainCount=*/2500, /*Epochs=*/14, R));
  In.TrainSeconds = Train.seconds();
  const int NumLines = 25;
  Rng LineR(2004);
  PolytopeSpec Spec;
  while (static_cast<int>(Spec.size()) < NumLines) {
    int Digit = static_cast<int>(Spec.size()) % kDigitClasses;
    Vector Clean = makeDigitImage(Digit, LineR);
    if (Net->classify(Clean) != Digit)
      continue;
    Vector Fog = fogCorrupt(Clean, kDigitImage, kDigitImage,
                            LineR.uniform(0.5, 0.75), LineR);
    Spec.push_back(SpecPolytope{SegmentPolytope{std::move(Clean),
                                                std::move(Fog)},
                                classificationConstraint(kDigitClasses,
                                                         Digit, 1e-4)});
  }
  std::vector<int> Layers = Net->parameterizedLayerIndices();
  for (int L : {Layers[1], Layers[2]})
    In.List.push_back({"lines25@L" + std::to_string(L),
                       RepairRequest::polytopes(Net, L, Spec)});
  In.Net = std::move(Net);
  return In;
}

std::string checkTask2(const TaskInputs &In, const TaskEntry &E,
                       const RepairReport &Report, MetricSet &CheckTimes,
                       Tracer &T) {
  const PolytopeSpec &Spec = std::get<PolytopeSpec>(E.Request.Spec);
  const RepairResult &Result = Report.Result;
  double Start = T.now();
  WallTimer KeyTimer;
  PointSpec KeyPoints = keyPointSpec(*In.Net, Spec);
  double KeySeconds = KeyTimer.seconds();
  int Root = T.record("check", Start, KeySeconds, -1, 0);
  T.record("core.keypoints", Start, KeySeconds, Root, 0);
  CheckTimes.add("core.keypoints_s", KeySeconds, "s");
  CheckTimes.add("checked", 1, "count");
  if (KeyPoints.empty())
    return "key-point spec is empty";
  if (Result.Status != RepairStatus::Success)
    // Certifying an Infeasible here needs the full 6930-row LP, which
    // takes ~115 s; the fog lines are feasible on both layers.
    return std::string("line repair ended ") + toString(Result.Status);
  std::string Error = checkSpecSatisfied(Result, KeyPoints);
  if (Error.empty())
    Error = checkDenseLines(Result, Spec, /*SamplesPerLine=*/64);
  if (!Error.empty())
    return Error;
  // Theorem 4.5 at the pinned key points and at unpinned interior
  // points of every line.
  std::vector<SpecPoint> Points = KeyPoints;
  for (const SpecPolytope &Line : Spec) {
    const auto &Segment = std::get<SegmentPolytope>(Line.Shape);
    for (int S = 0; S < 8; ++S) {
      Vector X = Segment.B - Segment.A;
      X *= (S + 0.5) / 8.0;
      X += Segment.A;
      Points.push_back({std::move(X), Line.Constraint, std::nullopt});
    }
  }
  return checkAffine(*In.Net, E.Request.LayerIndex, Result, Points);
}

// --- Shared runner -----------------------------------------------------------

struct Op {
  std::size_t Entry = 0;
  RepairReport Report;
  double Wall = 0.0;
};

struct Pass {
  std::vector<Op> Ops;
  double Elapsed = 0.0;
};

RunResult runTask(const RunConfig &Config, const Workload &W) {
  RunResult Out;

  std::vector<double> SetupTimes, TrainTimes;
  TaskInputs In;
  for (int Rep = 0; Rep < kSetupReps; ++Rep) {
    WallTimer Timer;
    In = W.Setup();
    SetupTimes.push_back(Timer.seconds());
    TrainTimes.push_back(In.TrainSeconds);
  }

  const int Rounds = std::max(
      1, static_cast<int>(std::ceil(Config.Seconds / W.NominalRoundSeconds)));
  Rng OrderR(Config.Seed);
  auto RunPass = [&](Tracer &T) {
    Pass P;
    WallTimer Elapsed;
    for (int Round = 0; Round < Rounds; ++Round) {
      std::vector<std::size_t> Order(In.List.size());
      std::iota(Order.begin(), Order.end(), 0);
      OrderR.shuffle(Order);
      for (std::size_t Entry : Order) {
        RepairEngine Engine; // fresh engine: a cold cache every repair
        double Start = T.now();
        WallTimer Timer;
        RepairReport Report = Engine.run(In.List[Entry].Request);
        double Wall = Timer.seconds();
        std::uint64_t Id = P.Ops.size() + 1;
        int Root = T.record("repair", Start, Wall, -1, Id);
        T.recordJob(Report, Start, Root, Id);
        P.Ops.push_back({Entry, std::move(Report), Wall});
      }
    }
    P.Elapsed = Elapsed.seconds();
    return P;
  };

  Tracer Untraced(false), Traced(Config.Trace);
  Pass Main = RunPass(Untraced);
  const double PeakRss = peakRssMiB();

  // Round 0 of the untraced pass is checked against the theorems; every
  // later repair of the same entry must reproduce it bit for bit
  // (Strict tier).
  std::vector<const RepairReport *> First(In.List.size(), nullptr);
  for (const Op &O : Main.Ops)
    if (!First[O.Entry])
      First[O.Entry] = &O.Report;
  std::vector<MetricSet> EntryTimes(In.List.size());
  std::vector<std::string> EntryError =
      checkAll(In.List.size(), [&](std::size_t E) {
        return W.Check(In, In.List[E], *First[E], EntryTimes[E], Traced);
      });
  MetricSet CheckTimes;
  bool AnyDelta = false;
  for (std::size_t E = 0; E < In.List.size(); ++E) {
    const RepairReport &R = *First[E];
    for (const std::string &Name : EntryTimes[E].names())
      CheckTimes.add(Name, EntryTimes[E].get(Name), EntryTimes[E].unit(Name));
    if (R.stats().SpecRows <= 0)
      EntryError[E] = "spec has no rows";
    if (R.succeeded() && R.Result.DeltaL1 > 0.0)
      AnyDelta = true;
    if (!EntryError[E].empty())
      EntryError[E] = In.List[E].Label + ": " + EntryError[E];
    std::printf("%-12s %-10s ||Delta||_1 %-12.6g rows %-5d used %-5d "
                "pivots %d\n",
                In.List[E].Label.c_str(), toString(R.Status),
                R.Result.DeltaL1, R.stats().SpecRows, R.stats().LpRowsUsed,
                R.stats().LpKernels.Pivots);
  }

  Pass TracedPass;
  if (Config.Trace)
    TracedPass = RunPass(Traced);

  for (const Pass *P : {&Main, &TracedPass})
    for (const Op &O : P->Ops) {
      std::string Error = EntryError[O.Entry];
      if (Error.empty() && !AnyDelta)
        Error = "vacuous workload: no repair changed the network";
      else if (Error.empty() && !bitIdentical(O.Report.Result,
                                              First[O.Entry]->Result))
        Error = In.List[O.Entry].Label + ": differs from its round-0 bits";
      else if (Error.empty() && O.Report.CacheHits != 0)
        Error = In.List[O.Entry].Label + ": cold repair hit the cache";
      Out.Ops.record(Error);
    }

  std::vector<double> Walls;
  for (const Op &O : Main.Ops)
    Walls.push_back(O.Wall);
  Out.EndToEnd.set("setup_s", quantile(SetupTimes, 0.5), "s");
  Out.EndToEnd.set("repair_s_p50", quantile(Walls, 0.5), "s");
  Out.EndToEnd.set("repair_s_p99", quantile(Walls, 0.99), "s");
  Out.EndToEnd.set("repairs_per_s",
                   static_cast<double>(Walls.size()) / sum(Walls), "1/s");
  Out.EndToEnd.set("peak_rss_mb", PeakRss, "MiB");

  if (Config.Trace) {
    MetricSet &M = Out.PerLayer;
    std::vector<double> JobSeconds;
    for (const Op &O : TracedPass.Ops) {
      addRepairStats(M, O.Report);
      JobSeconds.push_back(O.Report.TotalSeconds);
    }
    long Repairs = static_cast<long>(TracedPass.Ops.size());
    finishRepairStats(M, Repairs);
    M.set("train.net_s", quantile(TrainTimes, 0.5), "s");
    M.set("api.job_s_p50", quantile(JobSeconds, 0.5), "s");
    double Checked = std::max(1.0, CheckTimes.get("checked"));
    for (const char *Name :
         {"nn.jacobian_batch_s", "lp.full_solve_s", "core.keypoints_s"})
      M.set(Name, CheckTimes.get(Name) / Checked, "s");
    std::filesystem::create_directories(std::string(kOutDir));
    std::string Base = std::string(kOutDir) + "/" + W.Name;
    double Unattributed =
        writeLayerTable(Base + "-layers.txt", W.Name, Traced, "repair",
                        Main.Elapsed, TracedPass.Elapsed, Repairs);
    Traced.writeChromeTrace(Base + "-trace.json");
    M.set("unattributed_s", Unattributed / static_cast<double>(Repairs), "s");
    M.set("trace.overhead", TracedPass.Elapsed / Main.Elapsed - 1.0, "ratio");
  }
  return Out;
}

} // namespace

RunResult perfbench::runTask1Points(const RunConfig &Config) {
  return runTask(Config, {"task1_points", setupTask1,
                          /*NominalRoundSeconds=*/27.0, checkTask1});
}

RunResult perfbench::runTask2Lines(const RunConfig &Config) {
  return runTask(Config, {"task2_lines", setupTask2,
                          /*NominalRoundSeconds=*/7.0, checkTask2});
}
