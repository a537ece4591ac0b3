//===- perfbench/src/Bench.cpp - metrics, quantiles and spans ------------===//

#include "Bench.h"


#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

using namespace prdnn;
using namespace perfbench;

double perfbench::quantile(std::vector<double> Values, double P) {
  if (Values.empty())
    return 0.0;
  std::sort(Values.begin(), Values.end());
  double N = static_cast<double>(Values.size());
  size_t Index = static_cast<size_t>(std::min(N - 1.0, std::floor(P * N)));
  return Values[Index];
}

double perfbench::sum(const std::vector<double> &Values) {
  double Total = 0.0;
  for (double V : Values)
    Total += V;
  return Total;
}

double perfbench::peakRssMiB() {
  struct rusage Usage {};
  getrusage(RUSAGE_SELF, &Usage);
  return static_cast<double>(Usage.ru_maxrss) / 1024.0; // KiB on Linux
}

namespace {
cpu_set_t StartMask;
bool HaveStartMask = false;
} // namespace

void perfbench::pinToOneCore() {
  if (sched_getaffinity(0, sizeof(StartMask), &StartMask) != 0)
    return;
  HaveStartMask = true;
  for (int Cpu = CPU_SETSIZE - 1; Cpu >= 0; --Cpu)
    if (CPU_ISSET(Cpu, &StartMask)) {
      cpu_set_t One;
      CPU_ZERO(&One);
      CPU_SET(Cpu, &One);
      sched_setaffinity(0, sizeof(One), &One);
      return;
    }
}

void perfbench::unpinThisThread() {
  if (HaveStartMask)
    sched_setaffinity(0, sizeof(StartMask), &StartMask);
}

void MetricSet::set(const std::string &Name, double Value,
                    const std::string &Unit) {
  if (!Values.count(Name))
    Order.push_back(Name);
  Values[Name] = {Value, Unit};
}

void MetricSet::add(const std::string &Name, double Value,
                    const std::string &Unit) {
  set(Name, get(Name) + Value, Unit);
}

double MetricSet::get(const std::string &Name) const {
  auto It = Values.find(Name);
  return It == Values.end() ? 0.0 : It->second.first;
}

const std::string &MetricSet::unit(const std::string &Name) const {
  return Values.at(Name).second;
}

void Outcome::record(const std::string &Error) {
  ++Attempted;
  if (Error.empty())
    return;
  ++Failed;
  if (Failures.size() < 20)
    Failures.push_back(Error);
}

// --- Spans -------------------------------------------------------------------

namespace {

double steadySeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::uint32_t threadOrdinal() {
  static std::atomic<std::uint32_t> Next{0};
  thread_local std::uint32_t Ordinal = Next.fetch_add(1);
  return Ordinal;
}

} // namespace

Tracer::Tracer(bool Enabled) : Enabled(Enabled), Origin(steadySeconds()) {}

double Tracer::now() const { return steadySeconds() - Origin; }

int Tracer::record(const std::string &Name, double Start, double Duration,
                   int Parent, std::uint64_t Request, bool Derived) {
  if (!Enabled)
    return -1;
  std::lock_guard<std::mutex> Lock(Mutex);
  Spans.push_back(Span{Name, Start, std::max(0.0, Duration), Parent, Request,
                       threadOrdinal(), Derived});
  return static_cast<int>(Spans.size()) - 1;
}

void Tracer::recordJob(const RepairReport &Report, double Start, int Parent,
                       std::uint64_t Request) {
  if (!Enabled)
    return;
  const RepairStats &S = Report.stats();
  int Job = record("api.job", Start, Report.TotalSeconds, Parent, Request,
                   true);
  // Phases in execution order; the attempt's own TotalSeconds is their
  // sum by construction (core.other is the engine's remainder), so
  // api.job keeps only the engine's per-job overhead as self time.
  double At = Start;
  auto Phase = [&](const char *Name, double Seconds, int Under) {
    int Index = record(Name, At, Seconds, Under, Request, true);
    At += Seconds;
    return Index;
  };
  Phase("syrenn.linregions", S.LinRegionsSeconds, Job);
  Phase("nn.jacobian", S.JacobianSeconds, Job);
  double LpStart = At;
  int Lp = Phase("lp.solve", S.LpSeconds, Job);
  const lp::SimplexStats &K = S.LpKernels;
  At = LpStart;
  Phase("lp.pricing", K.PricingSeconds, Lp);
  Phase("lp.ftran", K.FtranSeconds, Lp);
  Phase("lp.btran", K.BtranSeconds, Lp);
  Phase("lp.ratio", K.RatioSeconds, Lp);
  Phase("lp.eta_update", K.UpdateSeconds, Lp);
  Phase("lp.refactor", K.RefactorSeconds, Lp);
  At = LpStart + S.LpSeconds;
  Phase("core.other", S.OtherSeconds, Job);
}

std::size_t Tracer::size() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Spans.size();
}

std::map<std::string, double>
Tracer::selfSeconds(const std::vector<std::string> &Roots) const {
  std::lock_guard<std::mutex> Lock(Mutex);
  std::vector<double> Covered(Spans.size(), 0.0);
  for (const Span &S : Spans)
    if (S.Parent >= 0)
      Covered[static_cast<size_t>(S.Parent)] += S.Duration;
  std::map<std::string, double> Self;
  for (size_t I = 0; I < Spans.size(); ++I) {
    size_t Root = I;
    while (Spans[Root].Parent >= 0)
      Root = static_cast<size_t>(Spans[Root].Parent);
    if (std::find(Roots.begin(), Roots.end(), Spans[Root].Name) ==
        Roots.end())
      continue;
    Self[Spans[I].Name] += Spans[I].Duration - Covered[I];
  }
  return Self;
}

bool Tracer::writeChromeTrace(const std::string &Path) const {
  std::lock_guard<std::mutex> Lock(Mutex);
  std::ofstream Os(Path);
  if (!Os)
    return false;
  Os << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [";
  char Buffer[512];
  for (size_t I = 0; I < Spans.size(); ++I) {
    const Span &S = Spans[I];
    std::snprintf(Buffer, sizeof(Buffer),
                  "%s\n{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                  "\"ts\": %.3f, \"dur\": %.3f, \"pid\": 1, \"tid\": %u, "
                  "\"args\": {\"span\": %zu, \"parent\": %d, \"request\": "
                  "%llu}}",
                  I == 0 ? "" : ",", S.Name.c_str(),
                  S.Derived ? "derived" : "timed", S.Start * 1e6,
                  S.Duration * 1e6, S.Thread, I, S.Parent,
                  static_cast<unsigned long long>(S.Request));
    Os << Buffer;
  }
  Os << "\n]}\n";
  Os.close();
  return static_cast<bool>(Os);
}

double perfbench::writeLayerTable(const std::string &Path,
                                  const std::string &Workload,
                                  const Tracer &T, const std::string &Root,
                                  double UntracedWall, double TracedWall,
                                  long Requests) {
  std::map<std::string, double> Self = T.selfSeconds({Root});
  double Wall = 0.0;
  for (const auto &[Name, Seconds] : Self)
    Wall += Seconds;
  double Unattributed = Self.count(Root) ? Self[Root] : 0.0;
  std::map<std::string, double> Checks = T.selfSeconds({"check"});

  std::ostringstream Os;
  char Line[256];
  std::snprintf(Line, sizeof(Line),
                "per-layer table: %s, traced pass, %ld requests, "
                "%.3f s end-to-end wall (sum over requests)\n",
                Workload.c_str(), Requests, Wall);
  Os << Line;
  std::snprintf(Line, sizeof(Line), "  %-28s %12s %12s %8s\n", "layer",
                "self_s", "per_req_ms", "share");
  Os << Line;
  auto Row = [&](const std::string &Name, double Seconds) {
    std::snprintf(Line, sizeof(Line), "  %-28s %12.6f %12.4f %7.2f%%\n",
                  Name.c_str(), Seconds,
                  Requests ? 1e3 * Seconds / static_cast<double>(Requests)
                           : 0.0,
                  Wall > 0.0 ? 100.0 * Seconds / Wall : 0.0);
    Os << Line;
  };
  for (const auto &[Name, Seconds] : Self)
    if (Name != Root)
      Row(Name, Seconds);
  Row("unattributed (" + Root + " self)", Unattributed);
  double Overhead =
      UntracedWall > 0.0 ? TracedWall / UntracedWall - 1.0 : 0.0;
  std::snprintf(Line, sizeof(Line),
                "tracing overhead: traced pass %.3f s vs untraced pass "
                "%.3f s of the same work: %+.2f%% (%zu spans recorded)\n",
                TracedWall, UntracedWall, 100.0 * Overhead, T.size());
  Os << Line;
  if (!Checks.empty()) {
    Os << "benchmark-side calls outside the timers (checks):\n";
    for (const auto &[Name, Seconds] : Checks)
      if (Name != "check") {
        std::snprintf(Line, sizeof(Line), "  %-28s %12.6f\n", Name.c_str(),
                      Seconds);
        Os << Line;
      }
  }
  std::ofstream File(Path);
  File << Os.str();
  std::fputs(Os.str().c_str(), stdout);
  return Unattributed;
}

// --- Metric schema ------------------------------------------------------------

const Schema &perfbench::endToEndSchema() {
  static const Schema S = {{"setup_s", "s"},
                           {"repair_s_p50", "s"},
                           {"repair_s_p99", "s"},
                           {"repairs_per_s", "1/s"},
                           {"peak_rss_mb", "MiB"}};
  return S;
}

const Schema &perfbench::perLayerSchema() {
  static const Schema S = {
      {"train.net_s", "s"},
      {"serve.publish_s", "s"},
      {"lp.solve_s", "s"},
      {"lp.pivots", "count"},
      {"lp.pivot_s", "s"},
      {"lp.refactors", "count"},
      {"lp.cg_rounds", "count"},
      {"lp.rows_used_ratio", "ratio"},
      {"lp.pricing_s", "s"},
      {"lp.ftran_s", "s"},
      {"lp.btran_s", "s"},
      {"lp.ratio_s", "s"},
      {"lp.eta_update_s", "s"},
      {"lp.refactor_s", "s"},
      {"lp.full_solve_s", "s"},
      {"nn.jacobian_s", "s"},
      {"nn.jacobian_batch_s", "s"},
      {"core.other_s", "s"},
      {"core.spec_rows", "count"},
      {"syrenn.linregions_s", "s"},
      {"syrenn.regions", "count"},
      {"core.keypoints", "count"},
      {"core.keypoints_s", "s"},
      {"api.queue_s_p50", "s"},
      {"api.job_s_p50", "s"},
      {"rpc.overhead_s_p50", "s"},
      {"rpc.encode_s", "s"},
      {"rpc.decode_s", "s"},
      {"rpc.bytes_per_repair", "B"},
      {"serve.rejects", "count"},
      {"rpc.retries", "count"},
      {"cache.hit_ratio", "ratio"},
      {"lp.basis_hits", "count"},
      {"persist.store_hits", "count"},
      {"persist.store_writes", "count"},
      {"unattributed_s", "s"},
      {"trace.overhead", "ratio"},
  };
  return S;
}

void perfbench::addRepairStats(MetricSet &M, const RepairReport &Report) {
  const RepairStats &S = Report.stats();
  const lp::SimplexStats &K = S.LpKernels;
  M.add("lp.solve_s", S.LpSeconds, "s");
  M.add("lp.pivots", K.Pivots, "count");
  M.add("lp.refactors", K.Refactors, "count");
  M.add("lp.cg_rounds", S.CgRounds, "count");
  M.add("lp.rows_used", S.LpRowsUsed, "count");
  M.add("core.spec_rows", S.SpecRows, "count");
  M.add("lp.pricing_s", K.PricingSeconds, "s");
  M.add("lp.ftran_s", K.FtranSeconds, "s");
  M.add("lp.btran_s", K.BtranSeconds, "s");
  M.add("lp.ratio_s", K.RatioSeconds, "s");
  M.add("lp.eta_update_s", K.UpdateSeconds, "s");
  M.add("lp.refactor_s", K.RefactorSeconds, "s");
  M.add("nn.jacobian_s", S.JacobianSeconds, "s");
  M.add("core.other_s", S.OtherSeconds, "s");
  M.add("syrenn.linregions_s", S.LinRegionsSeconds, "s");
  M.add("syrenn.regions", S.LinearRegions, "count");
  M.add("core.keypoints", S.KeyPoints, "count");
  M.add("lp.basis_hits", S.BasisHits, "count");
}

void perfbench::finishRepairStats(MetricSet &M, long Repairs) {
  double Pivots = M.get("lp.pivots");
  double Rows = M.get("core.spec_rows");
  M.set("lp.pivot_s", Pivots > 0 ? M.get("lp.solve_s") / Pivots : 0.0, "s");
  M.set("lp.rows_used_ratio", Rows > 0 ? M.get("lp.rows_used") / Rows : 0.0,
        "ratio");
  // Per-repair means; basis hits stay a run total.
  static const char *const Means[] = {
      "lp.solve_s",     "lp.pivots",         "lp.refactors",
      "lp.cg_rounds",   "core.spec_rows",    "lp.pricing_s",
      "lp.ftran_s",     "lp.btran_s",        "lp.ratio_s",
      "lp.eta_update_s", "lp.refactor_s",    "nn.jacobian_s",
      "core.other_s",   "syrenn.linregions_s", "syrenn.regions",
      "core.keypoints"};
  for (const char *Name : Means)
    M.set(Name, Repairs > 0 ? M.get(Name) / static_cast<double>(Repairs) : 0.0,
          M.unit(Name));
}
