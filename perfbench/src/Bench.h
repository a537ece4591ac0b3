//===- perfbench/src/Bench.h - end-to-end benchmark harness ----*- C++ -*-===//
///
/// \file
/// Shared pieces of the end-to-end benchmark: the run configuration,
/// the metric set a run prints, nearest-rank quantiles over raw
/// samples, the benchmark-side span recorder, and the correctness
/// checks every workload applies to the program's outputs.
///
/// The benchmark measures each layer from outside: it times its own
/// calls into the library's public functions and records the counters
/// those calls already return (RepairStats, SimplexStats, client and
/// service stats). Nothing is traced inside the library.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_BENCH_H
#define PERFBENCH_BENCH_H

#include "api/RepairEngine.h"

#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct RunConfig {
  std::string Workload;
  std::uint64_t Seed = 0;
  int Seconds = 10;
  /// Traced run: one untraced pass, then a traced pass whose spans give
  /// the per-layer metrics, the Chrome trace and the layer table.
  bool Trace = false;
};

/// Where a traced run writes its trace and table, relative to the
/// checkout root the harness runs in.
inline constexpr const char *kOutDir = ".bench_out";
/// Scratch space: the served mix's store directories.
inline constexpr const char *kWorkDir = ".bench_work";

/// Set-up repetitions per run; setup_s is their median.
inline constexpr int kSetupReps = 3;

/// Every timed call runs on one core with a library pool of one thread
/// (main() calls pinToOneCore and sizes the pool). On the shared 4-core
/// reference VM, a two-thread pool amplified the host's CPU steal: the
/// Task 1 median spread 35% over a set of runs and the VM's steal rose
/// from 2% to 8% of its time, while one thread was as fast (27.5 s per
/// Task 1 round either way). A served request hands off between client,
/// connection and engine threads: unpinned, three runs of one seed read
/// a median of 4.1-5.4 ms; on one core, three seeds read 6.78-6.87 ms.
inline constexpr int kPoolThreads = 1;

/// Restricts the calling thread, and every thread it creates from then
/// on, to one core: the highest-numbered one the process may use.
void pinToOneCore();

/// Lets the calling thread run on every core the process could use
/// before pinToOneCore (for the checks, which run outside every timer).
void unpinThisThread();

/// Nearest-rank quantile of raw samples: the value at sorted index
/// min(n - 1, floor(P * n)). 0 for no samples.
double quantile(std::vector<double> Values, double P);

double sum(const std::vector<double> &Values);

/// Peak resident set size of this process so far, in MiB.
double peakRssMiB();

/// Named metrics of one run, in print order.
class MetricSet {
public:
  void set(const std::string &Name, double Value, const std::string &Unit);
  /// Adds to a metric (created at 0 on first use).
  void add(const std::string &Name, double Value, const std::string &Unit);
  double get(const std::string &Name) const;
  const std::vector<std::string> &names() const { return Order; }
  const std::string &unit(const std::string &Name) const;

private:
  std::vector<std::string> Order;
  std::map<std::string, std::pair<double, std::string>> Values;
};

/// Operations attempted and failed, plus the reason of each failure.
struct Outcome {
  long Attempted = 0;
  long Failed = 0;
  std::vector<std::string> Failures;

  /// Records one operation; \p Error empty means it passed every check.
  void record(const std::string &Error);
  bool correct() const { return Failed == 0; }
};

/// What a workload run hands back to main().
struct RunResult {
  Outcome Ops;
  MetricSet EndToEnd;
  MetricSet PerLayer;
};

/// One timed interval on the benchmark's side of a layer boundary.
/// Spans of one request share \p Request; \p Parent is the index of
/// the enclosing span (-1 for a request's outermost span). Derived
/// spans carry durations a library call returned in its stats, laid
/// out inside their parent in phase order.
struct Span {
  std::string Name;
  double Start = 0.0; ///< seconds since the tracer's origin
  double Duration = 0.0;
  int Parent = -1;
  std::uint64_t Request = 0;
  std::uint32_t Thread = 0;
  bool Derived = false;
};

/// Thread-safe in-memory span recorder, written out when the run ends.
/// A disabled tracer records nothing.
class Tracer {
public:
  explicit Tracer(bool Enabled);

  bool enabled() const { return Enabled; }
  /// Seconds since this tracer was created.
  double now() const;
  /// Records a span; returns its index (or -1 when disabled).
  int record(const std::string &Name, double Start, double Duration,
             int Parent, std::uint64_t Request, bool Derived = false);
  /// Records the derived phase spans of one engine job inside \p
  /// Parent, starting at \p Start: api.job self time, then
  /// syrenn.linregions, nn.jacobian, lp.solve (with its six simplex
  /// kernels) and core.other, from the report's own stats.
  void recordJob(const prdnn::RepairReport &Report, double Start, int Parent,
                 std::uint64_t Request);

  std::size_t size() const;
  /// Self time per span name: duration minus the time its children
  /// cover. Spans under the roots named \p Roots only.
  std::map<std::string, double>
  selfSeconds(const std::vector<std::string> &Roots) const;
  /// Writes the spans as a Chrome trace-event JSON file.
  bool writeChromeTrace(const std::string &Path) const;

private:
  bool Enabled;
  double Origin;
  mutable std::mutex Mutex;
  std::vector<Span> Spans;
};

/// Writes the per-layer table of a traced run (to \p Path and stdout):
/// each layer's self time under the request spans named \p Root, its
/// share of the end-to-end wall time, the unattributed remainder (the
/// root spans' own self time) and the tracing overhead measured as the
/// traced pass's wall time against the untraced pass's. Returns the
/// unattributed seconds.
double writeLayerTable(const std::string &Path, const std::string &Workload,
                       const Tracer &T, const std::string &Root,
                       double UntracedWall, double TracedWall,
                       long Requests);

// --- Correctness checks ------------------------------------------------------
//
// Each returns an empty string when the property holds, else a one-line
// description of the first violation.

/// Every spec row holds on the repaired DDNN (pinned patterns honored).
std::string checkSpecSatisfied(const prdnn::RepairResult &Result,
                               const prdnn::PointSpec &Spec);

/// Dense non-key points on each segment of \p Spec satisfy its output
/// constraint on the repaired DDNN (Algorithm 2's guarantee covers every
/// point of the polytope, not only the key points).
std::string checkDenseLines(const prdnn::RepairResult &Result,
                            const prdnn::PolytopeSpec &Spec,
                            int SamplesPerLine);

/// Theorem 4.5: the repaired output equals N(x) + J_x Delta, with J_x
/// from paramJacobian, at every point of \p Points (pinned patterns
/// honored).
std::string checkAffine(const prdnn::Network &Net, int LayerIndex,
                        const prdnn::RepairResult &Result,
                        const std::vector<prdnn::SpecPoint> &Points);

/// Builds the full-row LP of the repair with lp::DeltaLp from
/// paramJacobianBatch rows (pinned patterns honored, so a key-point
/// spec gives Algorithm 2's LP) and solves it without constraint
/// generation: a Success must match its optimum in ||Delta||_1, and an
/// Infeasible must be Infeasible there too. \p BatchSeconds and \p
/// LpSeconds receive the two calls' wall times.
std::string checkMinimal(const prdnn::Network &Net, int LayerIndex,
                         const prdnn::PointSpec &Spec,
                         const prdnn::RepairResult &Result,
                         double *BatchSeconds, double *LpSeconds);

/// Runs \p Check(I) for every I in [0, Count) on all cores and returns
/// the error each returned (an escaping exception becomes its error).
/// For the checks, which run outside every timer.
std::vector<std::string>
checkAll(std::size_t Count, const std::function<std::string(std::size_t)> &Check);

/// Status, every Delta bit and both norms agree.
bool bitIdentical(const prdnn::RepairResult &A, const prdnn::RepairResult &B);

/// Folds the stats one engine job returned into \p M as sums.
void addRepairStats(MetricSet &M, const prdnn::RepairReport &Report);

/// Turns the sums of \p Repairs addRepairStats calls into per-repair
/// means and derives lp.pivot_s and lp.rows_used_ratio.
void finishRepairStats(MetricSet &M, long Repairs);

using Schema = std::vector<std::pair<std::string, std::string>>;

/// Names and units a --trace 0 run prints, in order.
const Schema &endToEndSchema();

/// Names and units a --trace 1 run prints, in order; a layer a
/// workload does not exercise prints 0.
const Schema &perLayerSchema();

// --- Workloads ---------------------------------------------------------------

RunResult runTask1Points(const RunConfig &Config);
RunResult runTask2Lines(const RunConfig &Config);
RunResult runServedMix(const RunConfig &Config);

} // namespace perfbench

#endif // PERFBENCH_BENCH_H
