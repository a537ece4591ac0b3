//===- perfbench/src/Main.cpp - benchmark entry point ----------------------===//
//
// Usage:
//   prdnn_perfbench --workload <task1_points|task2_lines|served_mix>
//                   --seed <n> --seconds <s> --trace <0|1>
//
// Runs one workload in this process and prints, as the last line of
// standard output, one JSON object with the keys correct, attempted,
// failed and metrics: every end-to-end metric with --trace 0, every
// per-layer metric with --trace 1. Exits 1 when any operation failed a
// check, 2 on a usage error.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "support/Parallel.h"

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

using namespace perfbench;

namespace {

int usage(const char *Message) {
  std::fprintf(stderr,
               "error: %s\nusage: prdnn_perfbench --workload "
               "<task1_points|task2_lines|served_mix> --seed <n> "
               "--seconds <s> --trace <0|1>\n",
               Message);
  return 2;
}

bool parseInt(const char *Text, long long Lo, long long Hi, long long &Out) {
  char *End = nullptr;
  errno = 0;
  long long V = std::strtoll(Text, &End, 10);
  if (errno != 0 || End == Text || *End != '\0' || V < Lo || V > Hi)
    return false;
  Out = V;
  return true;
}

} // namespace

int main(int argc, char **argv) {
  RunConfig Config;
  bool HaveSeed = false, HaveSeconds = false, HaveTrace = false;
  for (int I = 1; I < argc; ++I) {
    std::string Flag = argv[I];
    if (I + 1 >= argc)
      return usage(("missing value for " + Flag).c_str());
    const char *Value = argv[++I];
    long long N = 0;
    if (Flag == "--workload") {
      Config.Workload = Value;
    } else if (Flag == "--seed") {
      if (!parseInt(Value, 0, (1LL << 62), N))
        return usage("--seed takes a non-negative integer");
      Config.Seed = static_cast<std::uint64_t>(N);
      HaveSeed = true;
    } else if (Flag == "--seconds") {
      if (!parseInt(Value, 1, 3600, N))
        return usage("--seconds takes an integer in [1, 3600]");
      Config.Seconds = static_cast<int>(N);
      HaveSeconds = true;
    } else if (Flag == "--trace") {
      if (!parseInt(Value, 0, 1, N))
        return usage("--trace takes 0 or 1");
      Config.Trace = N == 1;
      HaveTrace = true;
    } else {
      return usage(("unknown flag " + Flag).c_str());
    }
  }
  if (!HaveSeed || !HaveSeconds || !HaveTrace || Config.Workload.empty())
    return usage("--workload, --seed, --seconds and --trace are required");

  pinToOneCore();
  prdnn::setGlobalThreadCount(kPoolThreads);
  RunResult Result;
  try {
    if (Config.Workload == "task1_points")
      Result = runTask1Points(Config);
    else if (Config.Workload == "task2_lines")
      Result = runTask2Lines(Config);
    else if (Config.Workload == "served_mix")
      Result = runServedMix(Config);
    else
      return usage(("unknown workload " + Config.Workload).c_str());
  } catch (const std::exception &E) {
    std::fprintf(stderr, "error: %s\n", E.what());
    return 1;
  }

  const MetricSet &Metrics = Config.Trace ? Result.PerLayer : Result.EndToEnd;
  const Schema &Names = Config.Trace ? perLayerSchema() : endToEndSchema();
  std::string Json = "{\"metrics\": {";
  for (std::size_t I = 0; I < Names.size(); ++I) {
    double Value = Metrics.get(Names[I].first);
    if (!std::isfinite(Value)) {
      Result.Ops.Failures.push_back(Names[I].first + " is not finite");
      ++Result.Ops.Failed;
      Value = 0.0;
    }
    char Buffer[160];
    std::snprintf(Buffer, sizeof(Buffer),
                  "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  I == 0 ? "" : ", ", Names[I].first.c_str(), Value,
                  Names[I].second.c_str());
    Json += Buffer;
  }
  for (const std::string &Failure : Result.Ops.Failures)
    std::fprintf(stderr, "FAILED: %s\n", Failure.c_str());
  bool Correct = Result.Ops.correct();
  char Head[128];
  std::snprintf(Head, sizeof(Head),
                "{\"correct\": %s, \"attempted\": %ld, \"failed\": %ld, ",
                Correct ? "true" : "false", Result.Ops.Attempted,
                Result.Ops.Failed);
  std::printf("%s%s}}\n", Head, Json.c_str() + 1);
  std::fflush(stdout);
  return Correct ? 0 : 1;
}
