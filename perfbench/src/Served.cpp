//===- perfbench/src/Served.cpp - the served request mix -----------------===//
//
// served_mix: a closed loop from one process. kClients RpcClient
// connections send small mixed-priority repair requests over localhost
// to an RpcServer in front of a RepairService (admission, model
// registry, engine queue, L1 artifact cache and an L2 store in a fresh
// directory under the run's work directory). Each client sends its next
// request when the previous one returns.
//
// Requests are point and fog-line specs against the Task 2 digit
// network, drawn from --seed. (The Task 1 network is left out here:
// training it three times per run for the set-up median would triple
// the run's cost.)
// Priorities cycle High, Neutral, Neutral, Low, the cycle of
// bench/bench_rpc_fleet.cpp. A fixed share of the requests repeats
// earlier specs (artifact-cache and simplex-basis reads); the rest are
// fresh (computes plus store writes). That share and the spec sizes are
// assumptions chosen to keep each LP small, not taken from observed
// traffic. With small LPs the serving stack, codec and cache are a
// large share of the request: LP work is predicted flat here.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "core/PolytopeRepair.h"
#include "data/Corruptions.h"
#include "data/Digits.h"
#include "persist/Codec.h"
#include "rpc/RpcClient.h"
#include "rpc/RpcServer.h"
#include "rpc/Wire.h"
#include "serve/RepairService.h"
#include "support/Rng.h"
#include "support/Timer.h"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <stdexcept>
#include <thread>

using namespace prdnn;
using namespace prdnn::data;
using namespace perfbench;

namespace fs = std::filesystem;

namespace {

/// Two client connections and two engine workers, all on the one core
/// the run is pinned to (pinToOneCore), each engine job on a pool of
/// one: a request's latency is the CPU work of the whole chain plus its
/// share of the core, not the host's delay in waking an idle core.
constexpr int kClients = 2;
constexpr int kWorkers = 2;

/// The priority cycle of bench/bench_rpc_fleet.cpp (1:2:1).
constexpr RepairRequest::Priority kClassCycle[] = {
    RepairRequest::Priority::High, RepairRequest::Priority::Neutral,
    RepairRequest::Priority::Neutral, RepairRequest::Priority::Low};
constexpr int kClassCycleLength = 4;

/// Share of requests that repeat an earlier spec: kRepeatNum of every
/// kRepeatDen, spread evenly. An assumption, not a measured share.
constexpr int kRepeatNum = 2;
constexpr int kRepeatDen = 5;

/// Requests come in whole blocks, so every run has the same make-up of
/// priorities and repeats.
constexpr int kBlock = 20;
static_assert(kBlock % kClassCycleLength == 0 && kBlock % kRepeatDen == 0,
              "a block holds whole priority and repeat cycles");
/// p99 by nearest rank needs n - 1 - floor(0.99 n) >= 10 samples
/// beyond it.
constexpr int kMinRequests = 1100;
/// Requests per second of --seconds, in whole blocks and at least
/// kMinRequests: 10 s gives 3000 requests (30 beyond the p99), which
/// the reference machine serves in about 19 s on its one core.
constexpr double kNominalRequestsPerSecond = 300.0;

/// Whether request I repeats an earlier spec: the running count of
/// repeats, floor(I * kRepeatNum / kRepeatDen), steps up at I + 1.
bool isRepeat(int I) {
  return (I + 1) * kRepeatNum / kRepeatDen > I * kRepeatNum / kRepeatDen;
}

struct Template {
  serve::ServeRequest Serve;
  RepairRequest Twin; ///< the same repair, in-process
};

/// The published Task 2 network.
struct Models {
  std::shared_ptr<const Network> Digits;
  double TrainSeconds = 0.0;
};

struct ServedInputs {
  std::vector<Template> Templates;
  std::vector<std::size_t> Requests; ///< template per request, in order
  std::vector<RepairRequest::Priority> Classes;
};

Models trainModels() {
  Models M;
  WallTimer Train;
  Rng DigitTrainR(2001);
  M.Digits = std::make_shared<Network>(trainDigitClassifier(
      /*Hidden=*/32, /*TrainCount=*/2500, /*Epochs=*/14, DigitTrainR));
  M.TrainSeconds = Train.seconds();
  return M;
}

/// A running RepairService behind an RpcServer in its own store
/// directory, removed again on destruction.
struct Stack {
  std::string Dir;
  std::unique_ptr<serve::RepairService> Service;
  std::unique_ptr<rpc::RpcServer> Server;
  double PublishSeconds = 0.0;

  Stack(const std::string &Directory, const Models &M) : Dir(Directory) {
    fs::remove_all(Dir);
    fs::create_directories(Dir);
    serve::ServiceOptions Options;
    Options.StoreDirectory = Dir;
    Options.Engine.NumWorkers = kWorkers;
    Options.Admission.MaxInFlight = 2 * kClients;
    Service = std::make_unique<serve::RepairService>(Options);
    WallTimer Publish;
    serve::RegistryError Error = serve::RegistryError::None;
    Service->registry().publish(*M.Digits, &Error);
    if (Error != serve::RegistryError::None)
      throw std::runtime_error("served_mix: publishing the model failed");
    PublishSeconds = Publish.seconds();
    Server = std::make_unique<rpc::RpcServer>(*Service, rpc::RpcServerOptions());
    if (!Server->start())
      throw std::runtime_error("served_mix: RpcServer failed to start");
  }
  ~Stack() {
    Server->stop();
    Server.reset();
    Service.reset();
    std::error_code Ignored;
    fs::remove_all(Dir, Ignored);
  }
  Stack(const Stack &) = delete;
  Stack &operator=(const Stack &) = delete;
};

ServedInputs makeInputs(const Models &M, std::uint64_t Seed,
                        int NumRequests) {
  ServedInputs In;
  const std::shared_ptr<const Network> &Digits = M.Digits;

  // Everything below is drawn from the seed: fogged digits the network
  // misclassifies (points to fix) and clean digits it gets right
  // (points to keep).
  Rng R(0x5e7ded00ULL ^ (Seed * 0x9e3779b97f4a7c15ULL));
  auto FogOf = [&](const Vector &Clean) {
    return fogCorrupt(Clean, kDigitImage, kDigitImage, R.uniform(0.5, 0.75),
                      R);
  };
  Dataset Wrong, Right;
  while (Wrong.size() < 240 || Right.size() < 120) {
    int Digit = R.uniformInt(0, kDigitClasses - 1);
    Vector Clean = makeDigitImage(Digit, R);
    if (Digits->classify(Clean) != Digit)
      continue;
    Vector Fog = FogOf(Clean);
    if (Digits->classify(Fog) != Digit && Wrong.size() < 240)
      Wrong.push(std::move(Fog), Digit);
    else if (Right.size() < 120)
      Right.push(std::move(Clean), Digit);
  }
  std::vector<int> Layers = Digits->parameterizedLayerIndices();
  auto Point = [&](const Dataset &D) {
    int I = R.uniformInt(0, D.size() - 1);
    return SpecPoint{D.Inputs[static_cast<size_t>(I)],
                     classificationConstraint(
                         kDigitClasses, D.Labels[static_cast<size_t>(I)], 1e-4),
                     std::nullopt};
  };
  const NetworkFingerprint Fp = fingerprintNetwork(*Digits);
  auto AddTemplate = [&](int Layer, std::variant<PointSpec, PolytopeSpec> Spec) {
    Template T;
    T.Serve.Model = Fp;
    T.Serve.LayerIndex = Layer;
    T.Serve.Spec = Spec;
    T.Twin.Net = Digits;
    T.Twin.LayerIndex = Layer;
    T.Twin.Spec = std::move(Spec);
    In.Templates.push_back(std::move(T));
  };

  In.Requests.reserve(static_cast<size_t>(NumRequests));
  for (int I = 0; I < NumRequests; ++I) {
    In.Classes.push_back(kClassCycle[I % kClassCycleLength]);
    if (isRepeat(I)) {
      // Repeat a spec issued at least two requests earlier.
      int Last = static_cast<int>(In.Templates.size()) - 2;
      In.Requests.push_back(
          static_cast<size_t>(R.uniformInt(0, std::max(0, Last))));
      continue;
    }
    int Fresh = static_cast<int>(In.Templates.size());
    // Alternate points and lines, and within each the middle and the
    // output layer.
    int Layer = Layers[(Fresh / 2) % 2 == 0 ? 2 : 1];
    if (Fresh % 2 == 0) {
      // Three misclassified fogged digits to fix plus three clean
      // digits to keep (54 rows).
      PointSpec Spec;
      for (int K = 0; K < 3; ++K)
        Spec.push_back(Point(Wrong));
      for (int K = 0; K < 3; ++K)
        Spec.push_back(Point(Right));
      AddTemplate(Layer, std::move(Spec));
    } else {
      // One clean->fog line whose fogged end is misclassified.
      Vector Clean, Fog;
      int Digit = R.uniformInt(0, kDigitClasses - 1);
      do {
        Clean = makeDigitImage(Digit, R);
        Fog = FogOf(Clean);
      } while (Digits->classify(Clean) != Digit ||
               Digits->classify(Fog) == Digit);
      AddTemplate(Layer, PolytopeSpec{SpecPolytope{
                             SegmentPolytope{std::move(Clean), std::move(Fog)},
                             classificationConstraint(kDigitClasses, Digit,
                                                      1e-4)}});
    }
    In.Requests.push_back(static_cast<size_t>(Fresh));
  }
  return In;
}

struct Served {
  std::vector<RepairReport> Reports;
  std::vector<double> Walls;
  std::vector<std::string> Errors;
  /// Traced pass only: each request's start on the tracer's clock and
  /// the index of its rpc.repair span.
  std::vector<double> Starts;
  std::vector<int> Roots;
  double Encode = 0.0, Decode = 0.0; ///< benchmark-timed codec, summed
  double Elapsed = 0.0;
  rpc::RpcClientStats Clients;
  serve::ServiceStats Service;
};

/// Encodes and decodes one request and its report the way the two
/// sides of the wire do, timing each direction; false when a decode
/// fails.
bool timeCodec(const serve::ServeRequest &Request, const RepairReport &Report,
               double &Encode, double &Decode) {
  WallTimer EncodeTimer;
  persist::ByteWriter RequestBytes, ReportBytes;
  rpc::writeServeRequest(RequestBytes, Request);
  rpc::writeRepairReport(ReportBytes, Report);
  Encode = EncodeTimer.seconds();
  WallTimer DecodeTimer;
  persist::ByteReader RequestReader(RequestBytes.buffer().data(),
                                    RequestBytes.buffer().size());
  persist::ByteReader ReportReader(ReportBytes.buffer().data(),
                                   ReportBytes.buffer().size());
  serve::ServeRequest RequestOut;
  RepairReport ReportOut;
  bool Ok = rpc::readServeRequest(RequestReader, RequestOut) &&
            rpc::readRepairReport(ReportReader, ReportOut);
  Decode = DecodeTimer.seconds();
  return Ok;
}

Served serveAll(const ServedInputs &In, Stack &S, Tracer &T) {
  Served Out;
  const std::size_t N = In.Requests.size();
  Out.Reports.resize(N);
  Out.Walls.resize(N);
  Out.Errors.resize(N);
  Out.Starts.resize(N);
  Out.Roots.resize(N, -1);
  std::atomic<std::size_t> Next{0};
  std::vector<rpc::RpcClientStats> ClientStats(kClients);
  WallTimer Elapsed;
  std::vector<std::thread> Threads;
  for (int C = 0; C < kClients; ++C)
    Threads.emplace_back([&, C] {
      rpc::RpcClientOptions Options;
      Options.Port = S.Server->port();
      rpc::RpcClient Client(Options);
      for (std::size_t I; (I = Next.fetch_add(1)) < N;) {
        serve::ServeRequest Request = In.Templates[In.Requests[I]].Serve;
        Request.Class = In.Classes[I];
        RepairReport Report;
        serve::ServeReject Reject = serve::ServeReject::None;
        double Start = T.now();
        WallTimer Timer;
        rpc::RpcError Error = Client.repair(Request, Report, Reject);
        Out.Walls[I] = Timer.seconds();
        if (Error != rpc::RpcError::None ||
            Reject != serve::ServeReject::None) {
          Out.Errors[I] = std::string("unserved: rpc ") +
                          rpc::toString(Error) + ", reject " +
                          serve::toString(Reject);
          continue;
        }
        // Only the request span is recorded in the loop; its children
        // are laid out after the loop (recordServedSpans).
        Out.Starts[I] = Start;
        Out.Roots[I] = T.record("rpc.repair", Start, Out.Walls[I], -1, I + 1);
        // The comparison needs the status and Delta bits, not the
        // repaired network; holding 1000+ networks would dominate the
        // process's peak memory.
        Report.Result.Repaired.reset();
        Out.Reports[I] = std::move(Report);
      }
      ClientStats[static_cast<size_t>(C)] = Client.stats();
    });
  for (std::thread &Thread : Threads)
    Thread.join();
  Out.Elapsed = Elapsed.seconds();
  S.Service->flush();
  Out.Service = S.Service->stats();
  for (const rpc::RpcClientStats &C : ClientStats) {
    Out.Clients.BytesSent += C.BytesSent;
    Out.Clients.BytesReceived += C.BytesReceived;
    Out.Clients.Retries += C.Retries;
  }
  return Out;
}

/// After the traced loop, outside its wall time: times the codec of
/// each served request and report the way both sides of the wire pay
/// it, and records the derived child spans of each rpc.repair span
/// (encode, queue, the engine job's phases, decode). The loop dropped
/// each report's repaired network; it is restored from the report's
/// serial twin, which the checks require to be bit-identical.
void recordServedSpans(const ServedInputs &In,
                       const std::vector<RepairReport> &Twins, Served &S,
                       Tracer &T) {
  for (std::size_t I = 0; I < S.Reports.size(); ++I) {
    if (S.Roots[I] < 0)
      continue;
    const std::size_t Tpl = In.Requests[I];
    serve::ServeRequest Request = In.Templates[Tpl].Serve;
    Request.Class = In.Classes[I];
    RepairReport Report = S.Reports[I];
    Report.Result.Repaired = Twins[Tpl].Result.Repaired;
    double Encode = 0.0, Decode = 0.0;
    if (!timeCodec(Request, Report, Encode, Decode) && S.Errors[I].empty())
      S.Errors[I] = "codec round trip failed";
    S.Encode += Encode;
    S.Decode += Decode;
    const int Root = S.Roots[I];
    double At = S.Starts[I];
    T.record("rpc.encode", At, Encode, Root, I + 1, true);
    At += Encode;
    T.record("api.queue", At, Report.QueueSeconds, Root, I + 1, true);
    At += Report.QueueSeconds;
    T.recordJob(Report, At, Root, I + 1);
    T.record("rpc.decode", At + Report.TotalSeconds, Decode, Root, I + 1,
             true);
  }
}

/// Checks one template's serial, cache-free twin against the theorems.
std::string checkTwin(const Template &T, const RepairReport &Twin) {
  const RepairResult &Result = Twin.Result;
  if (Twin.stats().SpecRows <= 0)
    return "spec has no rows";
  if (Result.Status != RepairStatus::Success &&
      Result.Status != RepairStatus::Infeasible)
    return std::string("repair ended ") + toString(Result.Status);
  const Network &Net = *T.Twin.Net;
  PointSpec Points;
  std::string Error;
  if (const auto *Lines = std::get_if<PolytopeSpec>(&T.Twin.Spec)) {
    Points = keyPointSpec(Net, *Lines);
    if (Result.Status == RepairStatus::Success)
      Error = checkDenseLines(Result, *Lines, /*SamplesPerLine=*/16);
  } else {
    Points = std::get<PointSpec>(T.Twin.Spec);
  }
  if (Error.empty() && Result.Status == RepairStatus::Success) {
    Error = checkSpecSatisfied(Result, Points);
    if (Error.empty())
      Error = checkAffine(Net, T.Twin.LayerIndex, Result, Points);
  }
  double BatchSeconds = 0.0, LpSeconds = 0.0;
  if (Error.empty())
    Error = checkMinimal(Net, T.Twin.LayerIndex, Points, Result,
                         &BatchSeconds, &LpSeconds);
  return Error;
}

} // namespace

RunResult perfbench::runServedMix(const RunConfig &Config) {
  RunResult Out;
  const int Blocks = std::max(
      kMinRequests / kBlock,
      static_cast<int>(std::lround(Config.Seconds *
                                   kNominalRequestsPerSecond / kBlock)));
  const std::string Root = std::string(kWorkDir) + "/served-" +
                           std::to_string(static_cast<long>(getpid()));

  // Set-up: train the task network, start the service and the server,
  // publish the model. The request stream is generated afterwards,
  // outside the set-up timer: it is the clients' workload, not the
  // system's set-up.
  std::vector<double> SetupTimes, TrainTimes, PublishTimes;
  Models M;
  std::unique_ptr<Stack> Main;
  for (int Rep = 0; Rep < kSetupReps; ++Rep) {
    Main.reset();
    WallTimer Timer;
    M = trainModels();
    Main = std::make_unique<Stack>(Root + "-main", M);
    SetupTimes.push_back(Timer.seconds());
    TrainTimes.push_back(M.TrainSeconds);
    PublishTimes.push_back(Main->PublishSeconds);
  }
  const ServedInputs In = makeInputs(M, Config.Seed, Blocks * kBlock);

  Tracer Untraced(false), Traced(Config.Trace);
  Served Run = serveAll(In, *Main, Untraced);
  Main.reset();
  const double PeakRss = peakRssMiB();
  Served TracedRun;
  if (Config.Trace) {
    Stack Fresh(Root + "-traced", M);
    TracedRun = serveAll(In, Fresh, Traced);
  }

  // Serial, cache-free twins, computed here outside every timer: each
  // served report must match its twin bit for bit. A twin is a
  // synchronous run() on a cache-free engine; twins and their checks
  // are independent per template, so they spread over all cores.
  EngineOptions SerialOptions;
  SerialOptions.EnableCache = false;
  RepairEngine Serial(SerialOptions);
  std::vector<RepairReport> Twins(In.Templates.size());
  std::vector<std::string> TemplateError =
      checkAll(Twins.size(), [&](std::size_t I) {
        Twins[I] = Serial.run(In.Templates[I].Twin);
        return checkTwin(In.Templates[I], Twins[I]);
      });
  if (Config.Trace)
    recordServedSpans(In, Twins, TracedRun, Traced);
  bool AnyDelta = false;
  std::map<std::string, int> Kinds;
  for (std::size_t I = 0; I < Twins.size(); ++I) {
    const RepairReport &Twin = Twins[I];
    AnyDelta = AnyDelta || (Twin.succeeded() && Twin.Result.DeltaL1 > 0.0);
    const Template &T = In.Templates[I];
    ++Kinds[std::string(T.Twin.isPolytope() ? "line" : "points") + "@L" +
            std::to_string(T.Twin.LayerIndex) + " " + toString(Twin.Status)];
  }
  std::printf("%zu requests over %zu distinct specs:", In.Requests.size(),
              In.Templates.size());
  for (const auto &[Kind, Count] : Kinds)
    std::printf(" [%s: %d]", Kind.c_str(), Count);
  std::printf("\n");
  for (const Served *S : {&Run, &TracedRun})
    for (std::size_t I = 0; I < S->Reports.size(); ++I) {
      std::size_t Tpl = In.Requests[I];
      const RepairReport &Report = S->Reports[I], &Twin = Twins[Tpl];
      std::string Error = S->Errors[I];
      if (Error.empty())
        Error = TemplateError[Tpl];
      if (Error.empty() && !AnyDelta)
        Error = "vacuous workload: no repair changed the network";
      if (Error.empty() &&
          (!bitIdentical(Report.Result, Twin.Result) ||
           Report.RepairedLayer != Twin.RepairedLayer))
        Error = "served report differs from its serial twin";
      if (!Error.empty())
        Error = "request " + std::to_string(I) + ": " + Error;
      Out.Ops.record(Error);
    }

  Out.EndToEnd.set("setup_s", quantile(SetupTimes, 0.5), "s");
  Out.EndToEnd.set("repair_s_p50", quantile(Run.Walls, 0.5), "s");
  Out.EndToEnd.set("repair_s_p99", quantile(Run.Walls, 0.99), "s");
  Out.EndToEnd.set("repairs_per_s",
                   static_cast<double>(Run.Walls.size()) / Run.Elapsed, "1/s");
  Out.EndToEnd.set("peak_rss_mb", PeakRss, "MiB");

  if (Config.Trace) {
    MetricSet &M = Out.PerLayer;
    const Served &S = TracedRun;
    const double N = static_cast<double>(S.Reports.size());
    std::vector<double> Queue, Job, Overhead;
    for (std::size_t I = 0; I < S.Reports.size(); ++I) {
      const RepairReport &R = S.Reports[I];
      addRepairStats(M, R);
      Queue.push_back(R.QueueSeconds);
      Job.push_back(R.TotalSeconds);
      Overhead.push_back(S.Walls[I] - R.QueueSeconds - R.TotalSeconds);
    }
    finishRepairStats(M, static_cast<long>(S.Reports.size()));
    M.set("train.net_s", quantile(TrainTimes, 0.5), "s");
    M.set("serve.publish_s", quantile(PublishTimes, 0.5), "s");
    M.set("api.queue_s_p50", quantile(Queue, 0.5), "s");
    M.set("api.job_s_p50", quantile(Job, 0.5), "s");
    M.set("rpc.overhead_s_p50", quantile(Overhead, 0.5), "s");
    M.set("rpc.encode_s", S.Encode / N, "s");
    M.set("rpc.decode_s", S.Decode / N, "s");
    M.set("rpc.bytes_per_repair",
          static_cast<double>(S.Clients.BytesSent + S.Clients.BytesReceived) /
              N,
          "B");
    M.set("serve.rejects", static_cast<double>(S.Service.Rejected), "count");
    M.set("rpc.retries", static_cast<double>(S.Clients.Retries), "count");
    M.set("cache.hit_ratio", S.Service.Cache.hitRate(), "ratio");
    M.set("persist.store_hits", static_cast<double>(S.Service.Cache.Store.Hits),
          "count");
    M.set("persist.store_writes",
          static_cast<double>(S.Service.Cache.Store.Writes), "count");
    fs::create_directories(std::string(kOutDir));
    std::string Base = std::string(kOutDir) + "/served_mix";
    double Unattributed =
        writeLayerTable(Base + "-layers.txt", "served_mix", Traced,
                        "rpc.repair", Run.Elapsed, S.Elapsed,
                        static_cast<long>(S.Reports.size()));
    Traced.writeChromeTrace(Base + "-trace.json");
    M.set("unattributed_s", Unattributed / N, "s");
    M.set("trace.overhead", S.Elapsed / Run.Elapsed - 1.0, "ratio");
  }
  return Out;
}
