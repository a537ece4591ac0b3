//===- bench/bench_rpc_fleet.cpp - two-host-simulation RPC bench -------------===//
//
// The RPC tier under fleet load: the parent re-execs itself into one
// SERVER process (RepairService behind an RpcServer on an ephemeral
// TCP port) and two CLIENT processes that connect over localhost -
// separate address spaces talking through real sockets, the closest a
// single machine gets to two hosts. The server publishes a fixed-seed
// model set and writes its port to a file; each client rebuilds the
// identical workload, computes every template's serial, CACHE-FREE
// twin in its own process, then floods the server with a stream of
// fingerprint-addressed, mixed-priority requests via
// RpcClient::repair() - riding out typed Saturated rejects with the
// client library's bounded backoff - and compares every wire-served
// RepairReport bit-for-bit against its local twin. Which process (or
// which side of a socket) served a request must never change its bits.
//
// The parent merges the sides' stats and emits BENCH_rpc_fleet.json:
// jobs/sec, p50/p95/p99 client latency, shed rejects and retries,
// and bytes on the wire, per client and aggregated. --smoke shrinks
// the replay for CI. Exits non-zero if any report diverged, any job
// went unserved, the server leaked an admission ticket, or the wire
// byte counters disagree across the socket.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "cache/Fingerprint.h"
#include "examples/DemoNetworks.h"
#include "persist/FrameFile.h"
#include "rpc/RpcClient.h"
#include "rpc/RpcServer.h"
#include "serve/RepairService.h"
#include "support/Timer.h"

#include <sys/wait.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

using namespace prdnn;
using namespace prdnn::bench;
using namespace prdnn::demo;
using namespace prdnn::rpc;
using namespace prdnn::serve;

namespace {

namespace fs = std::filesystem;

struct FleetConfig {
  int ClientProcesses = 2;
  /// More concurrent client connections than admission slots, so
  /// saturation (typed ConnectionReject / Saturated + the client
  /// library's retry-with-backoff) actually happens under load.
  int ThreadsPerClient = 4;
  int JobsPerClient = 600; ///< x2 processes = 1200 >= 1000 jobs total
  int MaxInFlight = 4;
  int Workers = 2;
};

FleetConfig smokeConfig() {
  FleetConfig C;
  C.ThreadsPerClient = 2;
  C.JobsPerClient = 20;
  C.MaxInFlight = 2;
  return C;
}

/// The model set and request templates both sides rebuild identically
/// (fixed seeds). The client never ships a network over the wire: it
/// names models by content fingerprint, computed locally, and the
/// server must resolve the same address from its registry.
struct Workload {
  std::vector<std::shared_ptr<Network>> Models;
  struct Template {
    int Model = 0; ///< index into Models
    ServeRequest Serve;
    RepairRequest Twin;
  };
  std::vector<Template> Templates;
};

Workload makeWorkload() {
  Workload W;
  Rng R(881200);
  W.Models.push_back(std::make_shared<Network>(makeClassifier(R)));
  W.Models.push_back(std::make_shared<Network>(makeRegressor(R)));

  const RepairRequest::Priority Classes[] = {
      RepairRequest::Priority::High, RepairRequest::Priority::Neutral,
      RepairRequest::Priority::Neutral, RepairRequest::Priority::Low};
  int Seed = 0;
  auto AddPoints = [&](int Model, int Layer) {
    Rng SpecR(9000 + Seed);
    PointSpec Spec = makeFlipSpec(*W.Models[Model], SpecR, 10);
    Workload::Template T;
    T.Model = Model;
    T.Serve.Model = fingerprintNetwork(*W.Models[Model]);
    T.Serve.Spec = Spec;
    T.Serve.LayerIndex = Layer;
    T.Serve.Class = Classes[Seed % 4];
    T.Twin = RepairRequest::points(W.Models[Model], Layer, std::move(Spec));
    ++Seed;
    W.Templates.push_back(std::move(T));
  };
  for (int Layer : {0, 2, 4})
    AddPoints(0, Layer);
  {
    Rng SpecR(9100);
    PolytopeSpec Spec = makeSegmentSpec(*W.Models[1], SpecR, 2);
    Workload::Template T;
    T.Model = 1;
    T.Serve.Model = fingerprintNetwork(*W.Models[1]);
    T.Serve.Spec = Spec;
    T.Serve.LayerIndex = 2;
    T.Serve.Class = RepairRequest::Priority::Low;
    T.Twin = RepairRequest::polytopes(W.Models[1], 2, std::move(Spec));
    W.Templates.push_back(std::move(T));
  }
  {
    Rng SpecR(9200);
    PointSpec Spec = makeFlipSpec(*W.Models[0], SpecR, 8);
    Workload::Template T;
    T.Model = 0;
    T.Serve.Model = fingerprintNetwork(*W.Models[0]);
    T.Serve.Spec = Spec;
    T.Serve.LayerIndex = kAutoLayer;
    T.Twin.Net = W.Models[0];
    T.Twin.Spec = std::move(Spec);
    T.Twin.LayerIndex = kAutoLayer;
    W.Templates.push_back(std::move(T));
  }
  return W;
}

/// Atomic small-file write, so a polling reader never sees a
/// half-written port number.
bool writeFileAtomic(const fs::path &Path, const std::string &Contents) {
  return persist::publishFile(
             Path.string(),
             std::vector<std::uint8_t>(Contents.begin(), Contents.end()),
             /*Replace=*/true) == persist::PublishResult::Published;
}

// --- Server process ---------------------------------------------------------

int serverMain(const std::string &Dir, const std::string &StatsFile,
               const FleetConfig &Config) {
  Workload W = makeWorkload();

  ServiceOptions Options;
  Options.StoreDirectory = (fs::path(Dir) / "store").string();
  Options.Engine.NumWorkers = Config.Workers;
  Options.Admission.MaxInFlight = Config.MaxInFlight;
  RepairService Service(Options);

  for (const auto &Model : W.Models) {
    RegistryError Error = RegistryError::None;
    Service.registry().publish(*Model, &Error);
    if (Error != RegistryError::None) {
      std::fprintf(stderr, "[server] publish failed: %s\n", toString(Error));
      return 1;
    }
  }

  RpcServerOptions ServerOptions;
  ServerOptions.Port = 0; // ephemeral: announced via the port file
  ServerOptions.MaxConnections =
      Config.ClientProcesses * Config.ThreadsPerClient + 4;
  RpcServer Server(Service, ServerOptions);
  RpcError Error = RpcError::None;
  if (!Server.start(&Error)) {
    std::fprintf(stderr, "[server] start failed: %s\n", toString(Error));
    return 1;
  }
  if (!writeFileAtomic(fs::path(Dir) / "port",
                       std::to_string(Server.port()))) {
    std::fprintf(stderr, "[server] cannot announce port\n");
    return 1;
  }

  // Serve until the parent says every client has exited.
  const fs::path StopFile = fs::path(Dir) / "stop";
  while (!fs::exists(StopFile))
    std::this_thread::sleep_for(std::chrono::milliseconds(50));

  // Counters are only final once the connection threads are joined:
  // stop first, then snapshot.
  Server.stop();
  RpcServerStats Wire = Server.stats();
  ServiceStats Stats = Service.stats();

  // A leaked ticket (or a still-queued job) after drain is a bug the
  // bench must fail on, not average away.
  bool ServerOk = Stats.Admission.Depth == 0 && Stats.Engine.Depth == 0 &&
                  Stats.Engine.Running == 0;

  std::ofstream Os(StatsFile);
  if (!Os) {
    std::fprintf(stderr, "[server] cannot write %s\n", StatsFile.c_str());
    return 1;
  }
  Os << "ok " << (ServerOk ? 1 : 0) << "\n"
     << "accepted " << Stats.Accepted << "\n"
     << "rejected " << Stats.Rejected << "\n"
     << "saturated_rejects " << Stats.Admission.SaturatedRejects << "\n"
     << "connections " << Wire.ConnectionsAccepted << "\n"
     << "connection_rejects " << Wire.ConnectionsRejected << "\n"
     << "malformed_frames " << Wire.MalformedFrames << "\n"
     << "await_timeouts " << Wire.AwaitTimeouts << "\n"
     << "orphaned_jobs " << Wire.OrphanedJobs << "\n"
     << "bytes_sent " << Wire.BytesSent << "\n"
     << "bytes_received " << Wire.BytesReceived << "\n"
     << "admission_depth " << Stats.Admission.Depth << "\n";
  Os.close();

  if (!ServerOk)
    std::fprintf(stderr,
                 "[server] FAILED: admission depth %d, engine depth %d, "
                 "running %d after drain\n",
                 Stats.Admission.Depth, Stats.Engine.Depth,
                 Stats.Engine.Running);
  return ServerOk ? 0 : 1;
}

// --- Client process ---------------------------------------------------------

int clientMain(int Role, const std::string &Dir,
               const std::string &StatsFile, const FleetConfig &Config) {
  Workload W = makeWorkload();

  // Serial ground truth, computed in THIS process, cache-free: the
  // wire-served reports must match these bits exactly.
  std::vector<RepairReport> Twins;
  {
    EngineOptions SerialOptions;
    SerialOptions.EnableCache = false;
    RepairEngine SerialEngine(SerialOptions);
    for (const auto &T : W.Templates)
      Twins.push_back(SerialEngine.run(T.Twin));
  }

  // Wait for the server to announce its ephemeral port.
  const fs::path PortFile = fs::path(Dir) / "port";
  int Port = 0;
  for (int Spin = 0; Spin < 600 && Port == 0; ++Spin) {
    if (fs::exists(PortFile)) {
      std::ifstream Is(PortFile);
      Is >> Port;
    }
    if (Port == 0)
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  if (Port == 0) {
    std::fprintf(stderr, "[client %d] server never announced a port\n", Role);
    return 1;
  }

  std::atomic<int> NextJob{0};
  std::atomic<int> Divergences{0};
  std::atomic<int> Unserved{0};
  std::atomic<std::uint64_t> BytesSent{0}, BytesReceived{0};
  std::atomic<std::uint64_t> Retries{0}, ShedRejects{0}, Reconnects{0};
  // Thread-sharded: every connection thread observes into the one
  // histogram, and the snapshot below is the exact per-bucket merge.
  obs::Histogram LatencyHist(obs::defaultLatencyBuckets());
  WallTimer ReplayTimer;
  std::vector<std::thread> Threads;
  for (int C = 0; C < Config.ThreadsPerClient; ++C) {
    Threads.emplace_back([&] {
      RpcClientOptions ClientOptions;
      ClientOptions.Port = Port;
      // Saturation is the designed backpressure: retry essentially
      // forever with a tight backoff, like a client bouncing off a
      // loaded server, and let Unserved catch real give-ups.
      ClientOptions.RetryLimit = 1000000;
      ClientOptions.InitialBackoffSeconds = 0.0002;
      ClientOptions.MaxBackoffSeconds = 0.002;
      RpcClient Client(ClientOptions);
      for (;;) {
        int Job = NextJob.fetch_add(1, std::memory_order_relaxed);
        if (Job >= Config.JobsPerClient)
          break;
        const size_t Slot =
            static_cast<size_t>(Job) % W.Templates.size();
        WallTimer JobTimer;
        RepairReport Report;
        ServeReject Reject = ServeReject::None;
        RpcError Error = Client.repair(W.Templates[Slot].Serve, Report,
                                       Reject);
        if (Error != RpcError::None || Reject != ServeReject::None) {
          std::fprintf(stderr,
                       "[client %d] job %d unserved: rpc %s, reject %s\n",
                       Role, Job, toString(Error), toString(Reject));
          Unserved.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        LatencyHist.observe(JobTimer.seconds());
        const RepairReport &Twin = Twins[Slot];
        if (!bitIdentical(Report.Result, Twin.Result) ||
            Report.Status != Twin.Status ||
            Report.RepairedLayer != Twin.RepairedLayer)
          Divergences.fetch_add(1, std::memory_order_relaxed);
      }
      RpcClientStats Stats = Client.stats();
      BytesSent.fetch_add(Stats.BytesSent, std::memory_order_relaxed);
      BytesReceived.fetch_add(Stats.BytesReceived,
                              std::memory_order_relaxed);
      Retries.fetch_add(Stats.Retries, std::memory_order_relaxed);
      ShedRejects.fetch_add(Stats.ShedRejects, std::memory_order_relaxed);
      Reconnects.fetch_add(Stats.Reconnects, std::memory_order_relaxed);
    });
  }
  for (std::thread &T : Threads)
    T.join();
  double ReplaySeconds = ReplayTimer.seconds();

  const obs::HistogramSnapshot Latency = LatencyHist.snapshot();
  const auto Jobs = static_cast<long long>(Latency.count());

  bool ClientOk = Divergences.load() == 0 && Unserved.load() == 0 &&
                  Jobs == Config.JobsPerClient;
  std::ofstream Os(StatsFile);
  if (!Os) {
    std::fprintf(stderr, "[client %d] cannot write %s\n", Role,
                 StatsFile.c_str());
    return 1;
  }
  Os << "ok " << (ClientOk ? 1 : 0) << "\n"
     << "jobs " << Jobs << "\n"
     << "replay_seconds " << ReplaySeconds << "\n"
     << "divergences " << Divergences.load() << "\n"
     << "unserved " << Unserved.load() << "\n"
     << "retries " << Retries.load() << "\n"
     << "shed_rejects " << ShedRejects.load() << "\n"
     << "reconnects " << Reconnects.load() << "\n"
     << "bytes_sent " << BytesSent.load() << "\n"
     << "bytes_received " << BytesReceived.load() << "\n";
  writeLatencyHistogram(Os, Latency);
  Os.close();

  if (!ClientOk)
    std::fprintf(stderr,
                 "[client %d] FAILED: %d divergences, %d unserved, %lld/%d "
                 "jobs\n",
                 Role, Divergences.load(), Unserved.load(), Jobs,
                 Config.JobsPerClient);
  return ClientOk ? 0 : 1;
}

// --- Parent: spawn, merge, report -------------------------------------------

struct SideStats {
  bool Ok = false;
  long long Jobs = 0;
  double ReplaySeconds = 0.0;
  long long Divergences = 0, Unserved = 0;
  long long Retries = 0, ShedRejects = 0, Reconnects = 0;
  long long BytesSent = 0, BytesReceived = 0;
  long long Accepted = 0, SaturatedRejects = 0;
  long long Connections = 0, ConnectionRejects = 0;
  long long MalformedFrames = 0, AwaitTimeouts = 0, OrphanedJobs = 0;
  long long AdmissionDepth = 0;
  /// Bucket counts as read off the stats file; finalized into
  /// LatencyHist once the file is fully parsed.
  std::vector<std::uint64_t> LatencyCounts;
  double LatencySum = 0.0;
  obs::HistogramSnapshot LatencyHist;
};

bool readSideStats(const std::string &File, SideStats &Stats) {
  std::ifstream Is(File);
  if (!Is)
    return false;
  std::string Key;
  while (Is >> Key) {
    if (Key == "ok") {
      int V;
      Is >> V;
      Stats.Ok = V == 1;
    } else if (Key == "jobs")
      Is >> Stats.Jobs;
    else if (Key == "replay_seconds")
      Is >> Stats.ReplaySeconds;
    else if (Key == "divergences")
      Is >> Stats.Divergences;
    else if (Key == "unserved")
      Is >> Stats.Unserved;
    else if (Key == "retries")
      Is >> Stats.Retries;
    else if (Key == "shed_rejects")
      Is >> Stats.ShedRejects;
    else if (Key == "reconnects")
      Is >> Stats.Reconnects;
    else if (Key == "bytes_sent")
      Is >> Stats.BytesSent;
    else if (Key == "bytes_received")
      Is >> Stats.BytesReceived;
    else if (Key == "accepted")
      Is >> Stats.Accepted;
    else if (Key == "saturated_rejects")
      Is >> Stats.SaturatedRejects;
    else if (Key == "connections")
      Is >> Stats.Connections;
    else if (Key == "connection_rejects")
      Is >> Stats.ConnectionRejects;
    else if (Key == "malformed_frames")
      Is >> Stats.MalformedFrames;
    else if (Key == "await_timeouts")
      Is >> Stats.AwaitTimeouts;
    else if (Key == "orphaned_jobs")
      Is >> Stats.OrphanedJobs;
    else if (Key == "admission_depth")
      Is >> Stats.AdmissionDepth;
    else if (Key == "lat_bucket") {
      std::uint64_t Count;
      Is >> Count;
      Stats.LatencyCounts.push_back(Count);
    } else if (Key == "lat_sum")
      Is >> Stats.LatencySum;
    else {
      std::string Skip;
      Is >> Skip;
    }
  }
  Stats.LatencyHist =
      latencySnapshotFromCounts(Stats.LatencyCounts, Stats.LatencySum);
  return true;
}

int parentMain(const std::string &Argv0, bool Smoke) {
  const FleetConfig Config = Smoke ? smokeConfig() : FleetConfig();
  const fs::path RunDir =
      fs::temp_directory_path() /
      ("prdnn-rpc-fleet-" +
       std::to_string(
           std::chrono::steady_clock::now().time_since_epoch().count()));
  fs::create_directories(RunDir);

  std::printf("=== RPC fleet: 1 server + %d client processes x %d "
              "connections x %d jobs over TCP localhost (%s) ===\n",
              Config.ClientProcesses, Config.ThreadsPerClient,
              Config.JobsPerClient, Smoke ? "smoke" : "full");
  std::printf("run dir: %s\n\n", RunDir.string().c_str());
  std::fflush(stdout);

  auto Spawn = [&](const std::string &RoleArgs, int &ExitCode) {
    std::ostringstream Command;
    Command << '"' << Argv0 << "\" " << RoleArgs << " --dir \""
            << RunDir.string() << "\" --threads "
            << Config.ThreadsPerClient << " --jobs " << Config.JobsPerClient
            << " --inflight " << Config.MaxInFlight << " --workers "
            << Config.Workers << " --processes " << Config.ClientProcesses;
    int Status = std::system(Command.str().c_str());
    ExitCode = Status == -1
                   ? 127
                   : (WIFEXITED(Status) ? WEXITSTATUS(Status) : 126);
  };

  const std::string ServerStats = (RunDir / "server.stats").string();
  std::vector<std::string> ClientStats;
  for (int P = 0; P < Config.ClientProcesses; ++P)
    ClientStats.push_back((RunDir / ("client-" + std::to_string(P) +
                                     ".stats")).string());

  int ServerExit = 1;
  std::vector<int> ClientExits(static_cast<size_t>(Config.ClientProcesses),
                               1);
  WallTimer FleetTimer;
  std::thread ServerThread([&] {
    Spawn("--server --stats \"" + ServerStats + "\"", ServerExit);
  });
  std::vector<std::thread> ClientThreads;
  for (int P = 0; P < Config.ClientProcesses; ++P)
    ClientThreads.emplace_back([&, P] {
      Spawn("--client " + std::to_string(P) + " --stats \"" +
                ClientStats[static_cast<size_t>(P)] + "\"",
            ClientExits[static_cast<size_t>(P)]);
    });
  for (std::thread &T : ClientThreads)
    T.join();
  // Every client has exited: tell the server to drain and report.
  writeFileAtomic(RunDir / "stop", "stop\n");
  ServerThread.join();
  double FleetSeconds = FleetTimer.seconds();

  bool Ok = true;
  BenchJson Json("rpc_fleet");
  SideStats Total;
  for (int P = 0; P < Config.ClientProcesses; ++P) {
    SideStats Stats;
    bool Read =
        readSideStats(ClientStats[static_cast<size_t>(P)], Stats);
    Ok = Ok && Read && Stats.Ok &&
         ClientExits[static_cast<size_t>(P)] == 0;
    const obs::HistogramSnapshot &Latency = Stats.LatencyHist;
    double JobsPerSec =
        Stats.ReplaySeconds > 0
            ? static_cast<double>(Stats.Jobs) / Stats.ReplaySeconds
            : 0.0;
    std::printf("client %d: exit %d, %lld jobs, %.1f jobs/s, p50 %.1fms "
                "p99 %.1fms, %lld shed rejects, %lld retries, %lld "
                "reconnects, %.1f KiB out / %.1f KiB in\n",
                P, ClientExits[static_cast<size_t>(P)], Stats.Jobs,
                JobsPerSec, 1e3 * Latency.quantile(0.50),
                1e3 * Latency.quantile(0.99), Stats.ShedRejects,
                Stats.Retries, Stats.Reconnects,
                static_cast<double>(Stats.BytesSent) / 1024.0,
                static_cast<double>(Stats.BytesReceived) / 1024.0);

    Json.beginRecord();
    Json.add("scope", "client" + std::to_string(P));
    Json.add("exit_code", ClientExits[static_cast<size_t>(P)]);
    Json.add("jobs", static_cast<int>(Stats.Jobs));
    Json.add("replay_seconds", Stats.ReplaySeconds);
    Json.add("jobs_per_sec", JobsPerSec);
    addLatencyRecord(Json, Latency);
    Json.add("divergences", static_cast<int>(Stats.Divergences));
    Json.add("unserved", static_cast<int>(Stats.Unserved));
    Json.add("retries", static_cast<int>(Stats.Retries));
    Json.add("shed_rejects", static_cast<int>(Stats.ShedRejects));
    Json.add("reconnects", static_cast<int>(Stats.Reconnects));
    Json.add("bytes_sent", static_cast<double>(Stats.BytesSent));
    Json.add("bytes_received", static_cast<double>(Stats.BytesReceived));

    Total.Jobs += Stats.Jobs;
    Total.Divergences += Stats.Divergences;
    Total.Unserved += Stats.Unserved;
    Total.Retries += Stats.Retries;
    Total.ShedRejects += Stats.ShedRejects;
    Total.Reconnects += Stats.Reconnects;
    Total.BytesSent += Stats.BytesSent;
    Total.BytesReceived += Stats.BytesReceived;
    // Exact cross-process merge: bucket counts add, no re-sampling.
    Total.LatencyHist.merge(Stats.LatencyHist);
  }

  SideStats Server;
  bool ServerRead = readSideStats(ServerStats, Server);
  Ok = Ok && ServerRead && Server.Ok && ServerExit == 0;

  // Cross-socket accounting: every byte a client sent the server
  // received, and vice versa. (Connection-bound rejects close before
  // the client's request bytes are drained, so only demand equality
  // when nothing was shed at the accept gate.)
  if (ServerRead && Server.ConnectionRejects == 0 &&
      (Server.BytesReceived != Total.BytesSent ||
       Server.BytesSent != Total.BytesReceived)) {
    std::printf("BYTE MISMATCH: server rx %lld vs clients tx %lld, "
                "server tx %lld vs clients rx %lld\n",
                Server.BytesReceived, Total.BytesSent, Server.BytesSent,
                Total.BytesReceived);
    Ok = false;
  }

  const obs::HistogramSnapshot &FleetLatency = Total.LatencyHist;
  double FleetJobsPerSec =
      FleetSeconds > 0 ? static_cast<double>(Total.Jobs) / FleetSeconds
                       : 0.0;
  std::printf("server: exit %d, %lld accepted, %lld saturated rejects, "
              "%lld connections (%lld rejected), %lld await timeouts, "
              "%lld orphans, admission depth %lld after drain\n",
              ServerExit, Server.Accepted, Server.SaturatedRejects,
              Server.Connections, Server.ConnectionRejects,
              Server.AwaitTimeouts, Server.OrphanedJobs,
              Server.AdmissionDepth);
  std::printf("\nfleet: %lld jobs in %.1fs (%.1f jobs/s), p50 %.1fms "
              "p95 %.1fms p99 %.1fms, %.1f MiB on the wire\n",
              Total.Jobs, FleetSeconds, FleetJobsPerSec,
              1e3 * FleetLatency.quantile(0.50),
              1e3 * FleetLatency.quantile(0.95),
              1e3 * FleetLatency.quantile(0.99),
              static_cast<double>(Total.BytesSent + Total.BytesReceived) /
                  (1024.0 * 1024.0));

  Json.beginRecord();
  Json.add("scope", "fleet");
  Json.add("client_processes", Config.ClientProcesses);
  Json.add("connections_per_client", Config.ThreadsPerClient);
  Json.add("jobs", static_cast<int>(Total.Jobs));
  Json.add("wall_seconds", FleetSeconds);
  Json.add("jobs_per_sec", FleetJobsPerSec);
  addLatencyRecord(Json, FleetLatency);
  Json.add("divergences", static_cast<int>(Total.Divergences));
  Json.add("unserved", static_cast<int>(Total.Unserved));
  Json.add("retries", static_cast<int>(Total.Retries));
  Json.add("shed_rejects", static_cast<int>(Total.ShedRejects));
  Json.add("server_accepted", static_cast<int>(Server.Accepted));
  Json.add("server_saturated_rejects",
           static_cast<int>(Server.SaturatedRejects));
  Json.add("server_connections", static_cast<int>(Server.Connections));
  Json.add("server_connection_rejects",
           static_cast<int>(Server.ConnectionRejects));
  Json.add("server_malformed_frames",
           static_cast<int>(Server.MalformedFrames));
  Json.add("server_await_timeouts",
           static_cast<int>(Server.AwaitTimeouts));
  Json.add("server_admission_depth_after_drain",
           static_cast<int>(Server.AdmissionDepth));
  Json.add("bytes_on_wire",
           static_cast<double>(Total.BytesSent + Total.BytesReceived));
  Json.add("smoke", Smoke ? 1 : 0);

  std::string JsonFile = Json.write();
  if (!JsonFile.empty())
    std::printf("wrote %s\n", JsonFile.c_str());

  {
    std::error_code Ec;
    fs::remove_all(RunDir, Ec);
  }
  std::printf("%s\n", Ok ? "bench_rpc_fleet: every wire-served report "
                           "bit-identical to its serial twin"
                         : "bench_rpc_fleet: FAILED");
  return Ok ? 0 : 1;
}

} // namespace

int main(int Argc, char **Argv) {
  std::setvbuf(stdout, nullptr, _IOFBF, 1 << 16);
  bool Smoke = false;
  bool ServerRole = false;
  int ClientRole = -1;
  std::string Dir, StatsFile;
  FleetConfig Config;
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    auto Next = [&] { return I + 1 < Argc ? Argv[++I] : ""; };
    if (Arg == "--smoke")
      Smoke = true;
    else if (Arg == "--server")
      ServerRole = true;
    else if (Arg == "--client")
      ClientRole = std::atoi(Next());
    else if (Arg == "--dir")
      Dir = Next();
    else if (Arg == "--stats")
      StatsFile = Next();
    else if (Arg == "--threads")
      Config.ThreadsPerClient = std::atoi(Next());
    else if (Arg == "--jobs")
      Config.JobsPerClient = std::atoi(Next());
    else if (Arg == "--inflight")
      Config.MaxInFlight = std::atoi(Next());
    else if (Arg == "--workers")
      Config.Workers = std::atoi(Next());
    else if (Arg == "--processes")
      Config.ClientProcesses = std::atoi(Next());
  }
  if (ServerRole)
    return serverMain(Dir, StatsFile, Config);
  if (ClientRole >= 0)
    return clientMain(ClientRole, Dir, StatsFile, Config);
  return parentMain(Argv[0], Smoke);
}
