//===- perfbench/src/Workloads.cpp - The benchmark's workloads ------------===//
//
// Part of the PALMED reproduction's benchmark (perfbench).
//
// The library is driven only through its public entry points: Pipeline,
// PredictorRegistry / EvalSession, predict::CompiledMapping / KernelBatch /
// predictIpcBatch, serve::Server / Client / MappingIO. Every thread width
// and connection count is a constant below; none is resolved from the
// hardware.
//
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "Inputs.h"
#include "Layers.h"
#include "Stats.h"
#include "Trace.h"

#include "palmed/palmed.h"
#include "predict/BatchEngine.h"
#include "predict/CompiledMapping.h"
#include "predict/KernelBatch.h"
#include "serve/Client.h"
#include "serve/MappingIO.h"
#include "serve/Protocol.h"
#include "serve/Server.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <exception>
#include <functional>
#include <limits>
#include <malloc.h>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <sched.h>
#include <thread>
#include <unistd.h>

using namespace palmed;

namespace perfbench {
namespace {

// --- Fixed widths and sizes ------------------------------------------------
constexpr unsigned MapThreads = 2;      // Pipeline ExecutionPolicy.
constexpr unsigned SessionThreads = 2;  // EvalSession ExecutionPolicy.
constexpr unsigned DaemonThreads = 1;   // serve::ServerConfig::NumThreads.
constexpr size_t NumClients = 2;        // Closed-loop client connections.
constexpr unsigned ServeCpus = 2;       // CPUs the serve workloads run on.
constexpr int MinSetupsPerSlice = 5;   // Set-up samples per slice,
constexpr double SetupSliceS = 0.25;    // repeated until this much time.
constexpr double HugeMapsPerSecond = 0.2; // map-huge: 2 maps at 10 s.
constexpr double CampaignsPerSecond = 0.05; // campaign-skl: 1 at 10 s.
constexpr int ServeWindows = 3;         // serve-zipf traffic windows.
constexpr size_t HeldOutPerProfile = 5000;
constexpr size_t SuiteBlocks = 600;
constexpr size_t ZipfPoolSize = 4096;
constexpr double ZipfExponent = 1.1;
constexpr uint64_t ZipfMaxBatch = 16;
constexpr size_t ColdCorpusSize = 200000;
constexpr size_t ColdBatch = 256;
// Blocks per generateWorkload call when collecting distinct kernels (its
// per-block Zipf weight draw is linear in the call's block count, so many
// small calls are much cheaper than a few large ones).
constexpr size_t CorpusBlocksPerCall = 100;
constexpr double ColdRoundsPerSecond = 0.8; // cold-corpus: 8 rounds at 10 s.
constexpr size_t ProbeKernels = 2048;
constexpr int ProbeRepeats = 5;
constexpr size_t ReplayRequests = 2000;
// serve-zipf requests replayed untimed before the timed stretch, so the
// replayed requests hit the cache as often as the socket traffic does.
constexpr size_t ReplayWarmRequests = 20000;
constexpr size_t TailChunk = 100;       // Samples per chunk of op_tail_ms.
// Latency storage reserved per serve-zipf client and second (about twice
// the rate seen on a 4-CPU host).
constexpr double ZipfRequestsPerClientSecond = 80000;

double since(double T0) { return nowSeconds() - T0; }

double mean(const std::vector<double> &V) {
  if (V.empty())
    return 0.0;
  double S = 0.0;
  for (double X : V)
    S += X;
  return S / static_cast<double>(V.size());
}

/// Client traffic totals.
struct Traffic {
  uint64_t Requests = 0;
  uint64_t Kernels = 0;
  double WallS = 0.0;
  double LatencySumS = 0.0;

  void add(const Traffic &O) {
    Requests += O.Requests;
    Kernels += O.Kernels;
    WallS += O.WallS;
    LatencySumS += O.LatencySumS;
  }
};

/// The workload's random inputs, each drawn from its own stream of
/// palmed::Rng seeded with --seed, in a fixed order: an input depends only
/// on the seed, not on which other inputs a workload draws.
struct InputSeeds {
  uint64_t HeldOut, SpecSuite, PolySuite, ZipfPool, Corpus;
  /// Forked once per client connection for its request stream.
  Rng Clients;

  explicit InputSeeds(uint64_t Seed) : Clients(0) {
    Rng Root(Seed);
    HeldOut = Root.next();
    SpecSuite = Root.next();
    PolySuite = Root.next();
    ZipfPool = Root.next();
    Corpus = Root.next();
    Clients = Root.fork();
  }
};

/// One workload invocation: options, tracer, tallies and samples.
struct Run {
  const RunOptions &O;
  InputSeeds Seeds;
  Tracer T;
  RunResult R;
  int Root;
  /// The machine the workload maps and its daemons serve, and its name
  /// on the daemon.
  MachineModel (*MakeMachine)() = nullptr;
  std::string MachineName;
  std::vector<double> SetupS;
  std::vector<double> MapS;
  /// Operation times in the order taken (map-huge, campaign-skl; the
  /// serve workloads fill it from Latency when the run ends).
  std::vector<double> OpS;
  /// Request latencies per client connection, in the order taken, appended
  /// across windows and passes into storage reserved up front: the
  /// harness's own memory grows by 4 bytes per request and is never copied
  /// before the memory high-water mark is read.
  std::vector<std::vector<float>> Latency;
  Traffic Served;
  double MapBenchmarks = 0.0;
  ToolAccuracy Palmed;
  double CorpusRate = 0.0;
  double RssGrowthMiB = 0.0;
  /// CPUs the run is pinned to; 0 when it is not pinned.
  unsigned PinnedCpus = 0;
  /// Mapping file and socket, relative to the working directory.
  std::string MappingFile;
  std::string SocketPath;

  explicit Run(const RunOptions &O)
      : O(O), Seeds(O.Seed), T(O.Trace), Root(T.begin("run." + O.Workload)),
        MappingFile("perfbench-" + std::to_string(::getpid()) + ".palmedmap"),
        SocketPath("perfbench-" + std::to_string(::getpid()) + ".sock") {}

  bool traced() const { return O.Trace; }
  void layer(const std::string &Name, double Value, const char *Unit) {
    R.PerLayer[Name] = Metric{Value, Unit};
  }
  void addLayer(const std::string &Name, double Delta, const char *Unit) {
    Metric &M = R.PerLayer[Name];
    M.Value += Delta;
    M.Unit = Unit;
  }
  void named(const std::string &Name, double Value, const char *Unit) {
    R.Named[Name] = Metric{Value, Unit};
  }
};

/// Builds one object with \p Make, timed as a set-up sample.
template <typename F> auto timedSetup(Run &X, F &&Make) -> decltype(Make()) {
  int Span = X.T.begin("setup", X.Root);
  double T0 = nowSeconds();
  auto Made = Make();
  X.SetupS.push_back(since(T0));
  X.T.end(Span);
  return Made;
}

/// One slice of set-up samples: runs \p Make at least MinSetupsPerSlice
/// times and until SetupSliceS of set-up time has accumulated, discarding
/// what it builds outside the timed region (a sample times set-up, not
/// teardown). Workloads run several slices spread through the run.
template <typename F> void setupSlice(Run &X, F &&Make) {
  int Span = X.T.begin("setup", X.Root);
  double Total = 0.0;
  int Count = 0;
  for (; Count < MinSetupsPerSlice || Total < SetupSliceS; ++Count) {
    double T0 = nowSeconds();
    auto Discarded = Make();
    X.SetupS.push_back(since(T0));
    Total += X.SetupS.back();
  }
  X.T.count(Span, "setups", Count);
  X.T.end(Span);
}

// --- Measurement rig and mapping inference ---------------------------------

/// The analytic oracle behind a BenchmarkRunner; decorated (TimingOracle
/// backend, CountingRunner front door) in the traced run only.
struct Rig {
  AnalyticOracle Oracle;
  std::unique_ptr<TimingOracle> Timed;
  std::unique_ptr<BenchmarkRunner> Runner;
  CountingRunner *Counting = nullptr;

  Rig(const MachineModel &M, bool Traced) : Oracle(M) {
    if (!Traced) {
      Runner = std::make_unique<BenchmarkRunner>(M, Oracle);
      return;
    }
    Timed = std::make_unique<TimingOracle>(Oracle);
    auto C = std::make_unique<CountingRunner>(M, *Timed);
    Counting = C.get();
    Runner = std::move(C);
  }
};

/// Copies the first traced map's layer numbers out of its spans and stats.
void recordMapLayers(Run &X, const PalmedStats &Stats, int MapSpan) {
  std::vector<Span> Spans = X.T.spans();
  auto ChildOf = [&](int Parent, const std::string &Name) {
    for (size_t I = 0; I < Spans.size(); ++I)
      if (Spans[I].Parent == Parent && Spans[I].Name == Name)
        return static_cast<int>(I);
    return Tracer::NoSpan;
  };
  auto Dur = [&](int Id) {
    return Id == Tracer::NoSpan
               ? 0.0
               : Spans[static_cast<size_t>(Id)].End -
                     Spans[static_cast<size_t>(Id)].Start;
  };
  auto Counter = [&](int Id, const std::string &Key) {
    if (Id == Tracer::NoSpan)
      return 0.0;
    const auto &C = Spans[static_cast<size_t>(Id)].Counters;
    auto It = C.find(Key);
    return It == C.end() ? 0.0 : It->second;
  };
  int Select = ChildOf(MapSpan, "stage.select-basics");
  int Core = ChildOf(MapSpan, "stage.solve-core-mapping");
  int Complete = ChildOf(MapSpan, "stage.complete-mapping");
  double Rounds = 0.0, RoundMax = 0.0;
  for (const Span &S : Spans)
    if (Core != Tracer::NoSpan && S.Parent == Core &&
        S.Name == "stage2.round") {
      Rounds += 1.0;
      RoundMax = std::max(RoundMax, S.End - S.Start);
    }
  X.layer("stage1.select_s", Dur(Select), "s");
  X.layer("stage1.pair_benchmarks", static_cast<double>(Stats.PairBenchmarks),
          "count");
  X.layer("stage2.core_s", Dur(Core), "s");
  X.layer("stage2.shape_rounds", Rounds, "count");
  X.layer("stage2.round_max_s", RoundMax, "s");
  X.layer("stage2.core_kernels", static_cast<double>(Stats.NumCoreKernels),
          "count");
  X.layer("stage2.lp2_components", static_cast<double>(Stats.Lp2Components),
          "count");
  X.layer("stage3.complete_s", Dur(Complete), "s");
  X.layer("stage3.oracle_s", Counter(Complete, "oracle_s"), "s");
  X.layer("lp.core_solves", static_cast<double>(Stats.CoreLpSolves), "count");
  X.layer("lp.core_pivots", static_cast<double>(Stats.CoreLpPivots), "count");
  X.layer("lp.aux_solves", static_cast<double>(Stats.CompleteLpSolves),
          "count");
  X.layer("lp.aux_pivots", static_cast<double>(Stats.CompleteLpPivots),
          "count");
  X.layer("lp.warm_attempts", static_cast<double>(Stats.LpWarmStartAttempts),
          "count");
  X.layer("lp.warm_hit_rate",
          Stats.LpWarmStartAttempts
              ? static_cast<double>(Stats.LpWarmStartHits) /
                    static_cast<double>(Stats.LpWarmStartAttempts)
              : 0.0,
          "ratio");
  double RunnerCalls = Counter(MapSpan, "runner_calls");
  double OracleCalls = Counter(MapSpan, "oracle_calls");
  X.layer("sim.runner_calls", RunnerCalls, "count");
  X.layer("sim.oracle_calls", OracleCalls, "count");
  X.layer("sim.runner_hit_rate",
          RunnerCalls > 0 ? 1.0 - OracleCalls / RunnerCalls : 0.0, "ratio");
  X.layer("sim.oracle_s", Counter(MapSpan, "oracle_s"), "s");
}

/// Returns freed heap memory to the system between repetitions. Maps,
/// clients and daemon handlers run on fresh threads, hence fresh malloc
/// arenas; without this the memory high-water mark would depend on what
/// earlier repetitions left cached in which arena.
void releaseFreeMemory() { ::malloc_trim(0); }

/// Runs \p Fn on a new thread and waits for it, rethrowing what it throws.
/// Pipeline stages keep memo tables in thread_local storage (ShapeSolver);
/// driving every map from a fresh thread makes each one pay what a fresh
/// `palmed_cli map` process pays, instead of replaying an earlier map.
template <typename F> void onFreshThread(F &&Fn) {
  std::exception_ptr Err;
  std::thread Th([&] {
    try {
      Fn();
    } catch (...) {
      Err = std::current_exception();
    }
  });
  Th.join();
  if (Err)
    std::rethrow_exception(Err);
}

/// Infers \p M's mapping through a Pipeline on \p Rg at MapThreads, driven
/// from a fresh thread, recording its time, benchmark count and digest.
/// Stage throws propagate.
PalmedResult inferMapping(Run &X, const MachineModel &M, Rig &Rg,
                          bool PrunePairs, int Parent) {
  PalmedConfig Cfg;
  Cfg.Execution = ExecutionPolicy{MapThreads};
  Cfg.Selection.ClusterPairPruning = PrunePairs;
  Pipeline P(*Rg.Runner, Cfg);
  int Span = X.T.begin("map", Parent);
  std::unique_ptr<StageObserver> Obs;
  if (X.traced()) {
    Obs = std::make_unique<StageObserver>(X.T, Span, Rg.Timed.get(),
                                          Rg.Counting);
    P.setObserver(Obs.get());
  }
  uint64_t OracleCalls0 = Rg.Timed ? Rg.Timed->Counters.Calls.load() : 0;
  uint64_t OracleNs0 = Rg.Timed ? Rg.Timed->Counters.BusyNs.load() : 0;
  uint64_t RunnerCalls0 = Rg.Counting ? Rg.Counting->Calls.load() : 0;
  double T0 = nowSeconds();
  onFreshThread([&] { P.run(); });
  X.MapS.push_back(since(T0));
  X.T.end(Span);
  PalmedResult Res = P.takeResult();
  X.MapBenchmarks = static_cast<double>(Res.Stats.NumBenchmarks);
  X.R.Digests.push_back(fnv1aHex(Res.Mapping.toText(M.isa())));
  if (X.traced()) {
    X.T.count(Span, "oracle_calls",
              static_cast<double>(Rg.Timed->Counters.Calls.load() -
                                  OracleCalls0));
    X.T.count(Span, "oracle_s",
              static_cast<double>(Rg.Timed->Counters.BusyNs.load() -
                                  OracleNs0) *
                  1e-9);
    X.T.count(Span, "runner_calls",
              static_cast<double>(Rg.Counting->Calls.load() - RunnerCalls0));
    if (!X.R.PerLayer.count("stage1.select_s"))
      recordMapLayers(X, Res.Stats, Span);
  }
  return Res;
}

/// Maps \p M once on a fresh rig (so every map measures from an empty
/// measurement cache), counted as an attempt; nullopt when a stage threw.
std::optional<PalmedResult> mapOnce(Run &X, const MachineModel &M,
                                    bool PrunePairs) {
  try {
    Rig Rg(M, X.traced());
    PalmedResult Res = inferMapping(X, M, Rg, PrunePairs, X.Root);
    X.R.attempt(true);
    releaseFreeMemory();
    return Res;
  } catch (const std::exception &E) {
    std::fprintf(stderr, "perfbench: map failed: %s\n", E.what());
    X.R.attempt(false);
    return std::nullopt;
  }
}

/// The workload's first map: later steps need its mapping.
PalmedResult firstMap(Run &X, const MachineModel &M, bool PrunePairs) {
  std::optional<PalmedResult> Res = mapOnce(X, M, PrunePairs);
  if (!Res)
    throw std::runtime_error("the first mapping could not be inferred");
  return std::move(*Res);
}

// --- Evaluation ------------------------------------------------------------

std::vector<BasicBlock> generateBlocks(Run &X, const MachineModel &M,
                                       WorkloadProfile Profile, size_t N,
                                       uint64_t Seed) {
  int Span = X.T.begin("eval.workload_gen", X.Root);
  double T0 = nowSeconds();
  WorkloadConfig Cfg;
  Cfg.Profile = Profile;
  Cfg.NumBlocks = N;
  Cfg.Seed = Seed;
  std::vector<BasicBlock> Blocks = generateWorkload(M, Cfg);
  if (X.traced())
    X.addLayer("eval.workload_gen_s", since(T0), "s");
  X.T.end(Span);
  return Blocks;
}

/// distinctKernels inside an "eval.workload_gen" span.
std::vector<std::string> generateKernelTexts(Run &X, const MachineModel &M,
                                             uint64_t Seed, size_t Count,
                                             size_t BlocksPerSuite) {
  int Span = X.T.begin("eval.workload_gen", X.Root);
  double T0 = nowSeconds();
  std::vector<std::string> Texts =
      distinctKernels(M, Seed, Count, BlocksPerSuite);
  if (X.traced())
    X.addLayer("eval.workload_gen_s", since(T0), "s");
  X.T.end(Span);
  return Texts;
}

/// Runs \p Session over \p Blocks inside an "eval.session" span.
EvalOutcome runSession(Run &X, const EvalSession &Session,
                       const std::vector<BasicBlock> &Blocks) {
  int Span = X.T.begin("eval.session", X.Root);
  double T0 = nowSeconds();
  EvalOutcome Out = Session.run(Blocks);
  if (X.traced())
    X.addLayer("eval.session_s", since(T0), "s");
  X.T.end(Span);
  return Out;
}

/// Scores \p Mapping on \p Blocks against the analytic oracle through an
/// EvalSession (weighted RMS error and Kendall tau, as in Fig. 4).
ToolAccuracy scorePalmed(Run &X, const MachineModel &M,
                         const ResourceMapping &Mapping,
                         const std::vector<BasicBlock> &Blocks) {
  AnalyticOracle Native(M);
  TimingOracle TimedNative(Native);
  ThroughputOracle &Oracle =
      X.traced() ? static_cast<ThroughputOracle &>(TimedNative) : Native;
  EvalSession Session(Oracle, ExecutionPolicy{SessionThreads});
  auto Counters = std::make_shared<CallCounters>();
  std::unique_ptr<Predictor> P =
      std::make_unique<MappingPredictor>("palmed", Mapping);
  if (X.traced())
    P = std::make_unique<TimingPredictor>(std::move(P), Counters);
  Session.add(std::move(P));
  EvalOutcome Out = runSession(X, Session, Blocks);
  if (X.traced()) {
    X.addLayer("eval.native_s", TimedNative.Counters.busySeconds(), "s");
    X.addLayer("eval.palmed.predict_s", Counters->busySeconds(), "s");
  }
  ToolAccuracy A = Out.accuracy("palmed");
  X.R.attempt(std::isfinite(A.ErrPct) && A.NumCovered > 0);
  return A;
}

// --- Corpus prediction -----------------------------------------------------

/// The scalar ResourceMapping::predictIpc answer for every kernel text:
/// the reference every batch or served answer must equal bit for bit.
std::vector<std::optional<double>>
scalarReference(const MachineModel &M, const ResourceMapping &Mapping,
                const std::vector<std::string> &Texts) {
  std::vector<std::optional<double>> Ref;
  Ref.reserve(Texts.size());
  for (const std::string &Text : Texts) {
    auto K = Microkernel::parse(Text, M.isa());
    if (!K)
      throw std::runtime_error("generated kernel does not parse: " + Text);
    Ref.push_back(Mapping.predictIpc(*K));
  }
  return Ref;
}

/// Corpus prediction on one worker over a fixed set of kernel texts: each
/// pass parses every text, builds one KernelBatch, and runs one
/// predictIpcBatch pass. Passes run one per cold-corpus round; each
/// is one attempt, failed unless every answer is bit-equal to the scalar
/// reference. report() records the medians over all passes.
class CorpusBench {
public:
  CorpusBench(Run &X, const MachineModel &M, const ResourceMapping &Mapping,
              std::vector<std::string> Texts)
      : X(X), M(M), CM(predict::CompiledMapping::compile(Mapping)),
        Texts(std::move(Texts)),
        Ref(scalarReference(M, Mapping, this->Texts)), Out(this->Texts.size()) {}

  const std::vector<std::string> &texts() const { return Texts; }
  const std::vector<std::optional<double>> &reference() const { return Ref; }

  void passes(int Count) {
    int Span = X.T.begin("predict.corpus", X.Root);
    size_t N = Texts.size();
    double PerKernelNs = 1e9 / static_cast<double>(N);
    for (int Pass = 0; Pass < Count; ++Pass) {
      double T0 = nowSeconds();
      std::vector<Microkernel> Kernels;
      Kernels.reserve(N);
      bool ParsedAll = true;
      for (const std::string &Text : Texts) {
        auto K = Microkernel::parse(Text, M.isa());
        if (!K) {
          ParsedAll = false;
          break;
        }
        Kernels.push_back(std::move(*K));
      }
      double T1 = nowSeconds();
      predict::KernelBatch Batch;
      Batch.reserve(N, N * 8);
      for (const Microkernel &K : Kernels)
        Batch.add(K);
      double T2 = nowSeconds();
      std::fill(Out.begin(), Out.end(), std::nullopt);
      if (ParsedAll)
        predict::predictIpcBatch(CM, Batch, Out.data());
      double T3 = nowSeconds();
      bool Ok = ParsedAll;
      for (size_t I = 0; Ok && I < N; ++I)
        Ok = bitEqual(Out[I], Ref[I]);
      X.R.attempt(Ok);
      if (Rate.empty())
        for (const auto &Ipc : Out)
          if (Ipc && *Ipc > M.decodeWidth())
            Holes += 1.0;
      Rate.push_back(static_cast<double>(N) / (T3 - T0));
      ParseNs.push_back((T1 - T0) * PerKernelNs);
      BuildNs.push_back((T2 - T1) * PerKernelNs);
      PassNs.push_back((T3 - T2) * PerKernelNs);
    }
    X.T.count(Span, "passes", Count);
    X.T.count(Span, "kernels", static_cast<double>(Count) * N);
    X.T.end(Span);
  }

  void report() {
    X.CorpusRate = median(Rate);
    X.layer("predict.parse_ns_per_kernel", median(ParseNs), "ns");
    X.layer("predict.batch_build_ns_per_kernel", median(BuildNs), "ns");
    X.layer("predict.pass_ns_per_kernel", median(PassNs), "ns");
    X.layer("predict.holes", Holes, "count");
  }

private:
  Run &X;
  const MachineModel &M;
  predict::CompiledMapping CM;
  std::vector<std::string> Texts;
  std::vector<std::optional<double>> Ref;
  std::vector<std::optional<double>> Out;
  std::vector<double> Rate, ParseNs, BuildNs, PassNs;
  double Holes = 0.0;
};

// --- Serving ---------------------------------------------------------------

/// An in-process daemon on a real AF_UNIX socket serving the run's machine,
/// set up the way palmed_serve is: build the machine, load the binary
/// mapping file, register (which compiles the mapping), bind.
class Daemon {
public:
  Daemon(const Run &X, const std::string &SocketPath) {
    MachineModel M = X.MakeMachine();
    serve::MappingIOError Err;
    auto Mapping = serve::loadMapping(X.MappingFile, M, &Err);
    if (!Mapping)
      throw std::runtime_error("loadMapping: " + Err.Message);
    serve::ServerConfig Cfg;
    Cfg.SocketPath = SocketPath;
    Cfg.NumThreads = DaemonThreads;
    S = std::make_unique<serve::Server>(Cfg);
    S->addMachine(X.MachineName, std::move(M), std::move(*Mapping));
    S->bind();
  }
  ~Daemon() {
    S->requestStop();
    if (Thread.joinable())
      Thread.join();
  }
  Daemon(const Daemon &) = delete;
  Daemon &operator=(const Daemon &) = delete;

  void start() {
    Thread = std::thread([this] {
      try {
        S->serve();
      } catch (const std::exception &E) {
        std::fprintf(stderr, "perfbench: serve loop failed: %s\n", E.what());
      }
    });
  }
  serve::Server &server() { return *S; }

private:
  std::unique_ptr<serve::Server> S;
  std::thread Thread;
};

/// Kernel indices of a client's next request; false when it has no more.
using RequestSource =
    std::function<bool(size_t Client, std::vector<uint32_t> &Indices)>;

/// True when every answer matches the scalar reference bit for bit
/// (an Unsupported answer matches an empty reference).
bool answersMatch(const serve::QueryResponse &Resp,
                  const std::vector<uint32_t> &Indices,
                  const std::vector<std::optional<double>> &Ref) {
  if (Resp.Answers.size() != Indices.size())
    return false;
  for (size_t I = 0; I < Indices.size(); ++I) {
    const serve::KernelAnswer &A = Resp.Answers[I];
    std::optional<double> Got;
    if (A.S == serve::KernelAnswer::Status::Ok)
      Got = A.Ipc;
    else if (A.S != serve::KernelAnswer::Status::Unsupported)
      return false;
    if (!bitEqual(Got, Ref[Indices[I]]))
      return false;
  }
  return true;
}

/// NumClients closed-loop clients, one connection each, until \p Deadline
/// or until \p Next runs dry; latencies append to X.Latency. Every request
/// is an attempt; a transport error or a wrong answer fails it.
Traffic runClients(Run &X, const std::string &SocketPath,
                   const std::vector<std::string> &Texts,
                   const std::vector<std::optional<double>> &Ref,
                   const RequestSource &Next, double Deadline) {
  std::vector<Traffic> Per(NumClients);
  std::vector<uint64_t> Failed(NumClients, 0);
  X.Latency.resize(NumClients);
  int Span = X.T.begin("serve.traffic", X.Root);
  double T0 = nowSeconds();
  std::vector<std::thread> Threads;
  for (size_t C = 0; C < NumClients; ++C)
    Threads.emplace_back([&, C] {
      Traffic &Me = Per[C];
      std::vector<float> &Lat = X.Latency[C];
      serve::Client Cl;
      if (!Cl.connect(SocketPath)) {
        std::fprintf(stderr, "perfbench: connect: %s\n",
                     Cl.lastError().c_str());
        ++Me.Requests;
        ++Failed[C];
        return;
      }
      std::vector<uint32_t> Indices;
      std::vector<std::string> Batch;
      while (nowSeconds() < Deadline && Next(C, Indices)) {
        Batch.clear();
        for (uint32_t I : Indices)
          Batch.push_back(Texts[I]);
        double Q0 = nowSeconds();
        auto Resp = Cl.query(X.MachineName, Batch);
        double Q = since(Q0);
        Lat.push_back(static_cast<float>(Q));
        Me.LatencySumS += Q;
        ++Me.Requests;
        Me.Kernels += Batch.size();
        if (!Resp || !answersMatch(*Resp, Indices, Ref)) {
          if (!Resp)
            std::fprintf(stderr, "perfbench: query: %s\n",
                         Cl.lastError().c_str());
          ++Failed[C];
          if (!Resp)
            return; // The connection is unusable.
        }
      }
    });
  for (std::thread &Th : Threads)
    Th.join();
  Traffic Tr;
  for (size_t C = 0; C < NumClients; ++C) {
    Tr.add(Per[C]);
    X.R.Attempted += Per[C].Requests;
    X.R.Failed += Failed[C];
  }
  Tr.WallS = since(T0);
  X.Served.add(Tr);
  X.T.count(Span, "requests", static_cast<double>(Tr.Requests));
  X.T.count(Span, "kernels", static_cast<double>(Tr.Kernels));
  X.T.count(Span, "latency_sum_s", Tr.LatencySumS);
  X.T.end(Span);
  return Tr;
}

/// A daemon on the run's socket, its construction timed as a set-up
/// sample.
std::unique_ptr<Daemon> setUpDaemon(Run &X) {
  return timedSetup(X,
                    [&] { return std::make_unique<Daemon>(X, X.SocketPath); });
}

/// A set-up slice of daemons on a second socket path, so it can run while
/// the measured daemon is serving. Every workload's set-up sample is this
/// daemon set-up on its own machine and mapping file.
void daemonSetupSlice(Run &X) {
  setupSlice(X, [&] {
    return std::make_unique<Daemon>(X, X.SocketPath + ".setup");
  });
}

/// Writes the mapping file the daemons load (the palmed_cli map --save
/// step).
void saveMappingFile(Run &X, const MachineModel &M,
                     const ResourceMapping &Mapping) {
  serve::MappingIOError Err;
  if (!serve::saveMapping(X.MappingFile, Mapping, M, &Err))
    throw std::runtime_error("saveMapping: " + Err.Message);
}

void recordTrafficNamed(Run &X) {
  const Traffic &Tr = X.Served;
  TimingSummary L = summarize(X.OpS);
  X.named("serve_qps", static_cast<double>(Tr.Requests) / Tr.WallS, "1/s");
  X.named("serve_kernels_per_s", static_cast<double>(Tr.Kernels) / Tr.WallS,
          "1/s");
  X.named("serve_p50_us", L.Median * 1e6, "us");
  X.named("serve_p" + std::to_string(static_cast<int>(L.Percentile)) + "_us",
          L.Tail * 1e6, "us");
  X.named("serve_samples", static_cast<double>(L.Count), "count");
}

/// Mean client round trip so far, seconds.
double meanLatency(const Run &X) {
  return X.Served.Requests ? X.Served.LatencySumS /
                                 static_cast<double>(X.Served.Requests)
                           : 0.0;
}

/// Replays \p Warm untimed and then \p Timed in-process through
/// Server::evaluateWire on a fresh server (no socket); returns the mean
/// seconds per timed request.
double replayInProcess(Run &X, const MachineModel &M,
                       const ResourceMapping &Mapping,
                       const std::vector<std::string> &Texts,
                       const std::vector<std::vector<uint32_t>> &Warm,
                       const std::vector<std::vector<uint32_t>> &Timed) {
  serve::ServerConfig Cfg;
  Cfg.NumThreads = DaemonThreads;
  serve::Server S(Cfg);
  S.addMachine(X.MachineName, M, Mapping);
  std::vector<double> Times;
  for (const auto *Requests : {&Warm, &Timed})
    for (const auto &Indices : *Requests) {
      serve::QueryRequest Q;
      Q.Machine = X.MachineName;
      for (uint32_t I : Indices)
        Q.Kernels.push_back(Texts[I]);
      uint64_t Hits = 0, Misses = 0;
      std::string Err;
      double T0 = nowSeconds();
      auto Payload = S.evaluateWire(Q, &Hits, &Misses, &Err);
      if (Requests == &Timed)
        Times.push_back(since(T0));
      X.R.attempt(Payload.has_value());
    }
  return mean(Times);
}

// --- Layer probes (traced serve workloads only) ----------------------------

/// In-process probes of the predict, serve and MappingIO layers on the
/// workload's own mapping and kernels: compile time, mapping load time,
/// evaluateWire per kernel on an all-miss then all-hit batch against a
/// fresh server, and client-side request encode / response decode.
void probeLayers(Run &X, const MachineModel &M,
                 const ResourceMapping &Mapping,
                 const std::vector<std::string> &Texts,
                 const std::vector<std::optional<double>> &Ref) {
  int Span = X.T.begin("probe", X.Root);
  std::vector<double> Compile, Load, Miss, Hit, Encode, Decode;
  std::string ProbeFile = X.MappingFile + ".probe";
  serve::MappingIOError Err;
  X.R.attempt(serve::saveMapping(ProbeFile, Mapping, M, &Err));
  std::string Text = Mapping.toText(M.isa());
  size_t N = std::min(Texts.size(), ProbeKernels);
  serve::QueryRequest Q;
  Q.Machine = X.MachineName;
  Q.Kernels.assign(Texts.begin(), Texts.begin() + static_cast<long>(N));
  std::vector<uint32_t> Indices(N);
  for (size_t I = 0; I < N; ++I)
    Indices[I] = static_cast<uint32_t>(I);
  double PerKernel = 1.0 / static_cast<double>(N);
  for (int Rep = 0; Rep < ProbeRepeats; ++Rep) {
    double T0 = nowSeconds();
    predict::CompiledMapping CM = predict::CompiledMapping::compile(Mapping);
    Compile.push_back(since(T0));

    T0 = nowSeconds();
    auto Loaded = serve::loadMapping(ProbeFile, M, &Err);
    Load.push_back(since(T0));
    X.R.attempt(Loaded && Loaded->toText(M.isa()) == Text);

    serve::ServerConfig Cfg;
    Cfg.NumThreads = DaemonThreads;
    serve::Server S(Cfg);
    S.addMachine(X.MachineName, M, Mapping);
    uint64_t Hits = 0, Misses = 0;
    std::string Error;
    T0 = nowSeconds();
    auto Cold = S.evaluateWire(Q, &Hits, &Misses, &Error);
    Miss.push_back(since(T0) * PerKernel);
    T0 = nowSeconds();
    auto Warm = S.evaluateWire(Q, &Hits, &Misses, &Error);
    Hit.push_back(since(T0) * PerKernel);

    T0 = nowSeconds();
    std::string Request = serve::encodeQueryRequest(Q);
    Encode.push_back(since(T0) * PerKernel);
    std::optional<serve::QueryResponse> Resp;
    if (Warm) {
      T0 = nowSeconds();
      Resp = serve::decodeQueryResponse(*Warm);
      Decode.push_back(since(T0) * PerKernel);
    }
    X.R.attempt(Cold && Warm && *Cold == *Warm && !Request.empty() && Resp &&
                answersMatch(*Resp, Indices, Ref));
  }
  ::unlink(ProbeFile.c_str());
  X.T.end(Span);
  X.layer("predict.compile_us", median(Compile) * 1e6, "us");
  X.layer("mappingio.load_ms", median(Load) * 1e3, "ms");
  X.layer("serve.miss_us_per_kernel", median(Miss) * 1e6, "us");
  X.layer("serve.hit_us_per_kernel", median(Hit) * 1e6, "us");
  X.layer("serve.client_encode_ns_per_kernel", median(Encode) * 1e9, "ns");
  X.layer("serve.client_decode_ns_per_kernel", median(Decode) * 1e9, "ns");
}

/// The held-out scoring set: HeldOutPerProfile SPEC-like plus as many
/// Polybench-like blocks on \p M, from the seed, generated
/// CorpusBlocksPerCall at a time, with unit weights (the suites' Zipf
/// block weights would let a handful of blocks decide the error, and so
/// the seed).
std::vector<BasicBlock> heldOutBlocks(Run &X, const MachineModel &M) {
  std::vector<BasicBlock> Blocks;
  Rng Seeds(X.Seeds.HeldOut);
  while (Blocks.size() < 2 * HeldOutPerProfile) {
    WorkloadProfile Profile = Blocks.size() < HeldOutPerProfile
                                  ? WorkloadProfile::SpecLike
                                  : WorkloadProfile::PolybenchLike;
    for (BasicBlock &B : generateBlocks(X, M, Profile, CorpusBlocksPerCall,
                                        Seeds.next())) {
      B.Weight = 1.0;
      Blocks.push_back(std::move(B));
    }
  }
  return Blocks;
}

/// Pins the calling thread, and so every thread it starts afterwards, to the
/// first ServeCpus CPUs it may run on. Serve traffic is two closed-loop
/// client/handler pairs, so at most two threads are busy; spread over four
/// vCPUs, most request hand-offs wake a thread on an idle vCPU, which costs
/// a trip through the hypervisor that grows with the host's load (serve-zipf's
/// median round trip was ~29 us unpinned and ~19 us on two CPUs). Call it
/// before the workload starts any thread.
void pinToServeCpus(Run &X) {
  cpu_set_t Allowed, Pinned;
  CPU_ZERO(&Pinned);
  unsigned Taken = 0;
  if (::sched_getaffinity(0, sizeof(Allowed), &Allowed) == 0)
    for (int C = 0; C < CPU_SETSIZE && Taken < ServeCpus; ++C)
      if (CPU_ISSET(C, &Allowed)) {
        CPU_SET(C, &Pinned);
        ++Taken;
      }
  if (Taken < ServeCpus || ::sched_setaffinity(0, sizeof(Pinned), &Pinned))
    throw std::runtime_error("cannot pin the workload to " +
                             std::to_string(ServeCpus) + " CPUs");
  X.PinnedCpus = ServeCpus;
}

/// Work counts scale with --seconds, so a run does the same work however
/// fast the host is at the moment (and its memory high-water mark does not
/// depend on how many repetitions fit in a time budget).
int scaled(const Run &X, double PerSecond, int AtLeast) {
  return std::max(AtLeast,
                  static_cast<int>(std::lround(PerSecond * X.O.Seconds)));
}

// --- Workloads -------------------------------------------------------------
//
// The host's speed drifts over seconds, so workloads interleave their
// set-up slices with their main phase: the set-up samples then span the
// whole run instead of one drift phase, and the reported median is
// steadier. Set-up needs the mapping file, so it starts after the first map.

/// map-huge: the LP-bound workload. Infers the huge profile's mapping
/// (pruned selection, 2 threads), each time from a fresh rig and thread.
void runMapHuge(Run &X) {
  X.MakeMachine = [] { return makeStressMachine(hugeStressConfig()); };
  X.MachineName = "huge";
  MachineModel M = X.MakeMachine();
  int Maps = scaled(X, HugeMapsPerSecond, 1);
  std::optional<PalmedResult> First;
  for (int I = 0; I < Maps; ++I) {
    std::optional<PalmedResult> Res = mapOnce(X, M, /*PrunePairs=*/true);
    if (!First) {
      if (!Res)
        throw std::runtime_error("the first mapping could not be inferred");
      First = std::move(Res);
      saveMappingFile(X, M, First->Mapping);
    }
    daemonSetupSlice(X);
  }
  X.OpS = X.MapS;
  X.Palmed = scorePalmed(X, M, First->Mapping, heldOutBlocks(X, M));
}

/// campaign-skl: the Fig. 4 campaign for SKL — map, build the five tools
/// through the registry, evaluate both 600-block suites in an EvalSession.
/// Calls \p AfterMap with the campaign's mapping once it is inferred, and
/// does not count that call's time. Appends the campaign's time to \p Times
/// unless a stage threw.
void campaignOnce(Run &X, const MachineModel &M, std::vector<double> &Times,
                  const std::function<void(const ResourceMapping &)> &AfterMap) {
  const std::vector<std::string> Tools = {"palmed", "uops.info", "iaca",
                                          "pmevo", "llvm-mca"};
  double T0 = nowSeconds();
  int Span = X.T.begin("campaign", X.Root);
  try {
    Rig Rg(M, X.traced());
    PalmedResult PR = inferMapping(X, M, Rg, /*PrunePairs=*/false, Span);
    double Paused = nowSeconds();
    AfterMap(PR.Mapping);
    T0 += since(Paused);
    PredictorContext Ctx;
    Ctx.Machine = &M;
    Ctx.Runner = Rg.Runner.get();
    Ctx.PalmedMapping = &PR.Mapping;
    std::vector<std::unique_ptr<Predictor>> Predictors;
    std::vector<std::shared_ptr<CallCounters>> Counters;
    for (const std::string &Tool : Tools) {
      int ToolSpan = X.T.begin("baselines.build." + Tool, Span);
      uint64_t Calls0 = Rg.Counting ? Rg.Counting->Calls.load() : 0;
      double B0 = nowSeconds();
      std::string Error;
      auto P = PredictorRegistry::builtin().create(Tool, Ctx, &Error);
      double BuildS = since(B0);
      X.T.end(ToolSpan);
      if (!P)
        throw std::runtime_error("cannot build '" + Tool + "': " + Error);
      if (X.traced()) {
        if (Tool == "pmevo") {
          X.addLayer("baselines.pmevo_train_s", BuildS, "s");
          X.addLayer("baselines.pmevo_oracle_calls",
                     static_cast<double>(Rg.Counting->Calls.load() - Calls0),
                     "count");
        } else {
          X.addLayer("baselines.build_s", BuildS, "s");
        }
        Counters.push_back(std::make_shared<CallCounters>());
        P = std::make_unique<TimingPredictor>(std::move(P), Counters.back());
      }
      Predictors.push_back(std::move(P));
    }
    TimingOracle TimedNative(Rg.Oracle);
    ThroughputOracle &Native =
        X.traced() ? static_cast<ThroughputOracle &>(TimedNative) : Rg.Oracle;
    EvalSession Session(Native, ExecutionPolicy{SessionThreads});
    Session.setReferenceTool("palmed");
    for (const auto &P : Predictors)
      Session.add(*P);
    std::vector<BasicBlock> Spec = generateBlocks(
        X, M, WorkloadProfile::SpecLike, SuiteBlocks, X.Seeds.SpecSuite);
    std::vector<BasicBlock> Poly = generateBlocks(
        X, M, WorkloadProfile::PolybenchLike, SuiteBlocks, X.Seeds.PolySuite);
    EvalOutcome SpecOut = runSession(X, Session, Spec);
    EvalOutcome PolyOut = runSession(X, Session, Poly);
    Times.push_back(since(T0));
    X.R.attempt(SpecOut.NativeIpc.size() == Spec.size() &&
                PolyOut.NativeIpc.size() == Poly.size());
    if (X.traced()) {
      X.addLayer("eval.native_s", TimedNative.Counters.busySeconds(), "s");
      for (size_t I = 0; I < Tools.size(); ++I)
        X.addLayer(Tools[I] == "palmed"
                       ? std::string("eval.palmed.predict_s")
                       : "baselines." + Tools[I] + ".predict_s",
                   Counters[I]->busySeconds(), "s");
    }
    // The Fig. 4 numbers: the SPEC-like suite, with its block weights.
    ToolAccuracy Palmed = SpecOut.accuracy("palmed");
    X.named("campaign_palmed_err_pct", Palmed.ErrPct, "%");
    X.named("campaign_palmed_kendall_tau", Palmed.KendallTau, "1");
    X.named("pmevo_err_pct", SpecOut.accuracy("pmevo").ErrPct, "%");
  } catch (const std::exception &E) {
    std::fprintf(stderr, "perfbench: campaign failed: %s\n", E.what());
    X.R.attempt(false);
  }
  X.T.end(Span);
  releaseFreeMemory();
}

void runCampaign(Run &X) {
  X.MakeMachine = [] { return makeSklLike(); };
  X.MachineName = "skl";
  MachineModel M = X.MakeMachine();
  int Campaigns = scaled(X, CampaignsPerSecond, 1);
  std::optional<ResourceMapping> First;
  std::vector<double> Times;
  for (int I = 0; I < Campaigns; ++I) {
    // A set-up slice right after the map as well as after the campaign, so
    // the set-up samples come from both ends of PMEvo's ~30 s training.
    campaignOnce(X, M, Times, [&](const ResourceMapping &Mapping) {
      if (!First) {
        First = Mapping;
        saveMappingFile(X, M, *First);
      }
      daemonSetupSlice(X);
    });
    if (First)
      daemonSetupSlice(X);
  }
  if (Times.empty())
    throw std::runtime_error("no campaign completed");
  X.OpS = Times;
  X.named("campaign_s", median(Times), "s");
  X.Palmed = scorePalmed(X, M, *First, heldOutBlocks(X, M));
  daemonSetupSlice(X);
}

/// serve-zipf: a daemon answering small Zipf-drawn batches from two
/// closed-loop connections for --seconds, in ServeWindows windows; after
/// first touches, nearly every kernel hits the prediction cache.
void runServeZipf(Run &X) {
  pinToServeCpus(X);
  X.MakeMachine = [] { return makeSklLike(); };
  X.MachineName = "skl";
  MachineModel M = X.MakeMachine();
  PalmedResult PR = firstMap(X, M, /*PrunePairs=*/false);
  saveMappingFile(X, M, PR.Mapping);
  std::vector<std::string> Pool = generateKernelTexts(
      X, M, X.Seeds.ZipfPool, ZipfPoolSize, CorpusBlocksPerCall);
  auto PoolRef = scalarReference(M, PR.Mapping, Pool);
  ZipfSampler Zipf(Pool.size(), ZipfExponent);

  // Each call makes the same per-client request streams.
  auto MakeSource = [&] {
    Rng Streams = X.Seeds.Clients;
    auto Rngs = std::make_shared<std::vector<Rng>>();
    for (size_t C = 0; C < NumClients; ++C)
      Rngs->push_back(Streams.fork());
    return RequestSource([Rngs, &Zipf](size_t C,
                                       std::vector<uint32_t> &Indices) {
      Rng &R = (*Rngs)[C];
      Indices.resize(static_cast<size_t>(
          R.uniformIntIn(1, static_cast<int64_t>(ZipfMaxBatch))));
      for (uint32_t &I : Indices)
        I = static_cast<uint32_t>(Zipf.sample(R));
      return true;
    });
  };

  std::unique_ptr<Daemon> D = setUpDaemon(X);
  D->start();
  RequestSource Source = MakeSource();
  X.Latency.resize(NumClients);
  for (auto &L : X.Latency)
    L.reserve(static_cast<size_t>(ZipfRequestsPerClientSecond * X.O.Seconds));
  double RssBefore = procStatusMiB("VmRSS");
  for (int W = 0; W < ServeWindows; ++W) {
    daemonSetupSlice(X);
    runClients(X, X.SocketPath, Pool, PoolRef, Source,
               nowSeconds() + X.O.Seconds / ServeWindows);
    releaseFreeMemory();
  }
  X.RssGrowthMiB = procStatusMiB("VmRSS") - RssBefore;
  serve::ServerTotals Totals = D->server().totals();
  D.reset();
  if (X.traced()) {
    uint64_t Lookups = Totals.CacheHits + Totals.CacheMisses;
    X.layer("serve.cache_hit_rate",
            Lookups ? static_cast<double>(Totals.CacheHits) /
                          static_cast<double>(Lookups)
                    : 0.0,
            "ratio");
    // Client 0's stream replayed in-process: the opening stretch warms the
    // cache untimed, the stretch after it is timed.
    RequestSource Replay = MakeSource();
    std::vector<std::vector<uint32_t>> Warm(ReplayWarmRequests);
    std::vector<std::vector<uint32_t>> Timed(ReplayRequests);
    for (auto *Requests : {&Warm, &Timed})
      for (auto &Req : *Requests)
        Replay(0, Req);
    double InProc = replayInProcess(X, M, PR.Mapping, Pool, Warm, Timed);
    X.layer("serve.inproc_us_per_request", InProc * 1e6, "us");
    X.layer("serve.transport_us_per_request",
            (meanLatency(X) - InProc) * 1e6, "us");
    probeLayers(X, M, PR.Mapping, Pool, PoolRef);
  }
  X.Palmed = scorePalmed(X, M, PR.Mapping, heldOutBlocks(X, M));
}

/// cold-corpus: ~200k distinct kernels, never repeated. Each round runs
/// (a) one corpus-prediction pass on one worker and (b) one pass of the
/// corpus through a fresh daemon in 256-kernel batches from two
/// closed-loop clients, so every kernel misses the cache.
void runColdCorpus(Run &X) {
  pinToServeCpus(X);
  X.MakeMachine = [] { return makeSklLike(); };
  X.MachineName = "skl";
  MachineModel M = X.MakeMachine();
  PalmedResult PR = firstMap(X, M, /*PrunePairs=*/false);
  saveMappingFile(X, M, PR.Mapping);
  CorpusBench CB(X, M, PR.Mapping,
                 generateKernelTexts(X, M, X.Seeds.Corpus, ColdCorpusSize,
                                     CorpusBlocksPerCall));
  const std::vector<std::string> &Corpus = CB.texts();
  size_t NumBatches = (Corpus.size() + ColdBatch - 1) / ColdBatch;
  auto MakeSource = [&] {
    auto NextBatch = std::make_shared<std::vector<size_t>>(NumClients);
    for (size_t C = 0; C < NumClients; ++C)
      (*NextBatch)[C] = C;
    return RequestSource([NextBatch, NumBatches, &Corpus](
                             size_t C, std::vector<uint32_t> &Indices) {
      size_t B = (*NextBatch)[C];
      if (B >= NumBatches)
        return false;
      (*NextBatch)[C] += NumClients;
      size_t Lo = B * ColdBatch;
      size_t Hi = std::min(Corpus.size(), Lo + ColdBatch);
      Indices.resize(Hi - Lo);
      for (size_t I = Lo; I < Hi; ++I)
        Indices[I - Lo] = static_cast<uint32_t>(I);
      return true;
    });
  };

  double HitRate = 0.0;
  int Rounds = scaled(X, ColdRoundsPerSecond, 1);
  X.Latency.resize(NumClients);
  for (auto &L : X.Latency)
    L.reserve(static_cast<size_t>(Rounds) *
              ((NumBatches + NumClients - 1) / NumClients));
  for (int R = 0; R < Rounds; ++R) {
    CB.passes(1);
    daemonSetupSlice(X);
    std::unique_ptr<Daemon> D = setUpDaemon(X);
    D->start();
    double RssBefore = procStatusMiB("VmRSS");
    runClients(X, X.SocketPath, Corpus, CB.reference(), MakeSource(),
               std::numeric_limits<double>::infinity());
    if (R == 0) {
      X.RssGrowthMiB = procStatusMiB("VmRSS") - RssBefore;
      serve::ServerTotals Totals = D->server().totals();
      uint64_t Lookups = Totals.CacheHits + Totals.CacheMisses;
      HitRate = Lookups ? static_cast<double>(Totals.CacheHits) /
                              static_cast<double>(Lookups)
                        : 0.0;
    }
    D.reset();
    releaseFreeMemory();
  }
  CB.report();
  // serve.inproc/transport_us_per_request stay 0 here: the transport share
  // of a 256-kernel all-miss request is within the run-to-run noise of its
  // ~2 ms in-process time, so the difference measured negative.
  if (X.traced()) {
    X.layer("serve.cache_hit_rate", HitRate, "ratio");
    probeLayers(X, M, PR.Mapping, Corpus, CB.reference());
  }
  X.Palmed = scorePalmed(X, M, PR.Mapping, heldOutBlocks(X, M));
}

/// Every per-layer metric with its unit: a traced run reports all of them,
/// with 0 for a layer the workload does not exercise (baselines.* outside
/// campaign-skl; predict.*, serve.* and mappingio.* outside the serve
/// workloads).
const std::vector<std::pair<const char *, const char *>> &perLayerCatalog() {
  static const std::vector<std::pair<const char *, const char *>> Catalog = {
      {"stage1.select_s", "s"},
      {"stage1.pair_benchmarks", "count"},
      {"stage2.core_s", "s"},
      {"stage2.shape_rounds", "count"},
      {"stage2.round_max_s", "s"},
      {"stage2.core_kernels", "count"},
      {"stage2.lp2_components", "count"},
      {"stage3.complete_s", "s"},
      {"stage3.oracle_s", "s"},
      {"lp.core_solves", "count"},
      {"lp.core_pivots", "count"},
      {"lp.aux_solves", "count"},
      {"lp.aux_pivots", "count"},
      {"lp.warm_attempts", "count"},
      {"lp.warm_hit_rate", "ratio"},
      {"sim.runner_calls", "count"},
      {"sim.oracle_calls", "count"},
      {"sim.runner_hit_rate", "ratio"},
      {"sim.oracle_s", "s"},
      {"baselines.pmevo_train_s", "s"},
      {"baselines.pmevo_oracle_calls", "count"},
      {"baselines.build_s", "s"},
      {"baselines.uops.info.predict_s", "s"},
      {"baselines.iaca.predict_s", "s"},
      {"baselines.pmevo.predict_s", "s"},
      {"baselines.llvm-mca.predict_s", "s"},
      {"eval.workload_gen_s", "s"},
      {"eval.session_s", "s"},
      {"eval.native_s", "s"},
      {"eval.palmed.predict_s", "s"},
      {"predict.compile_us", "us"},
      {"predict.parse_ns_per_kernel", "ns"},
      {"predict.batch_build_ns_per_kernel", "ns"},
      {"predict.pass_ns_per_kernel", "ns"},
      {"predict.holes", "count"},
      {"serve.hit_us_per_kernel", "us"},
      {"serve.miss_us_per_kernel", "us"},
      {"serve.inproc_us_per_request", "us"},
      {"serve.transport_us_per_request", "us"},
      {"serve.client_encode_ns_per_kernel", "ns"},
      {"serve.client_decode_ns_per_kernel", "ns"},
      {"serve.cache_hit_rate", "ratio"},
      {"serve.rss_growth_mb", "MB"},
      {"mappingio.load_ms", "ms"},
  };
  return Catalog;
}

void finish(Run &X) {
  // Every mapping of one invocation must be the same mapping.
  bool DigestsAgree = std::all_of(
      X.R.Digests.begin(), X.R.Digests.end(),
      [&](const std::string &D) { return D == X.R.Digests.front(); });
  X.R.attempt(DigestsAgree);
  if (!DigestsAgree)
    std::fprintf(stderr, "perfbench: mapping digests disagree\n");

  // Read first: the statistics below copy the samples.
  double PeakRssMiB = procStatusMiB("VmHWM");
  for (const auto &L : X.Latency)
    X.OpS.insert(X.OpS.end(), L.begin(), L.end());
  if (X.Served.Requests)
    recordTrafficNamed(X);
  double TailPct = 100.0;
  double Tail = chunkedTail(X.OpS, TailChunk, TailPct);
  double OpMedian = median(X.OpS);
  X.R.MainWallS = OpMedian;
  auto E2E = [&](const char *Name, double Value, const char *Unit) {
    X.R.EndToEnd[Name] = Metric{Value, Unit};
  };
  E2E("setup_s", median(X.SetupS), "s");
  E2E("peak_rss_mb", PeakRssMiB, "MB");
  E2E("map_benchmarks", X.MapBenchmarks, "count");
  E2E("palmed_err_pct", X.Palmed.ErrPct, "%");
  E2E("palmed_kendall_tau", X.Palmed.KendallTau, "1");
  E2E("op_p50_ms", OpMedian * 1e3, "ms");

  X.named("setup_s", median(X.SetupS), "s");
  X.named("peak_rss_mb", PeakRssMiB, "MB");
  X.named("map_s", median(X.MapS), "s");
  X.named("map_benchmarks", X.MapBenchmarks, "count");
  X.named("palmed_err_pct", X.Palmed.ErrPct, "%");
  X.named("palmed_kendall_tau", X.Palmed.KendallTau, "1");
  // Printed, not gated: the p90 of a socket round trip follows the host's
  // CPU steal, not the program (see README.md, "op_tail_ms").
  X.named("op_tail_ms", Tail * 1e3, "ms");
  X.named("op_samples", static_cast<double>(X.OpS.size()), "count");
  X.named("op_tail_percentile", TailPct, "%");
  if (X.CorpusRate > 0.0)
    X.named("corpus_blocks_per_s", X.CorpusRate, "1/s");
  X.named("setup_samples", static_cast<double>(X.SetupS.size()), "count");
  X.named("threads.map", MapThreads, "count");
  X.named("threads.session", SessionThreads, "count");
  X.named("threads.daemon_executor", DaemonThreads, "count");
  X.named("connections.clients", static_cast<double>(NumClients), "count");
  X.named("cpus.pinned", X.PinnedCpus, "count");
  X.named("threads.corpus_workers", 1, "count");

  if (X.traced()) {
    X.layer("serve.rss_growth_mb", X.RssGrowthMiB, "MB");
    for (const auto &[Name, Unit] : perLayerCatalog())
      if (!X.R.PerLayer.count(Name))
        X.layer(Name, 0.0, Unit);
    X.T.end(X.Root);
    if (!X.O.TracePath.empty() && !X.T.writeChromeJson(X.O.TracePath))
      std::fprintf(stderr, "perfbench: cannot write %s\n",
                   X.O.TracePath.c_str());
  }
  ::unlink(X.MappingFile.c_str());
}

} // namespace

const std::vector<std::string> &workloadNames() {
  static const std::vector<std::string> Names = {
      "map-huge", "campaign-skl", "serve-zipf", "cold-corpus"};
  return Names;
}

RunResult runWorkload(const RunOptions &Options) {
  Run X(Options);
  if (Options.Workload == "map-huge")
    runMapHuge(X);
  else if (Options.Workload == "campaign-skl")
    runCampaign(X);
  else if (Options.Workload == "serve-zipf")
    runServeZipf(X);
  else if (Options.Workload == "cold-corpus")
    runColdCorpus(X);
  else
    throw std::invalid_argument("unknown workload '" + Options.Workload +
                                "'");
  finish(X);
  return std::move(X.R);
}

} // namespace perfbench
