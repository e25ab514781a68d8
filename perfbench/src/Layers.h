//===- perfbench/src/Layers.h - Decorators timing library layers -*- C++ -*-===//
//
// Part of the PALMED reproduction's benchmark (perfbench).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Layer costs are timed from outside the library, through decorators its
/// public interfaces already accept. The workloads install them only in
/// the traced run:
///
///   TimingOracle     a ThroughputOracle wrapper (the BenchmarkRunner
///                    backend, the EvalSession native oracle): sim calls
///                    and busy time summed over threads.
///   CountingRunner   a BenchmarkRunner subclass counting front-door
///                    measureIpc calls (hits + misses).
///   StageObserver    a PipelineObserver turning stage and shape-round
///                    events into spans, and LPAUX progress events into a
///                    counter on the stage-3 span.
///   TimingPredictor  a Predictor wrapper lent to EvalSession: busy time of
///                    predictIpc / predictIpcBatch, shared by its clones.
///
/// Each decorator forwards every query that changes how the library
/// schedules work (isThreadSafe, clone, name), so installing it does not
/// change what runs.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_LAYERS_H
#define PERFBENCH_LAYERS_H

#include "Trace.h"

#include "palmed/palmed.h"

#include <atomic>
#include <chrono>
#include <memory>
#include <string>

namespace perfbench {

/// Calls and busy nanoseconds, updated from any thread.
struct CallCounters {
  std::atomic<uint64_t> Calls{0};
  std::atomic<uint64_t> BusyNs{0};

  double busySeconds() const { return static_cast<double>(BusyNs) * 1e-9; }
};

/// RAII: adds the scope's duration and one call to \p C.
class CallTimer {
public:
  explicit CallTimer(CallCounters &C)
      : C(C), T0(std::chrono::steady_clock::now()) {}
  ~CallTimer() {
    auto Ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                  std::chrono::steady_clock::now() - T0)
                  .count();
    C.BusyNs.fetch_add(static_cast<uint64_t>(Ns), std::memory_order_relaxed);
    C.Calls.fetch_add(1, std::memory_order_relaxed);
  }
  CallTimer(const CallTimer &) = delete;
  CallTimer &operator=(const CallTimer &) = delete;

private:
  CallCounters &C;
  std::chrono::steady_clock::time_point T0;
};

class TimingOracle : public palmed::ThroughputOracle {
public:
  explicit TimingOracle(palmed::ThroughputOracle &Inner) : Inner(Inner) {}

  double measureIpc(const palmed::Microkernel &K) override {
    CallTimer T(Counters);
    return Inner.measureIpc(K);
  }
  std::string name() const override { return Inner.name(); }
  bool isThreadSafe() const override { return Inner.isThreadSafe(); }

  CallCounters Counters;

private:
  palmed::ThroughputOracle &Inner;
};

class CountingRunner : public palmed::BenchmarkRunner {
public:
  using BenchmarkRunner::BenchmarkRunner;

  double measureIpc(const palmed::Microkernel &K) override {
    Calls.fetch_add(1, std::memory_order_relaxed);
    return BenchmarkRunner::measureIpc(K);
  }

  std::atomic<uint64_t> Calls{0};
};

/// Stage spans ("stage.select-basics", ...) under \p Parent, shape rounds
/// ("stage2.round") under the stage-2 span, and per-stage counter deltas
/// of the oracle and the runner. Either counter source may be null.
class StageObserver : public palmed::PipelineObserver {
public:
  StageObserver(Tracer &T, int Parent, const TimingOracle *Oracle,
                const CountingRunner *Runner)
      : T(T), Parent(Parent), Oracle(Oracle), Runner(Runner) {}

  void onStageBegin(palmed::PipelineStage Stage) override;
  void onStageEnd(palmed::PipelineStage Stage,
                  const palmed::PalmedStats &Stats) override;
  void onShapeIteration(int Iteration, size_t NumConstraints,
                        size_t NumResources, size_t NumBenchmarks) override;
  void onInstructionMapped(palmed::InstrId Id, size_t NumDone,
                           size_t NumTotal) override;

private:
  Tracer &T;
  int Parent;
  const TimingOracle *Oracle;
  const CountingRunner *Runner;
  int StageSpan = Tracer::NoSpan;
  double RoundStart = 0.0;
  uint64_t OracleCalls0 = 0, OracleNs0 = 0, RunnerCalls0 = 0;
};

class TimingPredictor : public palmed::Predictor {
public:
  TimingPredictor(std::unique_ptr<palmed::Predictor> Inner,
                  std::shared_ptr<CallCounters> Counters)
      : Inner(std::move(Inner)), Counters(std::move(Counters)) {}

  std::optional<double> predictIpc(const palmed::Microkernel &K) override {
    CallTimer T(*Counters);
    return Inner->predictIpc(K);
  }
  using Predictor::predictIpcBatch;
  void predictIpcBatch(const palmed::Microkernel *Kernels, size_t N,
                       std::optional<double> *Out) override {
    CallTimer T(*Counters);
    Inner->predictIpcBatch(Kernels, N, Out);
  }
  std::string name() const override { return Inner->name(); }
  bool isThreadSafe() const override { return Inner->isThreadSafe(); }
  std::unique_ptr<palmed::Predictor> clone() const override {
    std::unique_ptr<palmed::Predictor> C = Inner->clone();
    if (!C)
      return nullptr;
    return std::make_unique<TimingPredictor>(std::move(C), Counters);
  }

private:
  std::unique_ptr<palmed::Predictor> Inner;
  std::shared_ptr<CallCounters> Counters;
};

} // namespace perfbench

#endif // PERFBENCH_LAYERS_H
