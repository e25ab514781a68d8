//===- perfbench/src/Layers.cpp - Decorators timing library layers --------===//
//
// Part of the PALMED reproduction's benchmark (perfbench).
//
//===----------------------------------------------------------------------===//

#include "Layers.h"

namespace perfbench {

void StageObserver::onStageBegin(palmed::PipelineStage Stage) {
  StageSpan =
      T.begin(std::string("stage.") + palmed::pipelineStageName(Stage),
              Parent);
  RoundStart = nowSeconds();
  OracleCalls0 = Oracle ? Oracle->Counters.Calls.load() : 0;
  OracleNs0 = Oracle ? Oracle->Counters.BusyNs.load() : 0;
  RunnerCalls0 = Runner ? Runner->Calls.load() : 0;
}

void StageObserver::onStageEnd(palmed::PipelineStage Stage,
                               const palmed::PalmedStats &Stats) {
  (void)Stage;
  (void)Stats;
  if (Oracle) {
    T.count(StageSpan, "oracle_calls",
            static_cast<double>(Oracle->Counters.Calls.load() - OracleCalls0));
    T.count(StageSpan, "oracle_s",
            static_cast<double>(Oracle->Counters.BusyNs.load() - OracleNs0) *
                1e-9);
  }
  if (Runner)
    T.count(StageSpan, "runner_calls",
            static_cast<double>(Runner->Calls.load() - RunnerCalls0));
  T.end(StageSpan);
  StageSpan = Tracer::NoSpan;
}

void StageObserver::onShapeIteration(int Iteration, size_t NumConstraints,
                                     size_t NumResources,
                                     size_t NumBenchmarks) {
  // The event fires at the end of a round; round 0 also carries the seed
  // benchmarks measured since the stage began.
  double Now = nowSeconds();
  int Round = T.add("stage2.round", RoundStart, Now, StageSpan);
  T.count(Round, "iteration", Iteration);
  T.count(Round, "constraints", static_cast<double>(NumConstraints));
  T.count(Round, "resources", static_cast<double>(NumResources));
  T.count(Round, "benchmarks", static_cast<double>(NumBenchmarks));
  RoundStart = Now;
}

void StageObserver::onInstructionMapped(palmed::InstrId Id, size_t NumDone,
                                        size_t NumTotal) {
  (void)Id;
  (void)NumDone;
  (void)NumTotal;
  T.count(StageSpan, "instructions", 1.0);
}

} // namespace perfbench
