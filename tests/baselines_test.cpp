//===- tests/baselines_test.cpp - Baseline predictor tests ----------------===//
//
// Part of the PALMED reproduction.
//
//===----------------------------------------------------------------------===//

#include "baselines/GroundTruthPredictors.h"
#include "baselines/PMEvo.h"
#include "eval/Harness.h"
#include "eval/Workload.h"
#include "machine/MachineBuilder.h"
#include "machine/StandardMachines.h"
#include "palmed/EvalSession.h"
#include "sim/AnalyticOracle.h"
#include "support/Rng.h"
#include "support/Statistics.h"

#include <gtest/gtest.h>

#include <cstring>
#include <stdexcept>

using namespace palmed;

TEST(GroundTruthPredictors, UopsStyleOverestimatesDividers) {
  // Port-mapping-only tools assume fully pipelined units; on a
  // divider-heavy kernel they must over-estimate IPC (paper Sec. VI-B).
  MachineModel M = makeSklLike();
  AnalyticOracle O(M);
  auto Uops = makeUopsInfoPredictor(M);

  InstrId Div = M.isa().findByName("DIV32_0");
  ASSERT_NE(Div, InvalidInstr);
  Microkernel K = Microkernel::single(Div, 2.0);
  auto P = Uops->predictIpc(K);
  ASSERT_TRUE(P.has_value());
  EXPECT_GT(*P, 1.5 * O.measureIpc(K));
}

TEST(GroundTruthPredictors, UopsStyleIgnoresFrontEnd) {
  MachineModel M = makeSklLike();
  AnalyticOracle O(M);
  auto Uops = makeUopsInfoPredictor(M);
  // A wide-ALU instruction: native IPC capped at 4 by decode, but the
  // ports alone would allow 4 ALU ports -> uops-style predicts 4 too...
  // use a mixed ALU+load+branch kernel that exceeds the width instead.
  Microkernel K;
  K.add(M.isa().findByName("ADD_0"), 4.0);
  K.add(M.isa().findByName("LOAD_0"), 2.0);
  K.add(M.isa().findByName("JMP_0"), 1.0);
  double Native = O.measureIpc(K);
  auto P = Uops->predictIpc(K);
  ASSERT_TRUE(P.has_value());
  EXPECT_GT(*P, Native * 1.2); // Over-estimates when decode binds.
}

TEST(GroundTruthPredictors, IacaLikeIsExactWithoutMixing) {
  // IACA-like has ports + front-end + occupancy: on non-mixed kernels it
  // must match the oracle exactly (the oracle's only extra is the SSE/AVX
  // penalty).
  MachineModel M = makeSklLike();
  AnalyticOracle O(M);
  auto Iaca = makeIacaLikePredictor(M);
  Rng R(3);
  for (int Trial = 0; Trial < 30; ++Trial) {
    Microkernel K;
    for (size_t T = 0; T < 1 + R.uniformInt(4); ++T)
      K.add(static_cast<InstrId>(R.uniformInt(M.numInstructions())),
            static_cast<double>(1 + R.uniformInt(3)));
    if (M.kernelMixesExtensions(K))
      continue;
    auto P = Iaca->predictIpc(K);
    ASSERT_TRUE(P.has_value());
    EXPECT_NEAR(*P, O.measureIpc(K), 1e-6 * O.measureIpc(K));
  }
}

TEST(GroundTruthPredictors, IacaLikeMissesMixPenalty) {
  MachineModel M = makeSklLike();
  AnalyticOracle O(M);
  auto Iaca = makeIacaLikePredictor(M);
  Microkernel K;
  K.add(M.isa().findByName("ADDSS_0"), 1.0);
  K.add(M.isa().findByName("VADDPS_0"), 1.0);
  ASSERT_TRUE(M.kernelMixesExtensions(K));
  auto P = Iaca->predictIpc(K);
  ASSERT_TRUE(P.has_value());
  EXPECT_GT(*P, O.measureIpc(K) * 1.1); // The penalty is invisible to it.
}

TEST(GroundTruthPredictors, LlvmMcaDeclinesOtherCategory) {
  MachineModel M = makeSklLike();
  auto Mca = makeLlvmMcaLikePredictor(M);
  InstrId Cvt = M.isa().findByName("CVT_0");
  ASSERT_NE(Cvt, InvalidInstr);
  EXPECT_FALSE(Mca->predictIpc(Microkernel::single(Cvt)).has_value());
  InstrId Add = M.isa().findByName("ADD_0");
  EXPECT_TRUE(Mca->predictIpc(Microkernel::single(Add)).has_value());
}

// ----------------------------------------------------------------- PMEvo

namespace {

PMEvoConfig quickPmevoConfig() {
  PMEvoConfig Cfg;
  Cfg.PopulationSize = 32;
  Cfg.Generations = 60;
  Cfg.Seed = 5;
  return Cfg;
}

} // namespace

TEST(PMEvo, LearnsTinyMachine) {
  // Two disjoint single-port instructions and one flexible one: PMEvo must
  // reproduce solo and pairwise throughputs.
  MachineBuilder B("tiny");
  B.addPort("p0");
  B.addPort("p1");
  InstrId A = B.addSimpleInstruction(
      {"A", ExtClass::Base, InstrCategory::IntAlu}, portMask({0}));
  InstrId C = B.addSimpleInstruction(
      {"C", ExtClass::Base, InstrCategory::IntMul}, portMask({1}));
  InstrId F = B.addSimpleInstruction(
      {"F", ExtClass::Base, InstrCategory::Shift}, portMask({0, 1}));
  MachineModel M = B.build();
  AnalyticOracle O(M);
  BenchmarkRunner Runner(M, O);

  PMEvoConfig Cfg = quickPmevoConfig();
  Cfg.NumPorts = 2;
  Cfg.MaxTrainInstructions = 0; // Train on everything.
  auto P = PMEvoPredictor::train(Runner, M.isa().allIds(), Cfg);

  EXPECT_LT(P->trainingError(), 0.05);
  auto Check = [&](Microkernel K) {
    auto Pred = P->predictIpc(K);
    ASSERT_TRUE(Pred.has_value());
    EXPECT_NEAR(*Pred, O.measureIpc(K), 0.1 * O.measureIpc(K))
        << K.str(M.isa());
  };
  Check(Microkernel::single(A, 1.0));
  Check(Microkernel::single(F, 2.0));
  Microkernel Pair;
  Pair.add(A, 1.0);
  Pair.add(F, 2.0);
  Check(Pair);
  Microkernel Trio;
  Trio.add(A, 1.0);
  Trio.add(C, 1.0);
  Trio.add(F, 1.0);
  Check(Trio);
}

TEST(PMEvo, DeterministicGivenSeed) {
  MachineModel M = makeFig1Machine();
  AnalyticOracle O(M);
  BenchmarkRunner R1(M, O), R2(M, O);
  PMEvoConfig Cfg = quickPmevoConfig();
  Cfg.NumPorts = 3;
  Cfg.Generations = 20;
  Cfg.MaxTrainInstructions = 0;
  auto A = PMEvoPredictor::train(R1, M.isa().allIds(), Cfg);
  auto B = PMEvoPredictor::train(R2, M.isa().allIds(), Cfg);
  EXPECT_DOUBLE_EQ(A->trainingError(), B->trainingError());
  Microkernel K;
  K.add(0, 1.0);
  K.add(3, 2.0);
  EXPECT_EQ(A->predictIpc(K).has_value(), B->predictIpc(K).has_value());
  if (A->predictIpc(K) && B->predictIpc(K)) {
    EXPECT_DOUBLE_EQ(*A->predictIpc(K), *B->predictIpc(K));
  }
}

TEST(PMEvo, PartialCoverageSemantics) {
  MachineModel M = makeSklLike();
  AnalyticOracle O(M);
  BenchmarkRunner Runner(M, O);
  PMEvoConfig Cfg = quickPmevoConfig();
  Cfg.Generations = 10; // Coverage semantics only; accuracy irrelevant.
  Cfg.MaxTrainInstructions = 20;
  auto P = PMEvoPredictor::train(Runner, M.isa().allIds(), Cfg);

  auto Supported = P->supportedInstructions();
  ASSERT_EQ(Supported.size(), 20u);

  // A kernel made only of unsupported instructions is declined.
  std::set<InstrId> InPool(Supported.begin(), Supported.end());
  InstrId Out = InvalidInstr;
  for (InstrId Id = 0; Id < M.numInstructions(); ++Id)
    if (!InPool.count(Id)) {
      Out = Id;
      break;
    }
  ASSERT_NE(Out, InvalidInstr);
  EXPECT_FALSE(P->predictIpc(Microkernel::single(Out)).has_value());

  // A mixed supported/unsupported kernel is processed (degraded mode).
  Microkernel Mixed;
  Mixed.add(Supported[0], 1.0);
  Mixed.add(Out, 1.0);
  EXPECT_TRUE(P->predictIpc(Mixed).has_value());
}

namespace {

/// FNV-1a over (instruction, µOP count, masks) of every inferred entry.
uint64_t inferredDigest(const PMEvoPredictor &P) {
  uint64_t H = 0xcbf29ce484222325ull;
  auto Mix = [&](uint64_t V) {
    for (int B = 0; B < 8; ++B) {
      H ^= (V >> (8 * B)) & 0xff;
      H *= 0x100000001b3ull;
    }
  };
  for (InstrId Id : P.supportedInstructions()) {
    const std::vector<PortMask> &Ops = P.microOps(Id);
    Mix(Id);
    Mix(Ops.size());
    for (const PortMask &Mask : Ops)
      Mix(Mask.toUint64());
  }
  return H;
}

} // namespace

TEST(PMEvo, GoldenTrainingOnSkl) {
  // Pins the GA's exact trajectory: a speedup of the fitness kernel must
  // keep every fitness bit, or Fig. 4's PMEvo column moves. The values were
  // recorded with the std::map / std::set optimalPortCycles.
  MachineModel M = makeSklLike();
  AnalyticOracle O(M);
  BenchmarkRunner Runner(M, O);
  PMEvoConfig Cfg = quickPmevoConfig();
  Cfg.MaxTrainInstructions = 40;
  auto P = PMEvoPredictor::train(Runner, M.isa().allIds(), Cfg);
  EXPECT_EQ(P->trainingError(), 0x1.428610bd2dc65p+5);
  EXPECT_EQ(P->supportedInstructions().size(), 40u);
  EXPECT_EQ(inferredDigest(*P), 0x14aa49ba02bf5c7dull);
}

TEST(PMEvo, GoldenTrainingOnSklCampaignConfig) {
  // The Fig. 4 campaign's own configuration: default PMEvoConfig on the
  // whole skl pool. Children inherit the error terms of samples whose
  // genes match a parent's, so this pins that the shortcut never changes
  // a fitness bit at full population and generation count.
  MachineModel M = makeSklLike();
  AnalyticOracle O(M);
  BenchmarkRunner Runner(M, O);
  auto P = PMEvoPredictor::train(Runner, M.isa().allIds(), PMEvoConfig());
  EXPECT_EQ(P->trainingError(), 0x1.241a3d2b5a7ebp+7);
  EXPECT_EQ(P->supportedInstructions().size(), 178u);
  EXPECT_EQ(inferredDigest(*P), 0x31dcca329a3932ebull);
}

TEST(PMEvo, RejectsInvalidConfig) {
  // Genomes hold each µOP's ports in one 64-bit word, and mutation draws a
  // port uniformly, so there must be 1 to 64 ports and a population.
  MachineModel M = makeFig1Machine();
  AnalyticOracle O(M);
  BenchmarkRunner Runner(M, O);
  auto Train = [&](auto Edit) {
    PMEvoConfig Cfg = quickPmevoConfig();
    Cfg.Generations = 1;
    Edit(Cfg);
    return PMEvoPredictor::train(Runner, M.isa().allIds(), Cfg);
  };
  EXPECT_THROW(Train([](PMEvoConfig &C) { C.NumPorts = 0; }),
               std::invalid_argument);
  EXPECT_THROW(Train([](PMEvoConfig &C) { C.NumPorts = 65; }),
               std::invalid_argument);
  EXPECT_THROW(Train([](PMEvoConfig &C) { C.PopulationSize = 0; }),
               std::invalid_argument);
  EXPECT_NO_THROW(Train([](PMEvoConfig &C) { C.NumPorts = 64; }));
  EXPECT_NO_THROW(Train([](PMEvoConfig &C) { C.PopulationSize = 1; }));
}

TEST(PMEvo, EvalSessionSerialAndParallelAreBitIdentical) {
  // PMEvo predicts through thread-local scratch and claims thread safety,
  // so EvalSession workers share one instance.
  MachineModel M = makeSklLike();
  AnalyticOracle O(M);
  BenchmarkRunner Runner(M, O);
  PMEvoConfig Cfg = quickPmevoConfig();
  Cfg.Generations = 10;
  Cfg.MaxTrainInstructions = 30;
  auto P = PMEvoPredictor::train(Runner, M.isa().allIds(), Cfg);
  ASSERT_TRUE(P->isThreadSafe());

  WorkloadConfig WCfg;
  WCfg.NumBlocks = 300;
  auto Blocks = generateWorkload(M, WCfg);
  auto Run = [&](ExecutionPolicy Policy) {
    EvalSession S(O, Policy);
    S.setReferenceTool("pmevo");
    S.add(*P);
    return S.run(Blocks).Predictions.at("pmevo");
  };
  auto Serial = Run(ExecutionPolicy::serial());
  auto Par4 = Run(ExecutionPolicy::parallel(4));
  ASSERT_EQ(Serial.size(), Par4.size());
  size_t Predicted = 0;
  for (size_t I = 0; I < Serial.size(); ++I) {
    ASSERT_EQ(Serial[I].has_value(), Par4[I].has_value()) << I;
    if (!Serial[I])
      continue;
    ++Predicted;
    uint64_t A, B;
    std::memcpy(&A, &*Serial[I], sizeof(A));
    std::memcpy(&B, &*Par4[I], sizeof(B));
    EXPECT_EQ(A, B) << "block " << I;
  }
  EXPECT_GT(Predicted, 0u);
}
