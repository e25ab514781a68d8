//===- baselines/PMEvo.cpp - Evolutionary port-mapping inference ----------===//
//
// Part of the PALMED reproduction.
//
//===----------------------------------------------------------------------===//

#include "baselines/PMEvo.h"

#include "core/DualConstruction.h"
#include "core/Selection.h"
#include "support/Rng.h"

#include <algorithm>
#include <cassert>
#include <cmath>

using namespace palmed;

namespace {

/// One candidate mapping: per trained instruction, its µOP port sets.
using Genome = std::vector<std::vector<PortMask>>;

/// A training sample: a kernel over trained instructions with its measured
/// execution time per iteration.
struct Sample {
  /// (instruction index in pool, multiplicity) pairs.
  std::vector<std::pair<size_t, double>> Terms;
  double MeasuredCycles = 0.0;
};

double predictedCycles(const Genome &G, const Sample &S) {
  // Per-thread scratch: fitness scoring calls this millions of times.
  thread_local std::vector<std::pair<PortMask, double>> Demands;
  Demands.clear();
  for (const auto &[Index, Mult] : S.Terms)
    for (PortMask Mask : G[Index])
      Demands.push_back({Mask, Mult});
  return optimalPortCycles(Demands);
}

double fitness(const Genome &G, const std::vector<Sample> &Samples) {
  double Err = 0.0;
  for (const Sample &S : Samples) {
    double Pred = predictedCycles(G, S);
    double Rel = (Pred - S.MeasuredCycles) / S.MeasuredCycles;
    Err += Rel * Rel;
  }
  return Err;
}

PortMask randomMask(Rng &R, unsigned NumPorts, unsigned PreferredCount) {
  unsigned Count = PreferredCount;
  if (Count == 0 || R.chance(0.3))
    Count = 1 + static_cast<unsigned>(R.uniformInt(4)) %
                    std::max(1u, NumPorts);
  Count = std::min(std::max(Count, 1u), NumPorts);
  PortMask Mask;
  while (portCount(Mask) < Count)
    Mask.set(R.uniformInt(NumPorts));
  return Mask;
}

/// Initial genomes are seeded with the solo-IPC heuristic: an instruction
/// with solo IPC k most likely maps to a single µOP over about k ports.
Genome randomGenome(Rng &R, const std::vector<double> &SoloIpc,
                    const PMEvoConfig &Config) {
  Genome G(SoloIpc.size());
  for (size_t I = 0; I < G.size(); ++I) {
    int NumOps;
    unsigned Preferred;
    if (SoloIpc[I] < 0.9) {
      // Sub-1 IPC: seed with round(1/IPC) µOPs on one port (a serialized
      // chain is the only way the port model can express it).
      NumOps = static_cast<int>(std::lround(1.0 / SoloIpc[I]));
      Preferred = 1;
    } else {
      NumOps = R.chance(0.2) ? 2 : 1;
      Preferred = static_cast<unsigned>(
          std::min<double>(Config.NumPorts, std::lround(SoloIpc[I])));
    }
    NumOps = std::max(1, std::min(NumOps, Config.MaxMicroOps));
    for (int U = 0; U < NumOps; ++U)
      G[I].push_back(randomMask(R, Config.NumPorts, Preferred));
  }
  return G;
}

void mutate(Rng &R, Genome &G, const PMEvoConfig &Config) {
  for (auto &MicroOps : G) {
    if (!R.chance(Config.MutationRate))
      continue;
    double Action = R.uniformReal();
    if (Action < 0.6) {
      // Toggle one port bit of one µOP, keeping the set non-empty.
      auto &Mask = MicroOps[R.uniformInt(MicroOps.size())];
      PortMask Next = Mask;
      Next.flip(R.uniformInt(Config.NumPorts));
      if (Next.any())
        Mask = Next;
    } else if (Action < 0.8 &&
               static_cast<int>(MicroOps.size()) < Config.MaxMicroOps) {
      MicroOps.push_back(randomMask(R, Config.NumPorts, 0));
    } else if (MicroOps.size() > 1) {
      MicroOps.erase(MicroOps.begin() +
                     static_cast<long>(R.uniformInt(MicroOps.size())));
    }
  }
}

Genome crossover(Rng &R, const Genome &A, const Genome &B) {
  Genome Child(A.size());
  for (size_t I = 0; I < A.size(); ++I)
    Child[I] = R.chance(0.5) ? A[I] : B[I];
  return Child;
}

} // namespace

std::unique_ptr<PMEvoPredictor>
PMEvoPredictor::train(BenchmarkRunner &Runner,
                      const std::vector<InstrId> &Pool,
                      const PMEvoConfig &Config) {
  Rng R(Config.Seed);

  // Trainable subset: benchmarkable instructions, capped (see header).
  std::vector<InstrId> Trained;
  std::vector<double> SoloIpc;
  {
    std::vector<InstrId> Shuffled = Pool;
    R.shuffle(Shuffled);
    for (InstrId Id : Shuffled) {
      if (Config.MaxTrainInstructions != 0 &&
          Trained.size() >= Config.MaxTrainInstructions)
        break;
      double Ipc = Runner.measureIpc(Microkernel::single(Id));
      if (Ipc < 0.05)
        continue;
      Trained.push_back(Id);
      SoloIpc.push_back(Ipc);
    }
  }
  assert(!Trained.empty() && "nothing to train on");

  // Training set: solo kernels and all admissible pairs (PMEvo uses at
  // most two distinct instructions per benchmark).
  std::vector<Sample> Samples;
  for (size_t I = 0; I < Trained.size(); ++I) {
    Microkernel K = Microkernel::single(Trained[I], SoloIpc[I]);
    Sample S;
    S.Terms = {{I, K.multiplicity(Trained[I])}};
    S.MeasuredCycles = K.size() / Runner.measureIpc(K);
    Samples.push_back(std::move(S));
  }
  {
    std::vector<std::pair<size_t, size_t>> Pairs;
    for (size_t I = 0; I < Trained.size(); ++I)
      for (size_t J = I + 1; J < Trained.size(); ++J)
        Pairs.push_back({I, J});
    if (Config.PairSampleLimit != 0 &&
        Pairs.size() > Config.PairSampleLimit) {
      R.shuffle(Pairs);
      Pairs.resize(Config.PairSampleLimit);
    }
    for (const auto &[I, J] : Pairs) {
      Microkernel K =
          makePairKernel(Trained[I], SoloIpc[I], Trained[J], SoloIpc[J]);
      if (!Runner.accepts(K))
        continue;
      Sample S;
      S.Terms = {{I, SoloIpc[I]}, {J, SoloIpc[J]}};
      S.MeasuredCycles = K.size() / Runner.measureIpc(K);
      Samples.push_back(std::move(S));
    }
  }

  // Evolutionary search.
  std::vector<Genome> Population;
  std::vector<double> Fitness;
  for (int P = 0; P < Config.PopulationSize; ++P) {
    Population.push_back(randomGenome(R, SoloIpc, Config));
    Fitness.push_back(fitness(Population.back(), Samples));
  }

  auto Tournament = [&]() -> const Genome & {
    size_t Best = R.uniformInt(Population.size());
    for (int T = 1; T < Config.TournamentSize; ++T) {
      size_t C = R.uniformInt(Population.size());
      if (Fitness[C] < Fitness[Best])
        Best = C;
    }
    return Population[Best];
  };

  for (int Gen = 0; Gen < Config.Generations; ++Gen) {
    // Elitism: keep the two fittest genomes.
    std::vector<size_t> Order(Population.size());
    for (size_t I = 0; I < Order.size(); ++I)
      Order[I] = I;
    std::sort(Order.begin(), Order.end(),
              [&](size_t A, size_t B) { return Fitness[A] < Fitness[B]; });

    // The elites carry their fitness forward: scoring is deterministic, so
    // re-scoring them would only repeat the same value.
    std::vector<Genome> Next;
    std::vector<double> NextFitness;
    for (size_t E = 0; E < std::min<size_t>(2, Order.size()); ++E) {
      Next.push_back(Population[Order[E]]);
      NextFitness.push_back(Fitness[Order[E]]);
    }
    while (static_cast<int>(Next.size()) < Config.PopulationSize) {
      Genome Child = crossover(R, Tournament(), Tournament());
      mutate(R, Child, Config);
      NextFitness.push_back(fitness(Child, Samples));
      Next.push_back(std::move(Child));
    }
    Population = std::move(Next);
    Fitness = std::move(NextFitness);
  }

  size_t Best = 0;
  for (size_t P = 1; P < Population.size(); ++P)
    if (Fitness[P] < Fitness[Best])
      Best = P;

  auto Result = std::unique_ptr<PMEvoPredictor>(new PMEvoPredictor());
  for (size_t I = 0; I < Trained.size(); ++I)
    Result->Inferred[Trained[I]] = Population[Best][I];
  Result->TrainingError = Fitness[Best];
  return Result;
}

std::optional<double> PMEvoPredictor::predictIpc(const Microkernel &K) {
  // Unsupported instructions are treated as consuming nothing (paper
  // Sec. VI-B's handling of PMEvo); decline only if nothing is supported.
  std::vector<std::pair<PortMask, double>> Demands;
  bool AnySupported = false;
  for (const auto &[Id, Mult] : K.terms()) {
    auto It = Inferred.find(Id);
    if (It == Inferred.end())
      continue;
    AnySupported = true;
    for (PortMask Mask : It->second)
      Demands.push_back({Mask, Mult});
  }
  if (!AnySupported)
    return std::nullopt;
  double Cycles = optimalPortCycles(Demands);
  if (Cycles <= 0.0)
    return std::nullopt;
  return K.size() / Cycles;
}

std::unique_ptr<Predictor> PMEvoPredictor::clone() const {
  std::unique_ptr<PMEvoPredictor> Copy(new PMEvoPredictor());
  Copy->Inferred = Inferred;
  Copy->TrainingError = TrainingError;
  return Copy;
}

std::vector<InstrId> PMEvoPredictor::supportedInstructions() const {
  std::vector<InstrId> Ids;
  for (const auto &[Id, MicroOps] : Inferred)
    Ids.push_back(Id);
  return Ids;
}

const std::vector<PortMask> &PMEvoPredictor::microOps(InstrId Id) const {
  static const std::vector<PortMask> Empty;
  auto It = Inferred.find(Id);
  return It == Inferred.end() ? Empty : It->second;
}
