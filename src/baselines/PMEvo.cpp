//===- baselines/PMEvo.cpp - Evolutionary port-mapping inference ----------===//
//
// Part of the PALMED reproduction.
//
//===----------------------------------------------------------------------===//

#include "baselines/PMEvo.h"

#include "core/DualConstruction.h"
#include "core/Selection.h"
#include "support/Compat.h"
#include "support/Rng.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>

using namespace palmed;

namespace {

/// One candidate mapping: per trained instruction, its µOPs' port sets as
/// words whose bit p is port p (NumPorts <= 64). They become PortMasks only
/// when the trained predictor's Inferred map is filled.
using Genome = std::vector<std::vector<uint64_t>>;

/// A training sample: a kernel over trained instructions with its measured
/// execution time per iteration.
struct Sample {
  /// (instruction index in pool, multiplicity) pairs.
  std::vector<std::pair<size_t, double>> Terms;
  double MeasuredCycles = 0.0;
};

/// A population member: its genome, the squared relative cycle error it
/// scores on each sample, and their sum (its fitness).
struct Member {
  Genome Genes;
  std::vector<double> Errors;
  double Fitness = 0.0;
};

/// Squared relative error of \p G's optimal-schedule cycles on \p S. It
/// reads only the genes of the sample's instructions.
double sampleError(const Genome &G, const Sample &S) {
  // Per-thread scratch: fitness scoring calls this millions of times.
  thread_local std::vector<std::pair<uint64_t, double>> Demands;
  Demands.clear();
  for (const auto &[Index, Mult] : S.Terms)
    for (uint64_t Mask : G[Index])
      Demands.push_back({Mask, Mult});
  double Pred = optimalPortCycles(Demands);
  double Rel = (Pred - S.MeasuredCycles) / S.MeasuredCycles;
  return Rel * Rel;
}

/// The fitness of \p M: its error terms summed in sample order from 0.0.
void sumErrors(Member &M) {
  double Err = 0.0;
  for (double E : M.Errors)
    Err += E;
  M.Fitness = Err;
}

void score(Member &M, const std::vector<Sample> &Samples) {
  M.Errors.resize(Samples.size());
  for (size_t S = 0; S < Samples.size(); ++S)
    M.Errors[S] = sampleError(M.Genes, Samples[S]);
  sumErrors(M);
}

/// Scores \p Child, bred from parents \p A and \p B. A sample's error is a
/// function of its instructions' genes only, so a sample whose genes all
/// equal one parent's copies that parent's term; the others are computed.
/// Genes are compared after mutation, so a mutation that changed nothing
/// still inherits. \p Origin is scratch.
void scoreChild(Member &Child, const Member &A, const Member &B,
                const std::vector<Sample> &Samples,
                std::vector<unsigned char> &Origin) {
  constexpr unsigned char FromA = 1, FromB = 2;
  Origin.resize(Child.Genes.size());
  for (size_t I = 0; I < Child.Genes.size(); ++I)
    Origin[I] = (Child.Genes[I] == A.Genes[I] ? FromA : 0) |
                (Child.Genes[I] == B.Genes[I] ? FromB : 0);
  Child.Errors.resize(Samples.size());
  for (size_t S = 0; S < Samples.size(); ++S) {
    unsigned char Shared = FromA | FromB;
    for (const auto &[Index, Mult] : Samples[S].Terms)
      Shared &= Origin[Index];
    Child.Errors[S] = Shared & FromA   ? A.Errors[S]
                      : Shared & FromB ? B.Errors[S]
                                       : sampleError(Child.Genes, Samples[S]);
  }
  sumErrors(Child);
}

uint64_t randomMask(Rng &R, unsigned NumPorts, unsigned PreferredCount) {
  unsigned Count = PreferredCount;
  if (Count == 0 || R.chance(0.3))
    Count = 1 + static_cast<unsigned>(R.uniformInt(4)) %
                    std::max(1u, NumPorts);
  Count = std::min(std::max(Count, 1u), NumPorts);
  uint64_t Mask = 0;
  while (popCount(Mask) < Count)
    Mask |= uint64_t{1} << R.uniformInt(NumPorts);
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
      uint64_t &Mask = MicroOps[R.uniformInt(MicroOps.size())];
      uint64_t Next = Mask ^ uint64_t{1} << R.uniformInt(Config.NumPorts);
      if (Next != 0)
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

/// Fills \p Child (same shape as the parents) gene by gene from \p A or
/// \p B; assigning into a reused genome keeps its buffers.
void crossover(Rng &R, const Genome &A, const Genome &B, Genome &Child) {
  for (size_t I = 0; I < A.size(); ++I)
    Child[I] = R.chance(0.5) ? A[I] : B[I];
}

} // namespace

std::unique_ptr<PMEvoPredictor>
PMEvoPredictor::train(BenchmarkRunner &Runner,
                      const std::vector<InstrId> &Pool,
                      const PMEvoConfig &Config) {
  if (Config.NumPorts == 0 || Config.NumPorts > 64)
    throw std::invalid_argument(
        "PMEvoConfig::NumPorts must be in [1, 64] (genomes are 64-bit words)");
  if (Config.PopulationSize < 1)
    throw std::invalid_argument("PMEvoConfig::PopulationSize must be >= 1");
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

  // Evolutionary search. The two generation buffers are allocated once
  // and swapped; members keep their genome and error buffers across
  // generations.
  const auto PopulationSize = static_cast<size_t>(Config.PopulationSize);
  std::vector<Member> Population(PopulationSize), Next(PopulationSize);
  for (Member &M : Population) {
    M.Genes = randomGenome(R, SoloIpc, Config);
    score(M, Samples);
  }
  for (Member &M : Next)
    M.Genes.resize(Trained.size());

  auto Tournament = [&]() {
    size_t Best = R.uniformInt(Population.size());
    for (int T = 1; T < Config.TournamentSize; ++T) {
      size_t C = R.uniformInt(Population.size());
      if (Population[C].Fitness < Population[Best].Fitness)
        Best = C;
    }
    return Best;
  };

  std::vector<size_t> Order(Population.size());
  std::vector<unsigned char> Origin;
  for (int Gen = 0; Gen < Config.Generations; ++Gen) {
    // Elitism: keep the two fittest genomes.
    for (size_t I = 0; I < Order.size(); ++I)
      Order[I] = I;
    std::sort(Order.begin(), Order.end(), [&](size_t A, size_t B) {
      return Population[A].Fitness < Population[B].Fitness;
    });

    // The elites carry their errors forward: scoring is deterministic, so
    // re-scoring them would only repeat the same values.
    size_t Filled = 0;
    for (; Filled < std::min<size_t>(2, Order.size()); ++Filled)
      Next[Filled] = Population[Order[Filled]];
    for (; Filled < Next.size(); ++Filled) {
      // B is drawn before A, spelled out so every compiler trains the same
      // GA: the golden trajectories were recorded with gcc evaluating
      // crossover(R, Tournament(), Tournament())'s arguments right to left.
      size_t IB = Tournament();
      size_t IA = Tournament();
      const Member &A = Population[IA], &B = Population[IB];
      Member &Child = Next[Filled];
      crossover(R, A.Genes, B.Genes, Child.Genes);
      mutate(R, Child.Genes, Config);
      scoreChild(Child, A, B, Samples, Origin);
    }
    std::swap(Population, Next);
  }

  size_t Best = 0;
  for (size_t P = 1; P < Population.size(); ++P)
    if (Population[P].Fitness < Population[Best].Fitness)
      Best = P;

  auto Result = std::unique_ptr<PMEvoPredictor>(new PMEvoPredictor());
  for (size_t I = 0; I < Trained.size(); ++I) {
    std::vector<PortMask> &MicroOps = Result->Inferred[Trained[I]];
    for (uint64_t Mask : Population[Best].Genes[I])
      MicroOps.push_back(PortMask::fromWord(Mask));
  }
  Result->TrainingError = Population[Best].Fitness;
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
