//===- baselines/PMEvo.h - Evolutionary port-mapping inference -*- C++ -*-===//
//
// Part of the PALMED reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A reimplementation of PMEvo (Ritter & Hack, PLDI 2020), the paper's
/// closest related work and main automated-inference baseline: infer a
/// *disjunctive* port mapping (instruction -> µOPs -> port sets) from
/// runtime measurements only, via an evolutionary algorithm over candidate
/// mappings. Training benchmarks contain at most two distinct instructions,
/// as in the original. Fitness is the squared relative error between the
/// candidate's optimal-schedule cycles and the measured cycles.
///
/// Two deliberate fidelity choices reproduce the paper's findings:
///  * the model class is ports-only (no front-end / non-pipelined
///    resources), so kernels bottlenecked elsewhere are mispredicted;
///  * training covers only a subset of the ISA (the original's mapping was
///    collected from differently-compiled binaries), so block coverage is
///    partial; unsupported instructions are treated as consuming nothing.
///
//===----------------------------------------------------------------------===//

#ifndef PALMED_BASELINES_PMEVO_H
#define PALMED_BASELINES_PMEVO_H

#include "baselines/Predictor.h"
#include "sim/BenchmarkRunner.h"

#include <map>
#include <memory>
#include <vector>

namespace palmed {

/// Evolutionary-search configuration.
struct PMEvoConfig {
  /// Number of ports the candidate mappings may use, 1 to 64 (genomes
  /// hold each µOP's port set in one 64-bit word).
  unsigned NumPorts = 8;
  /// Maximum µOPs per instruction in a genome.
  int MaxMicroOps = 8;
  int PopulationSize = 48;
  int Generations = 120;
  int TournamentSize = 3;
  /// Per-instruction mutation probability.
  double MutationRate = 0.25;
  uint64_t Seed = 1;
  /// Cap on the number of instructions trained (coverage limitation; 0 =
  /// train on the whole pool).
  size_t MaxTrainInstructions = 0;
  /// Cap on the number of pairwise benchmarks (the original samples its
  /// benchmark set rather than measuring all pairs; 0 = all pairs).
  size_t PairSampleLimit = 1500;
};

/// Inferred disjunctive mapping + predictor.
class PMEvoPredictor : public Predictor {
public:
  /// Trains on solo and pairwise benchmarks over \p Pool drawn through
  /// \p Runner. Deterministic given the config seed. Throws
  /// std::invalid_argument if NumPorts is not in [1, 64] or PopulationSize
  /// is below 1.
  static std::unique_ptr<PMEvoPredictor>
  train(BenchmarkRunner &Runner, const std::vector<InstrId> &Pool,
        const PMEvoConfig &Config = PMEvoConfig());

  std::optional<double> predictIpc(const Microkernel &K) override;
  std::string name() const override { return "pmevo"; }

  /// Prediction only reads the frozen inferred mapping.
  bool isThreadSafe() const override { return true; }
  std::unique_ptr<Predictor> clone() const override;

  /// Final training fitness (sum of squared relative cycle errors).
  double trainingError() const { return TrainingError; }

  /// Instructions the inferred mapping covers.
  std::vector<InstrId> supportedInstructions() const;

  /// Inferred µOP port sets of \p Id (empty if unsupported).
  const std::vector<PortMask> &microOps(InstrId Id) const;

private:
  PMEvoPredictor() = default;

  std::map<InstrId, std::vector<PortMask>> Inferred;
  double TrainingError = 0.0;
};

} // namespace palmed

#endif // PALMED_BASELINES_PMEVO_H
