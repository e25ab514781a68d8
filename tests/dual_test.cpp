//===- tests/dual_test.cpp - Dual-equivalence theorem tests ---------------===//
//
// Part of the PALMED reproduction.
//
// Validates the paper's central theoretical claim (Appendix A, Thm. A.2):
// the conjunctive dual of a disjunctive port mapping predicts, in closed
// form, exactly the optimal-schedule execution time.
//
//===----------------------------------------------------------------------===//

#include "core/DualConstruction.h"
#include "machine/StandardMachines.h"
#include "machine/SyntheticIsa.h"
#include "sim/AnalyticOracle.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <set>

using namespace palmed;

namespace {

InstrId idOf(const MachineModel &M, const std::string &Name) {
  InstrId Id = M.isa().findByName(Name);
  EXPECT_NE(Id, InvalidInstr) << Name;
  return Id;
}

} // namespace

// ------------------------------------------------------------------- Closure

TEST(ResourceClosure, Fig1MachineHasPaperResources) {
  MachineModel M = makeFig1Machine();
  // Port sets: {p0}, {p0,p1}, {p1}, {p0,p6}, {p6}; closure adds {p0,p1,p6}.
  std::vector<PortMask> Closure = computeResourceClosure(M, 64);
  EXPECT_EQ(Closure.size(), 6u);
  PortMask All = portMask({0, 1, 2});
  EXPECT_NE(std::count(Closure.begin(), Closure.end(), All), 0);
  // r16 = {p1,p6} must NOT appear: no µOP set generates it (the paper notes
  // it is not needed).
  PortMask R16 = portMask({1, 2});
  EXPECT_EQ(std::count(Closure.begin(), Closure.end(), R16), 0);
}

TEST(ResourceClosure, DisjointSetsStayUnmerged) {
  MachineBuilder B("disjoint");
  B.addPort("a");
  B.addPort("b");
  B.addSimpleInstruction({"X", ExtClass::Base, InstrCategory::IntAlu},
                         portMask({0}));
  B.addSimpleInstruction({"Y", ExtClass::Base, InstrCategory::IntAlu},
                         portMask({1}));
  MachineModel M = B.build();
  EXPECT_EQ(computeResourceClosure(M, 64).size(), 2u);
}

// ------------------------------------------------------- Fig. 1b reproduction

TEST(DualMapping, Fig1NormalizedWeights) {
  MachineModel M = makeFig1Machine();
  ResourceMapping Dual = buildDualMapping(M);

  auto ResourceByName = [&](const std::string &Name) -> ResourceId {
    for (ResourceId R = 0; R < Dual.numResources(); ++R)
      if (Dual.resourceName(R) == Name)
        return R;
    ADD_FAILURE() << "missing resource " << Name;
    return 0;
  };
  // Port indices: p0=0, p1=1, p6=2 -> names r0, r01, r016 ("2" is p6).
  ResourceId R0 = ResourceByName("r0");
  ResourceId R01 = ResourceByName("r01");
  ResourceId R012 = ResourceByName("r012");

  InstrId Addss = idOf(M, "ADDSS");
  InstrId Bsr = idOf(M, "BSR");
  InstrId Vcvtt = idOf(M, "VCVTT");

  // Paper Fig. 1c: rho(ADDSS, r01) = 1/2, rho(ADDSS, r016) = 1/3.
  EXPECT_NEAR(Dual.rho(Addss, R01), 0.5, 1e-12);
  EXPECT_NEAR(Dual.rho(Addss, R012), 1.0 / 3.0, 1e-12);
  EXPECT_DOUBLE_EQ(Dual.rho(Addss, R0), 0.0);
  // BSR: rho(r1) = 1, rho(r01) = 1/2, rho(r016) = 1/3.
  EXPECT_NEAR(Dual.rho(Bsr, R01), 0.5, 1e-12);
  // VCVTT uses r01 twice: normalized 2/2 = 1.
  EXPECT_NEAR(Dual.rho(Vcvtt, R01), 1.0, 1e-12);
}

TEST(DualMapping, Fig1ThroughputExamples) {
  MachineModel M = makeFig1Machine();
  ResourceMapping Dual = buildDualMapping(M);
  Microkernel K1;
  K1.add(idOf(M, "ADDSS"), 2.0);
  K1.add(idOf(M, "BSR"), 1.0);
  EXPECT_NEAR(Dual.predictCycles(K1), 1.5, 1e-12);
  EXPECT_NEAR(*Dual.predictIpc(K1), 2.0, 1e-12);

  Microkernel K2;
  K2.add(idOf(M, "ADDSS"), 1.0);
  K2.add(idOf(M, "BSR"), 2.0);
  EXPECT_NEAR(*Dual.predictIpc(K2), 1.5, 1e-12);
}

// ------------------------------------------- Equivalence theorem (Thm. A.2)

/// Property: dual closed-form time == flow-LP optimal time, on random
/// machines and random kernels (without front-end, which the flow LP part
/// does not include).
class DualEquivalence : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DualEquivalence, ClosedFormEqualsFlowOptimum) {
  Rng R(GetParam());
  MachineModel M =
      makeRandomMachine(R, 2 + R.uniformInt(5), 5 + R.uniformInt(10));
  AnalyticOracle Oracle(M);
  DualOptions Options;
  Options.IncludeFrontEnd = false;
  ResourceMapping Dual = buildDualMapping(M, Options);

  for (int Trial = 0; Trial < 8; ++Trial) {
    Microkernel K;
    size_t Terms = 1 + R.uniformInt(4);
    for (size_t T = 0; T < Terms; ++T)
      K.add(static_cast<InstrId>(R.uniformInt(M.numInstructions())),
            0.5 + R.uniformReal() * 3.0);
    double FlowT = Oracle.portCycles(K);
    double DualT = Dual.predictCycles(K);
    EXPECT_NEAR(FlowT, DualT, 1e-6 * std::max(1.0, FlowT))
        << "machine seed " << GetParam() << " trial " << Trial;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DualEquivalence,
                         ::testing::Range(uint64_t{1}, uint64_t{50}));

/// With the front-end resource enabled, the dual must equal the full
/// analytic oracle (which also applies the decode-width bound).
class DualFrontEnd : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DualFrontEnd, MatchesOracleWithDecodeBound) {
  Rng R(GetParam());
  MachineModel M =
      makeRandomMachine(R, 2 + R.uniformInt(5), 5 + R.uniformInt(10));
  AnalyticOracle Oracle(M);
  ResourceMapping Dual = buildDualMapping(M);

  for (int Trial = 0; Trial < 5; ++Trial) {
    Microkernel K;
    size_t Terms = 1 + R.uniformInt(4);
    for (size_t T = 0; T < Terms; ++T)
      K.add(static_cast<InstrId>(R.uniformInt(M.numInstructions())),
            0.5 + R.uniformReal() * 3.0);
    double OracleIpc = Oracle.measureIpc(K);
    ASSERT_TRUE(Dual.predictIpc(K).has_value());
    EXPECT_NEAR(OracleIpc, *Dual.predictIpc(K), 1e-6 * OracleIpc);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DualFrontEnd,
                         ::testing::Range(uint64_t{100}, uint64_t{130}));

// ------------------------------------------------------- optimalPortCycles

TEST(OptimalPortCycles, SingleMask) {
  EXPECT_NEAR(optimalPortCycles({{portMask({0, 1}), 3.0}}), 1.5, 1e-12);
}

TEST(OptimalPortCycles, MergesDuplicates) {
  EXPECT_NEAR(
      optimalPortCycles({{portMask({0}), 1.0}, {portMask({0}), 2.0}}), 3.0,
      1e-12);
}

TEST(OptimalPortCycles, DisjointTakesMax) {
  double T = optimalPortCycles({{portMask({0}), 2.0}, {portMask({1}), 5.0}});
  EXPECT_NEAR(T, 5.0, 1e-12);
}

TEST(OptimalPortCycles, UnionBindsWhenShared) {
  // 2 on {0}, 2 on {0,1}: the union {0,1} carries 4 demand over 2 ports.
  double T =
      optimalPortCycles({{portMask({0}), 2.0}, {portMask({0, 1}), 2.0}});
  EXPECT_NEAR(T, 2.0, 1e-12);
}

// ------------------------------------- Bit-equality with the std::map kernel

namespace {

/// The std::map / std::set formulation optimalPortCycles and
/// computeResourceClosure replaced, kept verbatim as the reference their
/// results must match bit for bit.
double referenceOptimalPortCycles(
    const std::vector<std::pair<PortMask, double>> &Demands) {
  std::map<PortMask, double> ByMask;
  for (const auto &[Mask, Demand] : Demands)
    ByMask[Mask] += Demand;
  std::set<PortMask> Closure;
  for (const auto &[Mask, Demand] : ByMask)
    Closure.insert(Mask);
  bool Changed = true;
  while (Changed) {
    Changed = false;
    std::vector<PortMask> Current(Closure.begin(), Closure.end());
    for (size_t I = 0; I < Current.size() && !Changed; ++I)
      for (size_t J = I + 1; J < Current.size(); ++J)
        if (Current[I].intersects(Current[J]) &&
            Closure.insert(Current[I] | Current[J]).second) {
          Changed = true;
          break;
        }
  }
  double Best = 0.0;
  for (const PortMask &J : Closure) {
    double Inside = 0.0;
    for (const auto &[Mask, Demand] : ByMask)
      if (Mask.isSubsetOf(J))
        Inside += Demand;
    Best = std::max(Best, Inside / portCount(J));
  }
  return Best;
}

std::vector<PortMask> referenceResourceClosure(const MachineModel &Machine) {
  std::set<PortMask> Closure;
  for (InstrId Id = 0; Id < Machine.numInstructions(); ++Id)
    for (const MicroOpDesc &Op : Machine.exec(Id).MicroOps)
      Closure.insert(Op.Ports);
  bool Changed = true;
  while (Changed) {
    Changed = false;
    std::vector<PortMask> Current(Closure.begin(), Closure.end());
    for (size_t I = 0; I < Current.size() && !Changed; ++I)
      for (size_t J = I + 1; J < Current.size(); ++J)
        if (Current[I].intersects(Current[J]) &&
            Closure.insert(Current[I] | Current[J]).second) {
          Changed = true;
          break;
        }
  }
  return std::vector<PortMask>(Closure.begin(), Closure.end());
}

uint64_t bitsOf(double X) {
  uint64_t Bits;
  std::memcpy(&Bits, &X, sizeof(Bits));
  return Bits;
}

/// A random non-empty mask over \p NumPorts ports, mostly 1-3 ports wide.
PortMask randomMask(Rng &R, size_t NumPorts) {
  PortMask Mask;
  size_t Width = 1 + R.uniformInt(R.chance(0.8) ? 3 : NumPorts);
  for (size_t K = 0; K < Width; ++K)
    Mask.set(R.uniformInt(NumPorts));
  return Mask;
}

} // namespace

TEST(OptimalPortCycles, BitEqualToMapReferenceOnRandomBags) {
  Rng R(2024);
  size_t Multiword = 0, WithDuplicates = 0, Empty = 0, WordBags = 0;
  for (int Bag = 0; Bag < 2500; ++Bag) {
    // Every fourth bag spans more than 64 ports, so BitSet's multi-word
    // path is exercised; a small per-bag pool makes duplicate masks common.
    size_t NumPorts = Bag % 4 == 3 ? 65 + R.uniformInt(60)
                                   : 2 + R.uniformInt(10);
    std::vector<PortMask> Pool;
    for (size_t P = 0, N = 1 + R.uniformInt(6); P < N; ++P)
      Pool.push_back(randomMask(R, NumPorts));
    std::vector<std::pair<PortMask, double>> Demands;
    size_t Entries = Bag % 50 == 0 ? 0 : 1 + R.uniformInt(10);
    for (size_t E = 0; E < Entries; ++E) {
      double Demand = R.chance(0.15)  ? 0.0
                      : R.chance(0.5) ? R.uniformRealIn(0.05, 4.0)
                                      : 1.0 / (1 + R.uniformInt(7));
      Demands.push_back({Pool[R.uniformInt(Pool.size())], Demand});
    }

    std::set<PortMask> Distinct;
    bool SingleWord = true;
    for (const auto &[Mask, Demand] : Demands) {
      Distinct.insert(Mask);
      Multiword += Mask.findLast() >= 64;
      SingleWord &= Mask.findLast() < 64;
    }
    WithDuplicates += Distinct.size() < Demands.size();
    Empty += Demands.empty();

    double Got = optimalPortCycles(Demands);
    double Want = referenceOptimalPortCycles(Demands);
    ASSERT_EQ(bitsOf(Got), bitsOf(Want))
        << "bag " << Bag << ": " << Got << " vs " << Want;

    // The word instantiation is held to the same reference.
    if (!SingleWord)
      continue;
    ++WordBags;
    std::vector<std::pair<uint64_t, double>> Words;
    for (const auto &[Mask, Demand] : Demands)
      Words.push_back({Mask.toUint64(), Demand});
    double GotWords = optimalPortCycles(Words);
    ASSERT_EQ(bitsOf(GotWords), bitsOf(Want))
        << "word bag " << Bag << ": " << GotWords << " vs " << Want;
  }
  // The generator really reaches the cases the contract is about.
  EXPECT_GT(Multiword, 100u);
  EXPECT_GT(WordBags, 1500u);
  EXPECT_GT(WithDuplicates, 500u);
  EXPECT_GT(Empty, 0u);
}

TEST(ResourceClosure, MatchesSetReferenceOnStandardMachines) {
  for (const MachineModel &M :
       {makeSklLike(), makeZenLike(), makeStressMachine(StressIsaConfig())})
    EXPECT_EQ(computeResourceClosure(M, DualOptions().MaxResources),
              referenceResourceClosure(M))
        << M.name();
}

// --------------------------------------------------------- Mapping round-trip

TEST(ResourceMapping, TextRoundTrip) {
  MachineModel M = makeFig1Machine();
  ResourceMapping Dual = buildDualMapping(M);
  std::string Text = Dual.toText(M.isa());
  auto Parsed = ResourceMapping::fromText(Text, M.isa());
  ASSERT_TRUE(Parsed.has_value());
  ASSERT_EQ(Parsed->numResources(), Dual.numResources());
  Microkernel K;
  K.add(idOf(M, "ADDSS"), 2.0);
  K.add(idOf(M, "BSR"), 1.0);
  EXPECT_NEAR(Parsed->predictCycles(K), Dual.predictCycles(K), 1e-9);
}

TEST(ResourceMapping, FromTextRejectsGarbage) {
  MachineModel M = makeFig1Machine();
  EXPECT_FALSE(ResourceMapping::fromText("not a mapping", M.isa()));
  EXPECT_FALSE(ResourceMapping::fromText(
      "palmed-mapping v1\nresources 1\nbogus line\n", M.isa()));
}

TEST(ResourceMapping, UnsupportedKernelDeclined) {
  ResourceMapping Map(3);
  Map.addResource("R0");
  Map.setUsage(0, 0, 0.5);
  Microkernel K;
  K.add(0, 1.0);
  K.add(2, 1.0); // Instruction 2 unmapped.
  EXPECT_FALSE(Map.supports(K));
  EXPECT_FALSE(Map.predictIpc(K).has_value());
}
