//===- tests/lp2_test.cpp - Cached LP2 tests ------------------------------===//
//
// Part of the PALMED reproduction.
//
// The stage-2 fit takes a subproblem cache (BwpSolveOptions) whose
// contract is that it never changes the weights — it only trades work.
// Direct solveCoreWeights calls pin that contract down (where pivot counts
// can be bracketed exactly), golden direct solves pin problems with two
// coupling components, and golden runs of the default pipeline on the
// shipped machine profiles pin the mappings, the LP2 objective and the LP
// work end to end.
//
//===----------------------------------------------------------------------===//

#include "core/BwpSolver.h"
#include "lp/Model.h"
#include "lp/Simplex.h"
#include "palmed/palmed.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>

using namespace palmed;

namespace {

/// Two independent instruction pairs on disjoint resource pairs — the
/// minimal problem with two coupling components. Instructions 10/20 play
/// ADDSS/BSR on resources {R0 = both, R1 = instr 1} (the paper's running
/// example), and instructions 30/40 mirror them on resources {R2, R3}.
struct TwoComponentFixture {
  MappingShape Shape;
  std::map<InstrId, size_t> IndexOf = {{10, 0}, {20, 1}, {30, 2}, {40, 3}};

  TwoComponentFixture() {
    Shape.Resources = {BitSet::fromWord(0b0011), BitSet::fromWord(0b0010),
                       BitSet::fromWord(0b1100), BitSet::fromWord(0b1000)};
  }

  static Microkernel kernel(InstrId A, double MA, InstrId B, double MB) {
    Microkernel K;
    if (MA > 0)
      K.add(A, MA);
    if (MB > 0)
      K.add(B, MB);
    return K;
  }

  /// The paper-example measurement set, instantiated on both pairs.
  std::vector<WeightKernel> kernels() const {
    std::vector<WeightKernel> Out;
    for (InstrId Base : {InstrId(10), InstrId(30)}) {
      InstrId A = Base, B = Base + 10;
      Out.push_back({kernel(A, 2, B, 0), 2.0, -1});
      Out.push_back({kernel(A, 0, B, 1), 1.0, -1});
      Out.push_back({kernel(A, 2, B, 1), 3.0 / 1.5, -1});
      Out.push_back({kernel(A, 8, B, 1), 9.0 / 4.5, -1});
      Out.push_back({kernel(A, 2, B, 4), 6.0 / 4.0, -1});
    }
    return Out;
  }
};

/// LP work done on this thread since \p Before.
lp::LpTelemetry workSince(const lp::LpTelemetry &Before) {
  const lp::LpTelemetry &Now = lp::lpTelemetry();
  lp::LpTelemetry Delta;
  Delta.Solves = Now.Solves - Before.Solves;
  Delta.Pivots = Now.Pivots - Before.Pivots;
  Delta.WarmStartAttempts = Now.WarmStartAttempts - Before.WarmStartAttempts;
  Delta.WarmStartHits = Now.WarmStartHits - Before.WarmStartHits;
  return Delta;
}

/// Runs solveCoreWeights under \p Opts and returns the weights plus the
/// exact LP telemetry delta of the call.
CoreWeights solveWith(const TwoComponentFixture &F,
                      const BwpSolveOptions &Opts, lp::LpTelemetry &Delta,
                      const std::vector<double> &SoloIpc = {}) {
  const lp::LpTelemetry Before = lp::lpTelemetry();
  CoreWeights W = solveCoreWeights(F.Shape, F.IndexOf, F.kernels(),
                                   BwpMode::Pinned, Opts,
                                   /*MaxPinIterations=*/6, SoloIpc);
  Delta = workSince(Before);
  return W;
}

/// Bitwise equality of two weight matrices (the contract is bit-identical,
/// not approximately equal).
void expectBitwiseEqual(const CoreWeights &A, const CoreWeights &B) {
  ASSERT_EQ(A.Rho.size(), B.Rho.size());
  for (size_t I = 0; I < A.Rho.size(); ++I) {
    ASSERT_EQ(A.Rho[I].size(), B.Rho[I].size());
    for (size_t R = 0; R < A.Rho[I].size(); ++R)
      EXPECT_EQ(A.Rho[I][R], B.Rho[I][R]) << "instr " << I << " res " << R;
  }
  EXPECT_EQ(A.TotalSlack, B.TotalSlack);
}

} // namespace

//===----------------------------------------------------------------------===//
// Structural digest properties.
//===----------------------------------------------------------------------===//

TEST(Lp2Digest, LengthPrefixingSeparatesFieldBoundaries) {
  // [1,2][3] vs [1][2,3]: same flat stream, different boundaries. The
  // length prefixes must keep the digests apart.
  lp::StructuralDigest A;
  A.addSize(2);
  A.addU64(1);
  A.addU64(2);
  A.addSize(1);
  A.addU64(3);
  lp::StructuralDigest B;
  B.addSize(1);
  B.addU64(1);
  B.addSize(2);
  B.addU64(2);
  B.addU64(3);
  EXPECT_NE(A.value(), B.value());
}

TEST(Lp2Digest, OrderSensitive) {
  lp::StructuralDigest A, B;
  A.addU64(1);
  A.addU64(2);
  B.addU64(2);
  B.addU64(1);
  EXPECT_NE(A.value(), B.value());
}

TEST(Lp2Digest, DoubleBitPatterns) {
  // The digest hashes bit patterns: -0.0 and 0.0 compare equal as doubles
  // but must digest differently (a solver pivoting on signed zeros is
  // hypothetical, but a miss is always safe and an alias never is).
  lp::StructuralDigest Pos, Neg;
  Pos.addDouble(0.0);
  Neg.addDouble(-0.0);
  EXPECT_NE(Pos.value(), Neg.value());

  // One-ulp perturbations must separate too.
  lp::StructuralDigest X, Y;
  X.addDouble(1.0);
  Y.addDouble(std::nextafter(1.0, 2.0));
  EXPECT_NE(X.value(), Y.value());
}

TEST(Lp2Digest, BothWordsReactToSingleInput) {
  // The two 64-bit streams evolve independently; a single-input change
  // must disturb both words, otherwise the effective width is 64 bits.
  lp::StructuralDigest A, B;
  A.addU64(42);
  B.addU64(43);
  EXPECT_NE(A.value().Lo, B.value().Lo);
  EXPECT_NE(A.value().Hi, B.value().Hi);
}

TEST(Lp2Digest, ValueOrderingIsStrictWeak) {
  lp::StructuralDigest A, B;
  A.addU64(1);
  B.addU64(2);
  const lp::StructuralDigest::Value VA = A.value(), VB = B.value();
  EXPECT_TRUE(VA == VA);
  EXPECT_NE(VA, VB);
  EXPECT_TRUE((VA < VB) != (VB < VA)); // Exactly one direction.
  EXPECT_FALSE(VA < VA);
}

TEST(Lp2Digest, EmptyStreamsCollide) {
  // Sanity: two untouched digests agree (the basis constants are fixed).
  EXPECT_EQ(lp::StructuralDigest().value(), lp::StructuralDigest().value());
}

//===----------------------------------------------------------------------===//
// Subproblem cache semantics.
//===----------------------------------------------------------------------===//

TEST(Lp2SubproblemCache, FirstInsertWins) {
  lp::StructuralDigest D;
  D.addU64(7);
  const lp::StructuralDigest::Value K = D.value();

  BwpSubproblemCache C;
  C.insert(K, {{1.0}});
  C.insert(K, {{2.0}}); // Ignored: entries are immutable once published.
  ASSERT_NE(C.find(K), nullptr);
  EXPECT_EQ(C.find(K)->Values[0], 1.0);
  EXPECT_EQ(C.numEntries(), 1u);
}

//===----------------------------------------------------------------------===//
// Direct-solve equivalences (exact pivot accounting).
//===----------------------------------------------------------------------===//

TEST(Lp2Equivalence, CacheOnOffBitwiseValues) {
  TwoComponentFixture F;
  BwpSubproblemCache Cache;
  lp::LpTelemetry Warm, Cold;
  BwpSolveOptions Cached;
  Cached.Cache = &Cache;
  BwpSolveOptions Uncached;
  CoreWeights WCold = solveWith(F, Uncached, Cold);
  CoreWeights WWarm = solveWith(F, Cached, Warm);
  expectBitwiseEqual(WWarm, WCold);
  EXPECT_GT(Warm.WarmStartAttempts, 0);
  EXPECT_EQ(Cold.WarmStartAttempts, 0);
  // A second cached solve of the identical problem replays every block.
  lp::LpTelemetry Replay;
  CoreWeights WReplay = solveWith(F, Cached, Replay);
  expectBitwiseEqual(WReplay, WCold);
  EXPECT_GT(Replay.WarmStartHits, 0);
  EXPECT_LT(Replay.Pivots, Cold.Pivots);
}

//===----------------------------------------------------------------------===//
// Golden pins of direct solves with two coupling components.
//===----------------------------------------------------------------------===//

namespace {

/// What one direct solve must reproduce exactly: the weights and the
/// objective bit for bit, and the LP work that produced them.
struct DirectGolden {
  std::vector<std::vector<double>> Rho;
  double TotalSlack;
  long Solves;
  long Pivots;
};

void expectDirectGolden(const std::vector<std::vector<double>> &Rho,
                        double TotalSlack, const lp::LpTelemetry &Delta,
                        const BwpSolveStats &Stats, const DirectGolden &G) {
  ASSERT_EQ(Rho.size(), G.Rho.size());
  for (size_t I = 0; I < Rho.size(); ++I) {
    ASSERT_EQ(Rho[I].size(), G.Rho[I].size());
    for (size_t R = 0; R < Rho[I].size(); ++R)
      EXPECT_EQ(Rho[I][R], G.Rho[I][R]) << "row " << I << " res " << R;
  }
  EXPECT_EQ(TotalSlack, G.TotalSlack);
  EXPECT_EQ(Delta.Solves, G.Solves);
  EXPECT_EQ(Delta.Pivots, G.Pivots);
  EXPECT_EQ(Stats.Components, 2);
}

} // namespace

TEST(Lp2Golden, TwoComponentCore) {
  TwoComponentFixture F;
  BwpSolveStats Stats;
  BwpSolveOptions Opts;
  Opts.Stats = &Stats;
  lp::LpTelemetry Plain, Balanced;
  CoreWeights W = solveWith(F, Opts, Plain);
  expectDirectGolden(W.Rho, W.TotalSlack, Plain, Stats,
                     {{{0x1p-1, 0.0, 0.0, 0.0},
                       {0x1p-1, 0x1p+0, 0.0, 0.0},
                       {0.0, 0.0, 0x1p-1, 0.0},
                       {0.0, 0.0, 0x1p-1, 0x1p+0}},
                      0.0,
                      8,
                      12});
  // With solo IPCs every solved block also runs the balancing passes.
  Stats = BwpSolveStats();
  CoreWeights WB = solveWith(F, Opts, Balanced, {2.0, 1.0, 1.5, 1.0});
  expectDirectGolden(WB.Rho, WB.TotalSlack, Balanced, Stats,
                     {{{0x1.fffffffad8961p-2, 0.0, 0.0, 0.0},
                       {0x1.000000052769fp-1, 0x1p+0, 0.0, 0.0},
                       {0.0, 0.0, 0x1.fffffffad8961p-2, 0.0},
                       {0.0, 0.0, 0x1.000000052769fp-1, 0x1p+0}},
                      0x1.12e0bep-29,
                      24,
                      73});
}

TEST(Lp2Golden, TwoComponentAux) {
  // Every kernel holding the new instruction loads all resources, so an
  // LPAUX problem splits into several components only when none of its
  // kernels holds it: here, kernels of the frozen pairs alone, whose
  // loads stay on {R0, R1} and {R2, R3}.
  TwoComponentFixture F;
  const std::vector<std::vector<double>> Frozen = {
      {0.5, 0.0, 0.0, 0.0},
      {0.5, 1.0, 0.0, 0.0},
      {0.0, 0.0, 0.5, 0.0},
      {0.0, 0.0, 0.5, 1.0}};
  const InstrId NewInstr = 50;
  std::vector<WeightKernel> Kernels;
  for (InstrId Base : {InstrId(10), InstrId(30)}) {
    InstrId A = Base, B = Base + 10;
    Kernels.push_back({TwoComponentFixture::kernel(A, 2, B, 0), 1.6, -1});
    Kernels.push_back({TwoComponentFixture::kernel(A, 0, B, 1), 0.9, 1});
    Kernels.push_back({TwoComponentFixture::kernel(A, 2, B, 1), 1.5, -1});
  }
  BwpSolveStats Stats;
  BwpSolveOptions Opts;
  Opts.Stats = &Stats;
  const lp::LpTelemetry Before = lp::lpTelemetry();
  AuxWeights Aux = solveAuxWeights(F.Shape, F.IndexOf, Frozen, NewInstr,
                                   Kernels, BwpMode::Pinned,
                                   /*MaxPinIterations=*/4, Opts);
  const lp::LpTelemetry Delta = workSince(Before);
  EXPECT_TRUE(Aux.Feasible);
  expectDirectGolden({Aux.Rho}, Aux.TotalSlack, Delta, Stats,
                     {{{0.0, 0.0, 0.0, 0.0}}, 0x1.199999999999ap+0, 0, 0});
}

//===----------------------------------------------------------------------===//
// Golden pins of the default pipeline on the shipped profiles.
//===----------------------------------------------------------------------===//

namespace {

/// 64-bit FNV-1a of \p Bytes as 16 lowercase hex digits (the digest the
/// benchmark reports as mapping_digest).
std::string fnv1aHex(const std::string &Bytes) {
  uint64_t H = 0xcbf29ce484222325ULL;
  for (unsigned char C : Bytes) {
    H ^= C;
    H *= 0x100000001b3ULL;
  }
  char Buf[17];
  std::snprintf(Buf, sizeof Buf, "%016llx",
                static_cast<unsigned long long>(H));
  return Buf;
}

/// What one default pipeline run must reproduce exactly: the mapping (by
/// digest), the LP2 objective bit for bit, and the LP work that produced
/// them.
struct Golden {
  const char *MappingDigest;
  double CoreSlack;
  long CorePivots;
  long CompletePivots;
  long WarmAttempts;
  long WarmHits;
  long Components;
  size_t NumBenchmarks;
};

void checkGolden(const MachineModel &M, const PalmedConfig &Config,
                 const Golden &G) {
  AnalyticOracle Oracle(M);
  BenchmarkRunner Runner(M, Oracle);
  Pipeline P(Runner, Config);
  const PalmedResult &R = P.run();
  EXPECT_EQ(fnv1aHex(R.Mapping.toText(M.isa())), G.MappingDigest);
  EXPECT_EQ(R.Stats.CoreSlack, G.CoreSlack);
  EXPECT_EQ(R.Stats.CoreLpPivots, G.CorePivots);
  EXPECT_EQ(R.Stats.CompleteLpPivots, G.CompletePivots);
  EXPECT_EQ(R.Stats.LpWarmStartAttempts, G.WarmAttempts);
  EXPECT_EQ(R.Stats.LpWarmStartHits, G.WarmHits);
  EXPECT_EQ(R.Stats.Lp2Components, G.Components);
  EXPECT_EQ(R.Stats.NumBenchmarks, G.NumBenchmarks);
}

} // namespace

TEST(Lp2Golden, Fig1) {
  checkGolden(makeFig1Machine(), PalmedConfig(),
              {"77bb16e4b0dcadd4", 0x1.8542c2p-30, 1517, 0, 144, 32, 1, 90});
}

TEST(Lp2Golden, Skl) {
  checkGolden(makeSklLike(), PalmedConfig(),
              {"0025e6b1ab9ff5c9", 0x1.de77365a3958p+2, 18748, 891, 1724,
               329, 1, 12448});
}

TEST(Lp2Golden, Zen) {
  checkGolden(makeZenLike(), PalmedConfig(),
              {"6b38a0b2a817196d", 0x1.145dc3314835fp-1, 16154, 444, 1150,
               362, 1, 6744});
}

TEST(Lp2Golden, Stress) {
  checkGolden(makeStressMachine(StressIsaConfig()), PalmedConfig(),
              {"01b1a33c87e350b1", 0x1.b31efde6f2dd3p+1, 18595, 1020, 1311,
               531, 1, 37662});
}

TEST(Lp2Golden, Huge) {
  PalmedConfig Config;
  Config.Selection.ClusterPairPruning = true;
  checkGolden(makeStressMachine(hugeStressConfig()), Config,
              {"a6e132fa312c581c", 0x1.caae3162afe9bp+1, 121362, 7928, 4217,
               2138, 1, 113181});
}
