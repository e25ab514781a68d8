//===- tests/lp_test.cpp - LP/MILP solver tests ---------------------------===//
//
// Part of the PALMED reproduction.
//
//===----------------------------------------------------------------------===//

#include "../bench/TallLp.h"
#include "lp/Milp.h"
#include "lp/Simplex.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

#include <cmath>

using namespace palmed;
using namespace palmed::lp;

namespace {

LinearExpr expr(std::initializer_list<std::pair<VarId, double>> Terms) {
  LinearExpr E;
  for (const auto &[V, C] : Terms)
    E.add(V, C);
  return E;
}

} // namespace

// ------------------------------------------------------------------ Simplex

TEST(Simplex, TextbookMaximization) {
  // max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18. Optimum (2, 6) = 36.
  Model M;
  VarId X = M.addVar("x", 0, Infinity);
  VarId Y = M.addVar("y", 0, Infinity);
  M.addConstraint(expr({{X, 1}}), Sense::LE, 4);
  M.addConstraint(expr({{Y, 2}}), Sense::LE, 12);
  M.addConstraint(expr({{X, 3}, {Y, 2}}), Sense::LE, 18);
  M.setObjective(expr({{X, 3}, {Y, 5}}), Goal::Maximize);

  Solution S = solveLp(M);
  ASSERT_EQ(S.Status, SolveStatus::Optimal);
  EXPECT_NEAR(S.Objective, 36.0, 1e-7);
  EXPECT_NEAR(S.value(X), 2.0, 1e-7);
  EXPECT_NEAR(S.value(Y), 6.0, 1e-7);
}

TEST(Simplex, MinimizationWithGe) {
  // min x + 2y s.t. x + y >= 3, y >= 1. Optimum (2, 1) = 4.
  Model M;
  VarId X = M.addVar("x", 0, Infinity);
  VarId Y = M.addVar("y", 0, Infinity);
  M.addConstraint(expr({{X, 1}, {Y, 1}}), Sense::GE, 3);
  M.addConstraint(expr({{Y, 1}}), Sense::GE, 1);
  M.setObjective(expr({{X, 1}, {Y, 2}}), Goal::Minimize);

  Solution S = solveLp(M);
  ASSERT_EQ(S.Status, SolveStatus::Optimal);
  EXPECT_NEAR(S.Objective, 4.0, 1e-7);
}

TEST(Simplex, EqualityConstraint) {
  // min x + y s.t. x + 2y = 4, x >= 1. Optimum (1, 1.5) = 2.5.
  Model M;
  VarId X = M.addVar("x", 1.0, Infinity);
  VarId Y = M.addVar("y", 0, Infinity);
  M.addConstraint(expr({{X, 1}, {Y, 2}}), Sense::EQ, 4);
  M.setObjective(expr({{X, 1}, {Y, 1}}), Goal::Minimize);

  Solution S = solveLp(M);
  ASSERT_EQ(S.Status, SolveStatus::Optimal);
  EXPECT_NEAR(S.Objective, 2.5, 1e-7);
}

TEST(Simplex, DetectsInfeasible) {
  Model M;
  VarId X = M.addVar("x", 0, Infinity);
  M.addConstraint(expr({{X, 1}}), Sense::LE, 1);
  M.addConstraint(expr({{X, 1}}), Sense::GE, 2);
  M.setObjective(expr({{X, 1}}), Goal::Minimize);
  EXPECT_EQ(solveLp(M).Status, SolveStatus::Infeasible);
}

TEST(Simplex, DetectsUnbounded) {
  Model M;
  VarId X = M.addVar("x", 0, Infinity);
  M.setObjective(expr({{X, 1}}), Goal::Maximize);
  EXPECT_EQ(solveLp(M).Status, SolveStatus::Unbounded);
}

TEST(Simplex, RespectsVariableBounds) {
  // max x + y with x in [0, 2], y in [1, 3]: optimum 5.
  Model M;
  VarId X = M.addVar("x", 0, 2);
  VarId Y = M.addVar("y", 1, 3);
  M.setObjective(expr({{X, 1}, {Y, 1}}), Goal::Maximize);

  Solution S = solveLp(M);
  ASSERT_EQ(S.Status, SolveStatus::Optimal);
  EXPECT_NEAR(S.Objective, 5.0, 1e-7);
}

TEST(Simplex, NegativeRhsNormalization) {
  // x - y <= -1 with x,y in [0,5]: maximize x gives x = 4 (y = 5).
  Model M;
  VarId X = M.addVar("x", 0, 5);
  VarId Y = M.addVar("y", 0, 5);
  M.addConstraint(expr({{X, 1}, {Y, -1}}), Sense::LE, -1);
  M.setObjective(expr({{X, 1}}), Goal::Maximize);

  Solution S = solveLp(M);
  ASSERT_EQ(S.Status, SolveStatus::Optimal);
  EXPECT_NEAR(S.value(X), 4.0, 1e-7);
}

TEST(Simplex, BoundOverridesTighten) {
  Model M;
  VarId X = M.addVar("x", 0, 10);
  M.setObjective(expr({{X, 1}}), Goal::Maximize);
  Solution S = solveLp(M, {{X, 0.0, 3.0}}, SimplexOptions());
  ASSERT_EQ(S.Status, SolveStatus::Optimal);
  EXPECT_NEAR(S.Objective, 3.0, 1e-7);
}

TEST(Simplex, BealeCyclingTerminatesBothPricings) {
  // Beale's classic cycling instance: Dantzig pricing without an
  // anti-cycling guard loops forever at the origin. Both solver flavors
  // must escape via the Bland fallback and reach the optimum -1/20.
  for (lp::LpPricing Pricing : {LpPricing::Devex, LpPricing::Dantzig}) {
    Model M;
    VarId X1 = M.addVar("x1", 0, Infinity);
    VarId X2 = M.addVar("x2", 0, Infinity);
    VarId X3 = M.addVar("x3", 0, Infinity);
    VarId X4 = M.addVar("x4", 0, Infinity);
    M.addConstraint(
        expr({{X1, 0.25}, {X2, -60.0}, {X3, -1.0 / 25.0}, {X4, 9.0}}),
        Sense::LE, 0.0);
    M.addConstraint(
        expr({{X1, 0.5}, {X2, -90.0}, {X3, -1.0 / 50.0}, {X4, 3.0}}),
        Sense::LE, 0.0);
    M.addConstraint(expr({{X3, 1.0}}), Sense::LE, 1.0);
    M.setObjective(
        expr({{X1, -0.75}, {X2, 150.0}, {X3, -1.0 / 50.0}, {X4, 6.0}}),
        Goal::Minimize);

    SimplexOptions Options;
    Options.Pricing = Pricing;
    Solution S = solveLp(M, {}, Options);
    ASSERT_EQ(S.Status, SolveStatus::Optimal);
    EXPECT_NEAR(S.Objective, -0.05, 1e-9);
  }
}

TEST(Simplex, CompatAndFastAgreeOnRandomBoundedLps) {
  // The two solver flavors must agree on status and optimal value (the
  // optimal vertex may legitimately differ on degenerate faces).
  for (uint64_t Seed = 1; Seed <= 200; ++Seed) {
    Rng R(Seed);
    int N = 1 + static_cast<int>(R.uniformInt(6));
    int Rows = 1 + static_cast<int>(R.uniformInt(6));
    Model M;
    std::vector<VarId> V;
    for (int I = 0; I < N; ++I) {
      double Lo = std::floor(R.uniformRealIn(-3.0, 3.0));
      double Hi = R.uniformInt(3) == 0
                      ? Infinity
                      : Lo + std::floor(R.uniformRealIn(0.0, 6.0));
      V.push_back(M.addVar("x", Lo, Hi));
    }
    for (int Row = 0; Row < Rows; ++Row) {
      LinearExpr E;
      for (int I = 0; I < N; ++I) {
        double C = std::floor(R.uniformRealIn(-4.0, 5.0));
        if (C != 0.0)
          E.add(V[static_cast<size_t>(I)], C);
      }
      Sense S = R.uniformInt(4) == 0
                    ? Sense::EQ
                    : (R.uniformInt(2) ? Sense::LE : Sense::GE);
      M.addConstraint(std::move(E), S, std::floor(R.uniformRealIn(-8.0, 12.0)));
    }
    LinearExpr Obj;
    for (int I = 0; I < N; ++I)
      Obj.add(V[static_cast<size_t>(I)], std::floor(R.uniformRealIn(-5.0, 6.0)));
    M.setObjective(std::move(Obj),
                   R.uniformInt(2) ? Goal::Maximize : Goal::Minimize);

    SimplexOptions Fast;
    SimplexOptions Compat;
    Compat.Pricing = LpPricing::Dantzig;
    Solution A = solveLp(M, {}, Fast);
    Solution B = solveLp(M, {}, Compat);
    ASSERT_EQ(A.Status, B.Status) << "seed " << Seed;
    if (A.Status == SolveStatus::Optimal) {
      EXPECT_NEAR(A.Objective, B.Objective,
                  1e-6 * std::max(1.0, std::abs(B.Objective)))
          << "seed " << Seed;
    }
  }
}

TEST(Simplex, WarmStartAfterObjectiveChangeMatchesCold) {
  // Re-solving with a new objective from the previous basis must agree
  // with a cold solve (and actually take the warm path).
  Model M;
  VarId X = M.addVar("x", 0, 4);
  VarId Y = M.addVar("y", 0, 3);
  M.addConstraint(expr({{X, 1}, {Y, 2}}), Sense::LE, 8);
  M.addConstraint(expr({{X, 3}, {Y, 1}}), Sense::LE, 9);
  M.setObjective(expr({{X, 1}, {Y, 1}}), Goal::Maximize);

  SimplexOptions Options;
  SimplexBasis Basis;
  Solution First = solveLp(M, {}, Options, nullptr, &Basis);
  ASSERT_EQ(First.Status, SolveStatus::Optimal);
  ASSERT_FALSE(Basis.empty());

  M.setObjective(expr({{X, -2}, {Y, 5}}), Goal::Maximize);
  LpRunStats Stats;
  Solution Warm = solveLp(M, {}, Options, &Basis, nullptr, &Stats);
  Solution Cold = solveLp(M, {}, Options);
  ASSERT_EQ(Warm.Status, SolveStatus::Optimal);
  EXPECT_TRUE(Stats.WarmStarted);
  EXPECT_NEAR(Warm.Objective, Cold.Objective, 1e-9);
}

TEST(Simplex, WarmStartAfterBoundTighteningMatchesCold) {
  // Branch-and-bound's pattern: tighten one bound and re-solve from the
  // parent basis; the dual simplex restores feasibility and the result
  // must match a cold solve of the child.
  Model M;
  VarId X = M.addVar("x", 0, 10);
  VarId Y = M.addVar("y", 0, 10);
  M.addConstraint(expr({{X, 2}, {Y, 3}}), Sense::LE, 12);
  M.addConstraint(expr({{X, 1}, {Y, -1}}), Sense::GE, -4);
  M.setObjective(expr({{X, 3}, {Y, 4}}), Goal::Maximize);

  SimplexOptions Options;
  SimplexBasis Basis;
  Solution Parent = solveLp(M, {}, Options, nullptr, &Basis);
  ASSERT_EQ(Parent.Status, SolveStatus::Optimal);

  std::vector<BoundOverride> Child = {{X, 0.0, 1.0}};
  LpRunStats Stats;
  Solution Warm = solveLp(M, Child, Options, &Basis, nullptr, &Stats);
  Solution Cold = solveLp(M, Child, Options);
  ASSERT_EQ(Warm.Status, SolveStatus::Optimal);
  EXPECT_NEAR(Warm.Objective, Cold.Objective, 1e-9);
  EXPECT_NEAR(Warm.value(X), 1.0, 1e-9);
}

TEST(Simplex, DegenerateProblemTerminates) {
  // Classic degeneracy: many redundant constraints through the origin.
  Model M;
  VarId X = M.addVar("x", 0, Infinity);
  VarId Y = M.addVar("y", 0, Infinity);
  for (int I = 1; I <= 8; ++I)
    M.addConstraint(expr({{X, static_cast<double>(I)}, {Y, 1.0}}), Sense::LE,
                    0.0);
  M.setObjective(expr({{X, 1}, {Y, 1}}), Goal::Maximize);
  Solution S = solveLp(M);
  ASSERT_EQ(S.Status, SolveStatus::Optimal);
  EXPECT_NEAR(S.Objective, 0.0, 1e-7);
}

TEST(Simplex, CompatTallLpGolden) {
  // Tall BWP-shaped LPs (2 000 capacity rows over 40 weights, a GE floor
  // row that needs an artificial) through the compat solver, pinned bit for
  // bit: every value, the objective and the pivot count. Seed 1 (dense
  // kernels) pivots mostly through the dense elimination sweep and stalls
  // on its degenerate vertex past 200 pivots into the Bland fallback;
  // seed 2 (sparse kernels) also takes the scattered sweep. In both, slack
  // columns leave the basis and re-enter it. The values were recorded with
  // the solver that kept every touched slack column in a slot and swept
  // only through row indices.
  struct Golden {
    uint64_t Seed;
    double DenseShare;
    int Pivots;
    double Objective;
    std::vector<double> Values;
  };
  const Golden Cases[] = {
      {1, 0.3, 537, 0x1.a89ba3ae16dd6p+3,
       {0x1.3b92228a0b891p-2, 0x1.06b02d92d0a4ep-2, 0x1.426a09d499914p-3,
        0x1.02887c7a0c4dcp-2, 0x1.48615f46c43c7p-2, 0x1.ee79ffe972f73p-2,
        0x1.78764862bad94p-2, 0x1.d32a8691a1cbdp-2, 0x1.2fa9393e151c3p-2,
        0x1.010b40ec6f7cfp-3, 0x1.31c172b179ac2p-2, 0x1.eb5422939c6bep-3,
        0x1.7a6bfbd25990bp-3, 0x1.c46002dd640fap-2, 0x1.f8ba568c3fde9p-2,
        0x1.cf5bca42c279dp-2, 0x1.082a56b47432bp-2, 0x1.8dfd6065040c4p-3,
        0x1.bd6d238e2867bp-2, 0x1.268f1b8cf91efp-2, 0x1.b87eb8002f2e5p-4,
        0x1.6ab35e5e969d8p-2, 0x1.19db91f3e0c85p-2, 0x1.384d195a6ca0cp-2,
        0x1.123619c170dd9p-2, 0x1.6a59cf063c1b4p-2, 0x1.ee55519add095p-2,
        0x1.94f4e283e2111p-3, 0x1.72d92cfcc5e3p-3, 0x1.adba88c04addp-2,
        0x1.80db37c680bf3p-2, 0x1.f106a5430424ep-2, 0x1.dc75ebac4f7f6p-2,
        0x1.bbcd95bd434b2p-2, 0x1.deb045a068d1dp-2, 0x1.6738245ebc875p-2,
        0x1.9b0a5eec84defp-3, 0x1.b5dd4c0a6860bp-2, 0x1.f851bd4540edp-2,
        0x1.43482d0d916b9p-2, 0x1.b159c5070c66bp-1}},
      {2, 0.02, 87, 0x1.6fbdc0c70d70bp+3,
       {0x1.8f9266d15e491p-2, 0x1.98b863d2e8708p-2, 0x1.8e1ed249045cap-3,
        0x1.803f6e10eecbcp-3, 0x1.993ca67fb459cp-2, 0x1.effc496a2462cp-3,
        0x1.efed5e602b20bp-2, 0x1.22c212023c852p-3, 0x1.8f4f629f895dap-2,
        0x1.066666dde4cp-2, 0x1.2e12ff08e70ap-2, 0x1.75dbedc688a3p-2,
        0x1.416aa908cf18ap-2, 0x1.6980a40718f85p-3, 0x1.9332787bdbe5ep-2,
        0x1.e3231e7f348bfp-3, 0x1.c5a14b0e104eep-3, 0x1.e89ea0cd8dd48p-3,
        0x1.6a53aa4d64254p-2, 0x1.6eef48e67f656p-3, 0x1.5b6d9bb33ea6dp-2,
        0x1.6d4a8f45a4496p-2, 0x1.7e4614a840bd8p-2, 0x1.176b74ac40c9cp-2,
        0x1.c296978d85f2ep-2, 0x1.61d5866f8e94ap-2, 0x1.10e86e113b701p-2,
        0x1.72a722b0c4d13p-3, 0x1.6f8a22c77eaf4p-2, 0x1.7eedbe1be1dbap-3,
        0x1.ec06cb3753c63p-2, 0x1.0050cbe338376p-2, 0x1.3a968eef18913p-2,
        0x1.534bd9bdeff7ap-3, 0x1.ffbb43e2ac311p-4, 0x1.4ff3d50e7be97p-3,
        0x1.21de56ba283c5p-2, 0x1.206c21832c8d7p-2, 0x1.59958ddbd493cp-2,
        0x1.df1956b01817cp-4, 0x1.c41a252a33055p-1}},
  };
  SimplexOptions Compat;
  Compat.Pricing = LpPricing::Dantzig;
  for (const Golden &G : Cases) {
    Model M = bench::makeTallBwpLp(G.Seed, 40, 2000, G.DenseShare);
    LpRunStats Stats;
    Solution S = solveLp(M, {}, Compat, nullptr, nullptr, &Stats);
    ASSERT_EQ(S.Status, SolveStatus::Optimal) << "seed " << G.Seed;
    EXPECT_EQ(Stats.Pivots, G.Pivots) << "seed " << G.Seed;
    EXPECT_EQ(S.Objective, G.Objective) << "seed " << G.Seed;
    ASSERT_EQ(S.Values.size(), G.Values.size());
    for (size_t V = 0; V < G.Values.size(); ++V)
      EXPECT_EQ(S.Values[V], G.Values[V]) << "seed " << G.Seed << " var " << V;
  }
}

/// Property: on random transportation-style LPs, the simplex optimum equals
/// the combinatorial bottleneck bound (which is what the analytic oracle
/// relies on).
class SimplexTransportProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SimplexTransportProperty, MatchesBottleneckBound) {
  Rng R(GetParam());
  unsigned NumPorts = 2 + static_cast<unsigned>(R.uniformInt(4));
  unsigned NumOps = 1 + static_cast<unsigned>(R.uniformInt(6));

  struct Op {
    uint32_t Mask;
    double Demand;
  };
  std::vector<Op> Ops;
  for (unsigned U = 0; U < NumOps; ++U) {
    uint32_t Mask = 0;
    while (Mask == 0)
      Mask = static_cast<uint32_t>(R.next()) & ((1u << NumPorts) - 1);
    Ops.push_back({Mask, 0.5 + R.uniformReal() * 4.0});
  }

  // LP: min t subject to routing demands; port load <= t.
  Model M;
  VarId T = M.addVar("t", 0, Infinity);
  std::vector<LinearExpr> Load(NumPorts);
  for (const Op &O : Ops) {
    LinearExpr Routed;
    for (unsigned P = 0; P < NumPorts; ++P) {
      if (!(O.Mask & (1u << P)))
        continue;
      VarId X = M.addVar("x", 0, Infinity);
      Routed.add(X, 1.0);
      Load[P].add(X, 1.0);
    }
    M.addConstraint(std::move(Routed), Sense::EQ, O.Demand);
  }
  for (unsigned P = 0; P < NumPorts; ++P) {
    LinearExpr C = Load[P];
    C.add(T, -1.0);
    M.addConstraint(std::move(C), Sense::LE, 0.0);
  }
  M.setObjective(expr({{T, 1.0}}), Goal::Minimize);
  Solution S = solveLp(M);
  ASSERT_EQ(S.Status, SolveStatus::Optimal);

  // Bottleneck bound: max over port subsets J of demand-inside / |J|.
  double Bound = 0.0;
  for (uint32_t J = 1; J < (1u << NumPorts); ++J) {
    double Inside = 0.0;
    for (const Op &O : Ops)
      if ((O.Mask & ~J) == 0)
        Inside += O.Demand;
    Bound = std::max(Bound, Inside / __builtin_popcount(J));
  }
  EXPECT_NEAR(S.Objective, Bound, 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimplexTransportProperty,
                         ::testing::Range(uint64_t{1}, uint64_t{40}));

// --------------------------------------------------------------------- MILP

TEST(Milp, SimpleKnapsack) {
  // max 10a + 6b + 4c s.t. a+b+c <= 2 (binary). Optimum a=b=1: 16.
  Model M;
  VarId A = M.addBoolVar("a");
  VarId B = M.addBoolVar("b");
  VarId C = M.addBoolVar("c");
  M.addConstraint(expr({{A, 1}, {B, 1}, {C, 1}}), Sense::LE, 2);
  M.setObjective(expr({{A, 10}, {B, 6}, {C, 4}}), Goal::Maximize);

  Solution S = solveMilp(M);
  ASSERT_EQ(S.Status, SolveStatus::Optimal);
  EXPECT_NEAR(S.Objective, 16.0, 1e-6);
  EXPECT_NEAR(S.value(A), 1.0, 1e-9);
  EXPECT_NEAR(S.value(B), 1.0, 1e-9);
  EXPECT_NEAR(S.value(C), 0.0, 1e-9);
}

TEST(Milp, IntegerRounding) {
  // max x s.t. 2x <= 7, x integer: x = 3 (LP relaxation 3.5).
  Model M;
  VarId X = M.addVar("x", 0, Infinity, /*IsInteger=*/true);
  M.addConstraint(expr({{X, 2}}), Sense::LE, 7);
  M.setObjective(expr({{X, 1}}), Goal::Maximize);

  Solution S = solveMilp(M);
  ASSERT_EQ(S.Status, SolveStatus::Optimal);
  EXPECT_NEAR(S.Objective, 3.0, 1e-9);
}

TEST(Milp, InfeasibleIntegral) {
  // 0.4 <= x <= 0.6 integral has no solution.
  Model M;
  VarId X = M.addVar("x", 0, 1, /*IsInteger=*/true);
  M.addConstraint(expr({{X, 1}}), Sense::GE, 0.4);
  M.addConstraint(expr({{X, 1}}), Sense::LE, 0.6);
  M.setObjective(expr({{X, 1}}), Goal::Maximize);
  EXPECT_EQ(solveMilp(M).Status, SolveStatus::Infeasible);
}

TEST(Milp, MixedIntegerContinuous) {
  // max 2x + y, x binary, y <= 1.5 continuous, x + y <= 2.
  Model M;
  VarId X = M.addBoolVar("x");
  VarId Y = M.addVar("y", 0, 1.5);
  M.addConstraint(expr({{X, 1}, {Y, 1}}), Sense::LE, 2);
  M.setObjective(expr({{X, 2}, {Y, 1}}), Goal::Maximize);

  Solution S = solveMilp(M);
  ASSERT_EQ(S.Status, SolveStatus::Optimal);
  EXPECT_NEAR(S.Objective, 3.0, 1e-6); // x = 1, y = 1.
}

/// Property: branch-and-bound agrees with brute force on random small 0/1
/// problems.
class MilpProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MilpProperty, MatchesBruteForce) {
  Rng R(GetParam());
  const int N = 3 + static_cast<int>(R.uniformInt(5));
  const int Rows = 2 + static_cast<int>(R.uniformInt(3));

  std::vector<double> Costs(N);
  for (double &C : Costs)
    C = std::floor(R.uniformRealIn(-5.0, 10.0));
  std::vector<std::vector<double>> A(Rows, std::vector<double>(N));
  std::vector<double> Rhs(Rows);
  for (int Row = 0; Row < Rows; ++Row) {
    for (int I = 0; I < N; ++I)
      A[Row][I] = std::floor(R.uniformRealIn(0.0, 4.0));
    Rhs[Row] = std::floor(R.uniformRealIn(1.0, 8.0));
  }

  Model M;
  std::vector<VarId> Vars;
  for (int I = 0; I < N; ++I)
    Vars.push_back(M.addBoolVar("b"));
  for (int Row = 0; Row < Rows; ++Row) {
    LinearExpr E;
    for (int I = 0; I < N; ++I)
      E.add(Vars[I], A[Row][I]);
    M.addConstraint(std::move(E), Sense::LE, Rhs[Row]);
  }
  LinearExpr Obj;
  for (int I = 0; I < N; ++I)
    Obj.add(Vars[I], Costs[I]);
  M.setObjective(std::move(Obj), Goal::Maximize);

  Solution S = solveMilp(M);
  ASSERT_TRUE(S.ok());

  double Best = -1e18;
  for (uint32_t Bits = 0; Bits < (1u << N); ++Bits) {
    bool Ok = true;
    for (int Row = 0; Row < Rows && Ok; ++Row) {
      double Sum = 0.0;
      for (int I = 0; I < N; ++I)
        if (Bits & (1u << I))
          Sum += A[Row][I];
      Ok = Sum <= Rhs[Row] + 1e-9;
    }
    if (!Ok)
      continue;
    double Value = 0.0;
    for (int I = 0; I < N; ++I)
      if (Bits & (1u << I))
        Value += Costs[I];
    Best = std::max(Best, Value);
  }
  EXPECT_NEAR(S.Objective, Best, 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MilpProperty,
                         ::testing::Range(uint64_t{1}, uint64_t{30}));

/// Property: agreement with brute force on random *general-integer*
/// problems (bounded integer ranges, mixed LE/GE/EQ rows) — exercises the
/// bounded-variable machinery and multi-level branching, with and without
/// warm-started child nodes.
class MilpGeneralIntProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MilpGeneralIntProperty, MatchesBruteForce) {
  Rng R(GetParam());
  const int N = 2 + static_cast<int>(R.uniformInt(3));
  const int Rows = 1 + static_cast<int>(R.uniformInt(3));
  const int Range = 3; // Each variable in [0, 3].

  std::vector<double> Costs(static_cast<size_t>(N));
  for (double &C : Costs)
    C = std::floor(R.uniformRealIn(-5.0, 10.0));
  std::vector<std::vector<double>> A(static_cast<size_t>(Rows),
                                     std::vector<double>(static_cast<size_t>(N)));
  std::vector<double> Rhs(static_cast<size_t>(Rows));
  std::vector<Sense> Dirs(static_cast<size_t>(Rows));
  for (int Row = 0; Row < Rows; ++Row) {
    for (int I = 0; I < N; ++I)
      A[Row][I] = std::floor(R.uniformRealIn(-2.0, 4.0));
    Dirs[Row] = R.uniformInt(5) == 0
                    ? Sense::EQ
                    : (R.uniformInt(2) ? Sense::LE : Sense::GE);
    Rhs[Row] = std::floor(R.uniformRealIn(Dirs[Row] == Sense::LE ? 2.0 : -6.0,
                                          12.0));
  }

  Model M;
  std::vector<VarId> Vars;
  for (int I = 0; I < N; ++I)
    Vars.push_back(M.addVar("n", 0, Range, /*IsInteger=*/true));
  for (int Row = 0; Row < Rows; ++Row) {
    LinearExpr E;
    for (int I = 0; I < N; ++I)
      E.add(Vars[static_cast<size_t>(I)], A[Row][I]);
    M.addConstraint(std::move(E), Dirs[Row], Rhs[Row]);
  }
  LinearExpr Obj;
  for (int I = 0; I < N; ++I)
    Obj.add(Vars[static_cast<size_t>(I)], Costs[static_cast<size_t>(I)]);
  M.setObjective(std::move(Obj), Goal::Maximize);

  // Brute force over the integer grid.
  double Best = -1e18;
  std::vector<int> X(static_cast<size_t>(N), 0);
  bool Done = false;
  while (!Done) {
    bool Ok = true;
    for (int Row = 0; Row < Rows && Ok; ++Row) {
      double Sum = 0.0;
      for (int I = 0; I < N; ++I)
        Sum += A[Row][I] * X[static_cast<size_t>(I)];
      switch (Dirs[Row]) {
      case Sense::LE:
        Ok = Sum <= Rhs[Row] + 1e-9;
        break;
      case Sense::GE:
        Ok = Sum >= Rhs[Row] - 1e-9;
        break;
      case Sense::EQ:
        Ok = std::abs(Sum - Rhs[Row]) <= 1e-9;
        break;
      }
    }
    if (Ok) {
      double Value = 0.0;
      for (int I = 0; I < N; ++I)
        Value += Costs[static_cast<size_t>(I)] * X[static_cast<size_t>(I)];
      Best = std::max(Best, Value);
    }
    int I = 0;
    for (; I < N; ++I) {
      if (++X[static_cast<size_t>(I)] <= Range)
        break;
      X[static_cast<size_t>(I)] = 0;
    }
    Done = I == N;
  }

  for (bool Warm : {true, false}) {
    MilpOptions Options;
    Options.UseWarmStart = Warm;
    MilpStats Stats;
    Solution S = solveMilp(M, Options, &Stats);
    if (Best == -1e18) {
      EXPECT_EQ(S.Status, SolveStatus::Infeasible) << "warm " << Warm;
    } else {
      ASSERT_EQ(S.Status, SolveStatus::Optimal) << "warm " << Warm;
      EXPECT_NEAR(S.Objective, Best, 1e-6) << "warm " << Warm;
      EXPECT_EQ(Stats.DroppedSubtrees, 0);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MilpGeneralIntProperty,
                         ::testing::Range(uint64_t{1}, uint64_t{40}));

TEST(Milp, WarmStartsAreUsedAndAgreeWithCold) {
  // A model with enough branching to exercise parent-basis reuse.
  Rng R(7);
  Model M;
  LinearExpr Obj;
  std::vector<LinearExpr> Caps(3);
  for (int V = 0; V < 16; ++V) {
    VarId Id = M.addBoolVar("b");
    Obj.add(Id, R.uniformRealIn(1.0, 9.0));
    for (LinearExpr &Cap : Caps)
      Cap.add(Id, R.uniformRealIn(1.0, 5.0));
  }
  for (LinearExpr &Cap : Caps)
    M.addConstraint(std::move(Cap), Sense::LE, 20.0);
  M.setObjective(std::move(Obj), Goal::Maximize);

  MilpOptions WarmOptions;
  MilpStats WarmStats;
  Solution Warm = solveMilp(M, WarmOptions, &WarmStats);

  MilpOptions ColdOptions;
  ColdOptions.UseWarmStart = false;
  MilpStats ColdStats;
  Solution Cold = solveMilp(M, ColdOptions, &ColdStats);

  ASSERT_EQ(Warm.Status, SolveStatus::Optimal);
  ASSERT_EQ(Cold.Status, SolveStatus::Optimal);
  EXPECT_NEAR(Warm.Objective, Cold.Objective, 1e-6);
  EXPECT_GT(WarmStats.WarmStartAttempts, 0);
  EXPECT_GT(WarmStats.WarmStartHits, 0);
  EXPECT_EQ(ColdStats.WarmStartAttempts, 0);
  EXPECT_GT(WarmStats.LpSolves, 0);
  EXPECT_GT(WarmStats.LpPivots, 0);
}

TEST(Milp, IterationStarvedSearchNeverReportsOptimal) {
  // Regression for the silent-pruning bug: when a child LP dies at its
  // iteration limit, the subtree's content is unknown — the search must
  // not claim Optimal (or, with no incumbent, Infeasible). Sweep the
  // iteration budget from "root cannot even solve" to "everything
  // solves" over a family of general-integer models with GE rows (whose
  // children need phase-1 work, so starving them is easy) and check the
  // status contract at every point. On the pre-fix solver several of
  // these sweeps report Optimal with a sub-optimal incumbent.
  bool SawDroppedSubtree = false;
  for (uint64_t Seed = 1; Seed <= 16; ++Seed) {
    Rng R(Seed);
    int N = 6 + static_cast<int>(R.uniformInt(8));
    int Rows = 3 + static_cast<int>(R.uniformInt(4));
    Model M;
    std::vector<VarId> V;
    for (int I = 0; I < N; ++I)
      V.push_back(M.addVar("n", 0, 3, /*IsInteger=*/true));
    for (int Row = 0; Row < Rows; ++Row) {
      LinearExpr E;
      for (int I = 0; I < N; ++I)
        E.add(V[static_cast<size_t>(I)], std::floor(R.uniformRealIn(-2.0, 4.0)));
      Sense S = R.uniformInt(3) == 0 ? Sense::GE : Sense::LE;
      M.addConstraint(std::move(E), S, std::floor(R.uniformRealIn(2.0, 14.0)));
    }
    LinearExpr Obj;
    for (int I = 0; I < N; ++I)
      Obj.add(V[static_cast<size_t>(I)], std::floor(R.uniformRealIn(-3.0, 8.0)));
    M.setObjective(std::move(Obj), Goal::Maximize);

    Solution Reference = solveMilp(M);
    if (Reference.Status != SolveStatus::Optimal)
      continue;

    for (int MaxIter = 1; MaxIter <= 40; ++MaxIter) {
      MilpOptions Options;
      Options.Lp.MaxIterations = MaxIter;
      Options.UseWarmStart = false; // Starve every child equally.
      MilpStats Stats;
      Solution S = solveMilp(M, Options, &Stats);
      if (Stats.DroppedSubtrees > 0) {
        SawDroppedSubtree = true;
        EXPECT_NE(S.Status, SolveStatus::Optimal)
            << "seed " << Seed << " MaxIter " << MaxIter;
        EXPECT_NE(S.Status, SolveStatus::Infeasible)
            << "seed " << Seed << " MaxIter " << MaxIter;
      }
      if (S.Status == SolveStatus::Optimal) {
        EXPECT_EQ(Stats.DroppedSubtrees, 0)
            << "seed " << Seed << " MaxIter " << MaxIter;
        EXPECT_FALSE(Stats.NodeLimitHit)
            << "seed " << Seed << " MaxIter " << MaxIter;
        EXPECT_NEAR(S.Objective, Reference.Objective, 1e-6)
            << "seed " << Seed << " MaxIter " << MaxIter;
      }
    }
  }
  // The sweep must actually cross the interesting regime.
  EXPECT_TRUE(SawDroppedSubtree);
}

TEST(Milp, NodeLimitYieldsFeasibleNotOptimal) {
  Rng R(13);
  Model M;
  LinearExpr Obj, Cap;
  for (int V = 0; V < 18; ++V) {
    VarId Id = M.addBoolVar("b");
    Obj.add(Id, R.uniformRealIn(1.0, 9.0));
    Cap.add(Id, R.uniformRealIn(1.0, 5.0));
  }
  M.addConstraint(std::move(Cap), Sense::LE, 25.0);
  M.setObjective(std::move(Obj), Goal::Maximize);

  MilpOptions Options;
  Options.MaxNodes = 4;
  MilpStats Stats;
  Solution S = solveMilp(M, Options, &Stats);
  EXPECT_NE(S.Status, SolveStatus::Optimal);
  if (S.ok()) {
    EXPECT_EQ(S.Status, SolveStatus::Feasible);
  }
}

// -------------------------------------------------------------------- Model

TEST(Model, NormalizeMergesTerms) {
  LinearExpr E;
  E.add(0, 1.0).add(1, 2.0).add(0, 3.0).add(1, -2.0);
  E.normalize();
  ASSERT_EQ(E.terms().size(), 1u);
  EXPECT_EQ(E.terms()[0].first, 0);
  EXPECT_DOUBLE_EQ(E.terms()[0].second, 4.0);
}

TEST(Model, ConstantFoldedIntoRhs) {
  Model M;
  VarId X = M.addVar("x", 0, 10);
  LinearExpr E;
  E.add(X, 1.0).addConstant(5.0);
  M.addConstraint(std::move(E), Sense::LE, 8.0);
  // x + 5 <= 8 -> x <= 3.
  M.setObjective(expr({{X, 1}}), Goal::Maximize);
  Solution S = solveLp(M);
  ASSERT_EQ(S.Status, SolveStatus::Optimal);
  EXPECT_NEAR(S.Objective, 3.0, 1e-7);
}

TEST(Model, HasIntegerVars) {
  Model M;
  M.addVar("x", 0, 1);
  EXPECT_FALSE(M.hasIntegerVars());
  M.addBoolVar("b");
  EXPECT_TRUE(M.hasIntegerVars());
}
