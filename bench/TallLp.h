//===- bench/TallLp.h - Seeded BWP-shaped tall LPs --------------*- C++ -*-===//
//
// Part of the PALMED reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A seeded generator of the LP shape that dominates stage 2 on large
/// profiles: the third BWP balancing pass for one resource. It has a few
/// dozen weights with finite upper bounds (one explicit LE row each in
/// compat mode), thousands of LE capacity rows (one per measured kernel), a
/// GE floor row on the primary objective (which needs an artificial), one
/// `scale * w - z <= 0` row per weight, a cap on the ceiling z, and
/// "maximize the sum of the weights". Shared by the compat-simplex golden
/// test and bench_lp_micro.
///
//===----------------------------------------------------------------------===//

#ifndef PALMED_BENCH_TALLLP_H
#define PALMED_BENCH_TALLLP_H

#include "lp/Model.h"
#include "support/Rng.h"

#include <cstddef>
#include <cstdint>
#include <vector>

namespace palmed {
namespace bench {

/// Builds the tall BWP-shaped LP for \p Seed with \p NumVars weights and
/// \p NumKernels capacity rows. A \p DenseShare fraction of the kernels
/// loads most weights, the others one to four. One kernel in twenty is
/// tight at a hidden weight vector that every kernel fits, so that vertex
/// is degenerate many times over and the simplex stalls there.
inline lp::Model makeTallBwpLp(uint64_t Seed, size_t NumVars,
                               size_t NumKernels, double DenseShare) {
  Rng R(Seed);
  lp::Model M;
  std::vector<lp::VarId> W;
  std::vector<double> Hidden;
  for (size_t V = 0; V < NumVars; ++V) {
    W.push_back(M.addVar("w", 0.0, R.uniformRealIn(0.5, 2.0)));
    Hidden.push_back(R.uniformRealIn(0.1, 0.5));
  }
  for (size_t K = 0; K < NumKernels; ++K) {
    lp::LinearExpr Load;
    double AtHidden = 0.0;
    auto Add = [&](size_t V, double Coeff) {
      Load.add(W[V], Coeff);
      AtHidden += Coeff * Hidden[V];
    };
    if (R.chance(DenseShare)) {
      for (size_t V = 0; V < NumVars; ++V)
        if (R.chance(0.8))
          Add(V, R.uniformRealIn(0.1, 1.0));
    } else {
      for (size_t I = 0, N = 1 + R.uniformInt(4); I < N; ++I) {
        // Two statements: argument evaluation order is unspecified.
        size_t V = R.uniformInt(NumVars);
        Add(V, static_cast<double>(1 + R.uniformInt(3)));
      }
    }
    double Rhs = R.chance(0.05) ? AtHidden
                                : AtHidden + R.uniformRealIn(0.5, 4.0);
    M.addConstraint(std::move(Load), lp::Sense::LE, Rhs);
  }
  lp::LinearExpr Floor;
  for (lp::VarId Id : W)
    Floor.add(Id, R.uniformRealIn(0.0, 1.0));
  M.addConstraint(std::move(Floor), lp::Sense::GE, 0.5);
  lp::VarId Z = M.addVar("z", 0.0, lp::Infinity);
  for (lp::VarId Id : W) {
    lp::LinearExpr Balance;
    Balance.add(Id, R.uniformRealIn(0.5, 2.0)).add(Z, -1.0);
    M.addConstraint(std::move(Balance), lp::Sense::LE, 0.0);
  }
  lp::LinearExpr CapZ;
  CapZ.add(Z, 1.0);
  M.addConstraint(std::move(CapZ), lp::Sense::LE, 1.5);
  lp::LinearExpr Obj;
  for (lp::VarId Id : W)
    Obj.add(Id, 1.0);
  M.setObjective(std::move(Obj), lp::Goal::Maximize);
  return M;
}

} // namespace bench
} // namespace palmed

#endif // PALMED_BENCH_TALLLP_H
