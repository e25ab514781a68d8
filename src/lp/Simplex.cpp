//===- lp/Simplex.cpp - Bounded-variable primal/dual simplex --------------===//
//
// Part of the PALMED reproduction.
//
// Implementation notes: variables are shifted by their (finite) lower bound
// so the working variables live in [0, upper-lower]. Finite upper bounds are
// handled implicitly: a nonbasic variable rests at either bound (bound flips
// move it across without a pivot), so no explicit upper-bound rows are ever
// materialized. Phase 1 minimizes the sum of artificial variables; phase 2
// the user objective. Pricing is Devex with a Bland fallback after a
// degenerate stall. Artificial columns are dead after phase 1: they are
// never priced and never swept by phase-2 eliminations.
//
// Warm starts: the column numbering is stable across solves of the same
// model (structural variables, then one slack id per row, then one
// artificial id per row), so a final basis can seed a re-solve after bound
// overrides change (branch-and-bound children; the bounded dual simplex
// restores primal feasibility) or after the objective changes (BWP pin
// iterations; the basis stays primal feasible and phase 1 is skipped).
// Whenever the warm basis does not fit, the solver silently falls back to a
// cold two-phase solve, so warm starts never change results, only work.
//
//===----------------------------------------------------------------------===//

#include "lp/Simplex.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstddef>
#include <vector>

using namespace palmed;
using namespace palmed::lp;

LpTelemetry &lp::lpTelemetry() {
  thread_local LpTelemetry Tel;
  return Tel;
}

namespace {

enum class ColStatus : uint8_t { AtLower, AtUpper, Basic };

constexpr size_t None = static_cast<size_t>(-1);

/// Dense tableau over the physical columns actually materialized:
/// [0, NumVars) structural, [NumVars, ArtStart) slacks for LE/GE rows, and
/// [ArtStart, NumCols) artificials for the rows that need one to form the
/// initial basis. Rhs holds the *actual value* of each row's basic variable
/// (nonbasic-at-upper contributions folded in), except transiently during
/// warm-basis replay where it is treated as a plain algebraic column.
class Tableau {
public:
  size_t NumRows = 0;
  size_t NumVars = 0;
  size_t ArtStart = 0; ///< Live-column sweep bound: pricing and phase
                       ///< eliminations never touch [ArtStart, NumCols).
  size_t NumCols = 0;

  std::vector<double> Data; ///< NumRows x NumCols, row-major.
  std::vector<double> Rhs;
  std::vector<double> Cost;  ///< Reduced costs of the current phase.
  double CostRhs = 0.0; ///< Compat mode only: the cost row's rhs entry
                        ///< (-objective), swept like the historical code.
  std::vector<double> Upper; ///< Shifted upper bound (Infinity if none).
  std::vector<ColStatus> Status;
  std::vector<int> Basis;     ///< Per row: physical basic column.
  std::vector<double> Weight; ///< Devex reference weights.

  std::vector<int> SlackPhysOfRow; ///< -1 when the row has no slack column.
  std::vector<int> ArtPhysOfRow;   ///< -1 when the row has no artificial.
  std::vector<int> RowOfPhys;      ///< For cols >= NumVars: owning row.

  double *row(size_t R) { return &Data[R * NumCols]; }
  const double *row(size_t R) const { return &Data[R * NumCols]; }
  double &at(size_t R, size_t C) { return Data[R * NumCols + C]; }
  double at(size_t R, size_t C) const { return Data[R * NumCols + C]; }

  int logicalOf(int Phys) const {
    if (static_cast<size_t>(Phys) < NumVars)
      return Phys;
    size_t R = static_cast<size_t>(RowOfPhys[static_cast<size_t>(Phys)]);
    bool IsArt = static_cast<size_t>(Phys) >= ArtStart;
    return static_cast<int>(NumVars + (IsArt ? NumRows : 0) + R);
  }

  /// Maps a stable logical column id back to this instance's physical
  /// column, or -1 when the column was not materialized.
  int physOf(int Logical) const {
    if (Logical < 0)
      return -1;
    size_t L = static_cast<size_t>(Logical);
    if (L < NumVars)
      return Logical;
    if (L < NumVars + NumRows)
      return SlackPhysOfRow[L - NumVars];
    if (L < NumVars + 2 * NumRows)
      return ArtPhysOfRow[L - NumVars - NumRows];
    return -1;
  }
};

/// Builds the tableau for \p M under effective bounds Lo/Hi. The initial
/// basis is the slack of every row whose (sign-normalized) slack coefficient
/// is +1, and an artificial elsewhere. With \p ExplicitBounds (compat mode)
/// every finite upper bound becomes one extra LE row, exactly like the
/// historical solver, and the implicit-bound machinery stays inert.
void buildTableau(Tableau &T, const Model &M, const std::vector<double> &Lo,
                  const std::vector<double> &Hi, bool ExplicitBounds) {
  const size_t NumVars = M.numVars();
  const size_t NumCons = M.numConstraints();
  std::vector<size_t> UbVars;
  if (ExplicitBounds)
    for (size_t V = 0; V < NumVars; ++V)
      if (std::isfinite(Hi[V]))
        UbVars.push_back(V);
  const size_t NumRows = NumCons + UbVars.size();
  T.NumRows = NumRows;
  T.NumVars = NumVars;

  thread_local std::vector<double> EffRhs, RowSign, SlackCoeff;
  thread_local std::vector<uint8_t> NeedArt;
  EffRhs.assign(NumRows, 0.0);
  RowSign.assign(NumRows, 1.0);
  SlackCoeff.assign(NumRows, 0.0);
  NeedArt.assign(NumRows, 0);

  size_t NumSlack = 0;
  for (size_t R = 0; R < NumRows; ++R) {
    double Rhs;
    Sense Dir;
    if (R < NumCons) {
      const Constraint &C = M.constraints()[R];
      double Shift = 0.0;
      for (const auto &[Var, Coeff] : C.Expr.terms())
        Shift += Coeff * Lo[static_cast<size_t>(Var)];
      Rhs = C.Rhs - Shift;
      Dir = C.Dir;
    } else {
      size_t V = UbVars[R - NumCons];
      Rhs = Hi[V] - Lo[V];
      Dir = Sense::LE;
    }
    if (Rhs < 0.0) {
      Rhs = -Rhs;
      RowSign[R] = -1.0;
    }
    EffRhs[R] = Rhs;
    if (Dir != Sense::EQ) {
      ++NumSlack;
      SlackCoeff[R] = RowSign[R] * (Dir == Sense::LE ? 1.0 : -1.0);
    }
    NeedArt[R] = SlackCoeff[R] != 1.0;
  }
  T.ArtStart = NumVars + NumSlack;

  T.SlackPhysOfRow.assign(NumRows, -1);
  T.ArtPhysOfRow.assign(NumRows, -1);
  size_t NextSlack = NumVars;
  size_t NumArt = 0;
  for (size_t R = 0; R < NumRows; ++R) {
    if (SlackCoeff[R] != 0.0)
      T.SlackPhysOfRow[R] = static_cast<int>(NextSlack++);
    if (NeedArt[R])
      T.ArtPhysOfRow[R] = static_cast<int>(T.ArtStart + NumArt++);
  }
  T.NumCols = T.ArtStart + NumArt;

  // The tableau is thread_local scratch; keep capacity for the common
  // stream of similarly-sized LPs but release it when one outsized solve
  // would otherwise pin its allocation for the thread's lifetime.
  size_t Need = NumRows * T.NumCols;
  if (T.Data.capacity() > (size_t{1} << 20) &&
      T.Data.capacity() > 8 * Need) {
    T.Data.clear();
    T.Data.shrink_to_fit();
  }
  T.Data.assign(Need, 0.0);
  T.Rhs.assign(NumRows, 0.0);
  T.Upper.assign(T.NumCols, Infinity);
  T.Status.assign(T.NumCols, ColStatus::AtLower);
  T.Basis.assign(NumRows, -1);
  T.RowOfPhys.assign(T.NumCols, -1);
  T.CostRhs = 0.0;

  if (!ExplicitBounds)
    for (size_t V = 0; V < NumVars; ++V)
      T.Upper[V] = std::isfinite(Hi[V]) ? Hi[V] - Lo[V] : Infinity;

  for (size_t R = 0; R < NumRows; ++R) {
    if (R < NumCons) {
      const Constraint &C = M.constraints()[R];
      for (const auto &[Var, Coeff] : C.Expr.terms())
        T.at(R, static_cast<size_t>(Var)) += RowSign[R] * Coeff;
    } else {
      T.at(R, UbVars[R - NumCons]) = RowSign[R];
    }
    T.Rhs[R] = EffRhs[R];
    if (T.SlackPhysOfRow[R] >= 0) {
      size_t S = static_cast<size_t>(T.SlackPhysOfRow[R]);
      T.at(R, S) = SlackCoeff[R];
      T.RowOfPhys[S] = static_cast<int>(R);
    }
    if (T.ArtPhysOfRow[R] >= 0) {
      size_t A = static_cast<size_t>(T.ArtPhysOfRow[R]);
      T.at(R, A) = 1.0;
      T.RowOfPhys[A] = static_cast<int>(R);
      T.Basis[R] = static_cast<int>(A);
      T.Status[A] = ColStatus::Basic;
    } else {
      size_t S = static_cast<size_t>(T.SlackPhysOfRow[R]);
      T.Basis[R] = static_cast<int>(S);
      T.Status[S] = ColStatus::Basic;
    }
  }
}

enum class PhaseResult { Optimal, Unbounded, IterLimit, Infeasible };

/// Column-compressed compat tableau. Palmed's compat-mode LPs are extreme
/// in one dimension: the core BWP subproblems have thousands of capacity
/// rows but only a few dozen structural variables, so a dense
/// NumRows x NumCols tableau is ~99% slack/artificial columns, and at any
/// time nearly all of them are exact unit columns: either never touched
/// since the build (one coefficient, in the owning row, until that row
/// first pivots) or basic (exactly 1.0 at the basic row, zero elsewhere,
/// and untouched by every pivot until the column leaves). Only nonbasic
/// columns that pivots have touched, at most NumCols - NumRows of them,
/// are not. This tableau stores structural columns densely (column-major,
/// one slot per column) and keeps every slack/artificial column in one of
/// the two unit states *implicit*: just its row and value. A column gets a
/// slot (is promoted) when a pivot is about to fill it, and a
/// slack/artificial column that enters the basis returns its slot to a
/// free list, so the pool holds the structural columns plus the touched
/// nonbasic ones. All bookkeeping (Cost, Status, Basis, physical column
/// numbering) matches the dense compat tableau exactly, so pivot selection
/// and pivot arithmetic are value-for-value identical; only the storage of
/// exact zeros changed (and with it, at most, the sign of a zero, which
/// nothing ever reads as a factor, ratio or value).
class CompatTableau {
public:
  static constexpr uint32_t FreeSlot = static_cast<uint32_t>(-1);

  size_t NumRows = 0;
  size_t NumVars = 0;
  size_t ArtStart = 0;
  size_t NumCols = 0;
  size_t NumSlots = 0; ///< Slots ever allocated; FreeSlots are reusable.

  std::vector<double> Cols; ///< Slot-major: slot * NumRows + row.
  std::vector<int> SlotOfPhys;       ///< Physical col -> slot, -1 implicit.
  std::vector<uint32_t> PhysOfSlot;  ///< FreeSlot for a slot on the list.
  std::vector<uint32_t> FreeSlots;
  std::vector<int> ImplRow;     ///< Implicit col: row of its one nonzero.
  std::vector<double> ImplVal;  ///< Implicit col: value at ImplRow.
  std::vector<double> Rhs;
  std::vector<double> Cost;
  double CostRhs = 0.0;
  std::vector<ColStatus> Status;
  std::vector<int> Basis; ///< Per row: physical basic column.

  std::vector<int> SlackPhysOfRow;
  std::vector<int> ArtPhysOfRow;
  std::vector<int> RowOfPhys; ///< For cols >= NumVars: owning row.

  double *col(size_t S) { return &Cols[S * NumRows]; }
  const double *col(size_t S) const { return &Cols[S * NumRows]; }
  double at(size_t R, size_t C) const {
    int S = SlotOfPhys[C];
    if (S >= 0)
      return Cols[static_cast<size_t>(S) * NumRows + R];
    return ImplRow[C] == static_cast<int>(R) ? ImplVal[C] : 0.0;
  }
  /// Materializes an implicit column into a slot (a recycled one when the
  /// free list has any). The column's only nonzero is ImplVal at ImplRow,
  /// so the slot reproduces its exact dense contents.
  size_t promote(size_t C) {
    size_t S;
    if (!FreeSlots.empty()) {
      S = FreeSlots.back();
      FreeSlots.pop_back();
      std::fill_n(col(S), NumRows, 0.0);
    } else {
      S = NumSlots++;
      Cols.resize(NumSlots * NumRows, 0.0);
      PhysOfSlot.push_back(FreeSlot);
    }
    Cols[S * NumRows + static_cast<size_t>(ImplRow[C])] = ImplVal[C];
    SlotOfPhys[C] = static_cast<int>(S);
    PhysOfSlot[S] = static_cast<uint32_t>(C);
    return S;
  }
  /// Returns the slot of slack/artificial column \p C, which has just
  /// become basic in row \p R (an exact unit column), to the free list.
  void release(size_t C, size_t R) {
    size_t S = static_cast<size_t>(SlotOfPhys[C]);
    PhysOfSlot[S] = FreeSlot;
    FreeSlots.push_back(static_cast<uint32_t>(S));
    SlotOfPhys[C] = -1;
    ImplRow[C] = static_cast<int>(R);
    ImplVal[C] = 1.0;
  }

  int logicalOf(int Phys) const {
    if (static_cast<size_t>(Phys) < NumVars)
      return Phys;
    size_t R = static_cast<size_t>(RowOfPhys[static_cast<size_t>(Phys)]);
    bool IsArt = static_cast<size_t>(Phys) >= ArtStart;
    return static_cast<int>(NumVars + (IsArt ? NumRows : 0) + R);
  }
};

/// Compat-mode tableau build: identical row normalization, physical column
/// assignment, and initial basis as the dense ExplicitBounds build (every
/// finite upper bound becomes one extra LE row).
void buildCompat(CompatTableau &T, const Model &M,
                 const std::vector<double> &Lo, const std::vector<double> &Hi) {
  const size_t NumVars = M.numVars();
  const size_t NumCons = M.numConstraints();
  thread_local std::vector<size_t> UbVars;
  UbVars.clear();
  for (size_t V = 0; V < NumVars; ++V)
    if (std::isfinite(Hi[V]))
      UbVars.push_back(V);
  const size_t NumRows = NumCons + UbVars.size();
  T.NumRows = NumRows;
  T.NumVars = NumVars;

  thread_local std::vector<double> EffRhs, RowSign, SlackCoeff;
  thread_local std::vector<uint8_t> NeedArt;
  EffRhs.assign(NumRows, 0.0);
  RowSign.assign(NumRows, 1.0);
  SlackCoeff.assign(NumRows, 0.0);
  NeedArt.assign(NumRows, 0);

  size_t NumSlack = 0;
  for (size_t R = 0; R < NumRows; ++R) {
    double Rhs;
    Sense Dir;
    if (R < NumCons) {
      const Constraint &C = M.constraints()[R];
      double Shift = 0.0;
      for (const auto &[Var, Coeff] : C.Expr.terms())
        Shift += Coeff * Lo[static_cast<size_t>(Var)];
      Rhs = C.Rhs - Shift;
      Dir = C.Dir;
    } else {
      size_t V = UbVars[R - NumCons];
      Rhs = Hi[V] - Lo[V];
      Dir = Sense::LE;
    }
    if (Rhs < 0.0) {
      Rhs = -Rhs;
      RowSign[R] = -1.0;
    }
    EffRhs[R] = Rhs;
    if (Dir != Sense::EQ) {
      ++NumSlack;
      SlackCoeff[R] = RowSign[R] * (Dir == Sense::LE ? 1.0 : -1.0);
    }
    NeedArt[R] = SlackCoeff[R] != 1.0;
  }
  T.ArtStart = NumVars + NumSlack;

  T.SlackPhysOfRow.assign(NumRows, -1);
  T.ArtPhysOfRow.assign(NumRows, -1);
  size_t NextSlack = NumVars;
  size_t NumArt = 0;
  for (size_t R = 0; R < NumRows; ++R) {
    if (SlackCoeff[R] != 0.0)
      T.SlackPhysOfRow[R] = static_cast<int>(NextSlack++);
    if (NeedArt[R])
      T.ArtPhysOfRow[R] = static_cast<int>(T.ArtStart + NumArt++);
  }
  T.NumCols = T.ArtStart + NumArt;

  // Structural columns are always materialized; slack/artificial columns
  // start implicit. The slot pool is thread_local scratch like the dense
  // tableau's Data; trim it when one outsized solve would otherwise pin the
  // allocation.
  size_t Need = NumRows * (NumVars + 64);
  if (T.Cols.capacity() > (size_t{1} << 20) && T.Cols.capacity() > 8 * Need) {
    T.Cols.clear();
    T.Cols.shrink_to_fit();
  }
  T.Cols.assign(NumRows * NumVars, 0.0);
  T.NumSlots = NumVars;
  T.SlotOfPhys.assign(T.NumCols, -1);
  T.PhysOfSlot.resize(NumVars);
  for (size_t V = 0; V < NumVars; ++V) {
    T.SlotOfPhys[V] = static_cast<int>(V);
    T.PhysOfSlot[V] = static_cast<uint32_t>(V);
  }
  T.FreeSlots.clear();
  T.ImplRow.assign(T.NumCols, -1);
  T.ImplVal.assign(T.NumCols, 0.0);
  T.Rhs.assign(NumRows, 0.0);
  T.Status.assign(T.NumCols, ColStatus::AtLower);
  T.Basis.assign(NumRows, -1);
  T.RowOfPhys.assign(T.NumCols, -1);
  T.CostRhs = 0.0;

  for (size_t R = 0; R < NumRows; ++R) {
    if (R < NumCons) {
      const Constraint &C = M.constraints()[R];
      for (const auto &[Var, Coeff] : C.Expr.terms())
        T.Cols[static_cast<size_t>(Var) * NumRows + R] += RowSign[R] * Coeff;
    } else {
      T.Cols[UbVars[R - NumCons] * NumRows + R] = RowSign[R];
    }
    T.Rhs[R] = EffRhs[R];
    if (T.SlackPhysOfRow[R] >= 0) {
      size_t S = static_cast<size_t>(T.SlackPhysOfRow[R]);
      T.ImplVal[S] = SlackCoeff[R];
      T.ImplRow[S] = T.RowOfPhys[S] = static_cast<int>(R);
    }
    if (T.ArtPhysOfRow[R] >= 0) {
      size_t A = static_cast<size_t>(T.ArtPhysOfRow[R]);
      T.ImplVal[A] = 1.0;
      T.ImplRow[A] = T.RowOfPhys[A] = static_cast<int>(R);
      T.Basis[R] = static_cast<int>(A);
      T.Status[A] = ColStatus::Basic;
    } else {
      size_t S = static_cast<size_t>(T.SlackPhysOfRow[R]);
      T.Basis[R] = static_cast<int>(S);
      T.Status[S] = ColStatus::Basic;
    }
  }
}

/// Compat-mode pivot: the historical arithmetic, with Rhs (and the cost
/// row's rhs) swept as plain algebraic columns — the pivot row is scaled by
/// the reciprocal, other rows subtract Factor times the scaled row. Only
/// columns below \p SweepEnd are touched; phase 2 passes ArtStart, which
/// skips the dead artificial columns without changing any value ever read.
///
/// The implicit columns with a nonzero in the pivot row are the entering
/// column, the leaving (basic) column, and the row's own untouched
/// slack/artificial; they are promoted first so the sweep sees real
/// storage. Every other basic column is zero in the pivot row, so the row
/// scan skips those slots unread. Loop order is columns-outer over the
/// pivot row's nonzeros, and each affected entry still receives the single
/// identical `a -= f * p` update. When at least DenseSweepPct percent of
/// the rows have a nonzero factor, each column is swept contiguously
/// against a dense factor vector instead of scattered over the nonzero
/// rows; a zero-factor row then receives `a -= 0 * p`, which for finite p
/// can change only the sign of a zero `a`, and the sweep falls back to the
/// scatter when some p is not finite. A slack/artificial entering column
/// ends as an exact unit column and returns its slot to the free list.
void compatPivot(CompatTableau &T, size_t PR, size_t Q, size_t SweepEnd) {
  // Sweeping 60 columns of 4 758 rows (huge's largest LP), the scatter and
  // the dense loop cost the same near 30 % density (x86-64, SSE2, -O3); the
  // dense loop's time is flat in the density, the scatter's grows with it.
  constexpr size_t DenseSweepPct = 30;
  const size_t M = T.NumRows;
  const size_t L = static_cast<size_t>(T.Basis[PR]);
  auto PromoteIfInPivotRow = [&](size_t C) {
    if (C < SweepEnd && T.SlotOfPhys[C] < 0 &&
        T.ImplRow[C] == static_cast<int>(PR))
      T.promote(C);
  };
  PromoteIfInPivotRow(Q);
  PromoteIfInPivotRow(L);
  if (int SP = T.SlackPhysOfRow[PR]; SP >= 0)
    PromoteIfInPivotRow(static_cast<size_t>(SP));
  if (int AP = T.ArtPhysOfRow[PR]; AP >= 0)
    PromoteIfInPivotRow(static_cast<size_t>(AP));
  assert(T.SlotOfPhys[Q] >= 0 && "entering column is nonzero in its row");

  const size_t SQ = static_cast<size_t>(T.SlotOfPhys[Q]);
  double Inv = 1.0 / T.Cols[SQ * M + PR];
  // Scale the pivot row's nonzeros. Any nonzero below SweepEnd lives in a
  // slot: implicit columns are nonzero only in their own row, and the pivot
  // row's were just promoted. Free slots carry FreeSlot >= SweepEnd.
  thread_local std::vector<uint32_t> NzSlots;
  NzSlots.clear();
  bool AllFinite = true;
  for (size_t S = 0; S < T.NumSlots; ++S) {
    uint32_t C = T.PhysOfSlot[S];
    if (C >= SweepEnd || (T.Status[C] == ColStatus::Basic && C != L))
      continue;
    double &V = T.Cols[S * M + PR];
    if (V != 0.0) {
      V *= Inv;
      AllFinite &= std::isfinite(V);
      if (S != SQ)
        NzSlots.push_back(static_cast<uint32_t>(S));
    }
  }
  T.Cols[SQ * M + PR] = 1.0;
  T.Rhs[PR] *= Inv;

  // Gather the rows with a nonzero entering-column factor, then eliminate
  // column-by-column (entering column becomes exactly the unit column).
  thread_local std::vector<uint32_t> NzRows;
  thread_local std::vector<double> Factors;
  NzRows.clear();
  Factors.clear();
  double *CQ = T.col(SQ);
  for (size_t R = 0; R < M; ++R) {
    if (R == PR)
      continue;
    double Factor = CQ[R];
    if (Factor == 0.0)
      continue;
    NzRows.push_back(static_cast<uint32_t>(R));
    Factors.push_back(Factor);
    CQ[R] = 0.0;
  }
  if (AllFinite && 100 * NzRows.size() >= DenseSweepPct * M) {
    thread_local std::vector<double> DenseFactors;
    DenseFactors.assign(M, 0.0);
    for (size_t I = 0; I < NzRows.size(); ++I)
      DenseFactors[NzRows[I]] = Factors[I];
    const double *F = DenseFactors.data();
    for (uint32_t S : NzSlots) {
      const double P = T.Cols[static_cast<size_t>(S) * M + PR];
      double *CD = T.col(S);
      for (size_t R = 0; R < M; ++R)
        CD[R] -= F[R] * P;
    }
  } else {
    for (uint32_t S : NzSlots) {
      double P = T.Cols[static_cast<size_t>(S) * M + PR];
      double *CD = T.col(S);
      for (size_t I = 0; I < NzRows.size(); ++I)
        CD[NzRows[I]] -= Factors[I] * P;
    }
  }
  for (size_t I = 0; I < NzRows.size(); ++I)
    T.Rhs[NzRows[I]] -= Factors[I] * T.Rhs[PR];

  double Factor = T.Cost[Q];
  if (Factor != 0.0) {
    for (uint32_t S : NzSlots)
      T.Cost[T.PhysOfSlot[S]] -= Factor * T.Cols[static_cast<size_t>(S) * M + PR];
    T.CostRhs -= Factor * T.Rhs[PR];
    T.Cost[Q] = 0.0;
  }
  T.Status[L] = ColStatus::AtLower;
  T.Basis[PR] = static_cast<int>(Q);
  T.Status[Q] = ColStatus::Basic;
  if (Q >= T.NumVars)
    T.release(Q, PR);

#ifndef NDEBUG
  // Basic slack/artificial columns are implicit, so the pool never holds
  // more than the structural columns plus the nonbasic ones.
  for (size_t C = T.NumVars; C < T.NumCols; ++C)
    assert(T.Status[C] != ColStatus::Basic || T.SlotOfPhys[C] < 0);
  assert(T.NumSlots - T.FreeSlots.size() <=
         T.NumVars + (T.NumCols - T.NumRows) + 1);
#endif
}

/// Compat-mode phase runner: Dantzig pricing with the historical stall
/// detection and ratio-test tie-breaks, reproducing the seed solver's pivot
/// sequence value-for-value. \p PriceEnd bounds the entering-column scan
/// (phase 1 may re-enter artificials, phase 2 may not); \p SweepEnd bounds
/// the elimination sweep.
PhaseResult runCompat(CompatTableau &T, const SimplexOptions &Options,
                      LpRunStats &RS, size_t PriceEnd, size_t SweepEnd) {
  const double Tol = Options.Tolerance;
  LpTelemetry &Tel = lpTelemetry();
  int StallCount = 0;
  bool UseBland = false;
  double LastObjective = -T.CostRhs;

  for (int Iter = 0; Iter < Options.MaxIterations; ++Iter) {
    size_t Entering = None;
    double BestCost = -Tol;
    for (size_t C = 0; C < PriceEnd; ++C) {
      if (T.Status[C] == ColStatus::Basic)
        continue;
      double RC = T.Cost[C];
      if (RC < BestCost) {
        BestCost = RC;
        Entering = C;
        if (UseBland)
          break;
      }
    }
    if (Entering == None)
      return PhaseResult::Optimal;

    size_t Leaving = None;
    double BestRatio = 0.0;
    int SE = T.SlotOfPhys[Entering];
    if (SE >= 0) {
      const double *CE = T.col(static_cast<size_t>(SE));
      for (size_t R = 0; R < T.NumRows; ++R) {
        double A = CE[R];
        if (A <= Tol)
          continue;
        double Ratio = T.Rhs[R] / A;
        if (Leaving == None || Ratio < BestRatio - Tol ||
            (Ratio < BestRatio + Tol && T.Basis[R] < T.Basis[Leaving])) {
          BestRatio = Ratio;
          Leaving = R;
        }
      }
    } else {
      // Implicit column: its only nonzero is ImplVal in ImplRow, so the
      // dense row scan reduces to at most one candidate.
      int R0 = T.ImplRow[Entering];
      if (R0 >= 0 && T.ImplVal[Entering] > Tol) {
        BestRatio = T.Rhs[static_cast<size_t>(R0)] / T.ImplVal[Entering];
        Leaving = static_cast<size_t>(R0);
      }
    }
    if (Leaving == None)
      return PhaseResult::Unbounded;

    compatPivot(T, Leaving, Entering, SweepEnd);
    ++RS.Pivots;
    ++Tel.Pivots;

    double Objective = -T.CostRhs;
    if (Objective < LastObjective - Tol) {
      LastObjective = Objective;
      StallCount = 0;
    } else if (++StallCount > 200) {
      UseBland = true;
    }
  }
  return PhaseResult::IterLimit;
}

/// Full compat-mode solve: the historical two-phase dense solver,
/// value-for-value, over the column-compressed tableau. Warm starts are
/// ignored in this mode (see LpPricing::Dantzig); the cost of a cold solve
/// is what the compression attacks.
Solution solveCompatLp(const Model &M, const std::vector<double> &Lo,
                       const std::vector<double> &Hi,
                       const SimplexOptions &Options, LpRunStats &RS,
                       SimplexBasis *FinalBasis) {
  const double Tol = Options.Tolerance;
  const size_t NumVars = M.numVars();
  LpTelemetry &Tel = lpTelemetry();
  Solution Result;

  thread_local CompatTableau T;
  buildCompat(T, M, Lo, Hi);
  const size_t NumRows = T.NumRows;

  if (T.NumCols > T.ArtStart) {
    // Phase 1 over all columns (artificials are priced and swept like the
    // historical code until they are retired). The initial cost row is
    // accumulated from each artificial-basic row's nonzeros: structural
    // entries live in slots, and the row's own slack/artificial diagonals
    // are still implicit (no other implicit column has its row here), so
    // skipping the zeros reproduces the dense subtraction value-for-value.
    T.Cost.assign(T.NumCols, 0.0);
    for (size_t C = T.ArtStart; C < T.NumCols; ++C)
      T.Cost[C] = 1.0;
    T.CostRhs = 0.0;
    for (size_t R = 0; R < NumRows; ++R) {
      if (static_cast<size_t>(T.Basis[R]) < T.ArtStart)
        continue;
      for (size_t S = 0; S < T.NumSlots; ++S) {
        double V = T.Cols[S * NumRows + R];
        if (V != 0.0)
          T.Cost[T.PhysOfSlot[S]] -= V;
      }
      for (int C : {T.SlackPhysOfRow[R], T.ArtPhysOfRow[R]})
        if (C >= 0 && T.SlotOfPhys[C] < 0 &&
            T.ImplRow[C] == static_cast<int>(R))
          T.Cost[static_cast<size_t>(C)] -= T.ImplVal[static_cast<size_t>(C)];
      T.CostRhs -= T.Rhs[R];
    }
    PhaseResult P1 = runCompat(T, Options, RS, /*PriceEnd=*/T.NumCols,
                               /*SweepEnd=*/T.NumCols);
    if (P1 == PhaseResult::IterLimit) {
      Result.Status = SolveStatus::IterLimit;
      return Result;
    }
    if (-T.CostRhs > 1e-7) {
      Result.Status = SolveStatus::Infeasible;
      return Result;
    }
    // Drive residual basic artificials out where possible; redundant rows
    // keep theirs basic at zero.
    for (size_t R = 0; R < NumRows; ++R) {
      if (static_cast<size_t>(T.Basis[R]) < T.ArtStart)
        continue;
      size_t PivotCol = None;
      for (size_t C = 0; C < T.ArtStart; ++C) {
        if (std::abs(T.at(R, C)) > Tol) {
          PivotCol = C;
          break;
        }
      }
      if (PivotCol != None) {
        compatPivot(T, R, PivotCol, T.ArtStart);
        ++RS.Pivots;
        ++Tel.Pivots;
      }
    }
  }

  // Phase 2: dead artificial columns are no longer priced or swept (the
  // values they would have received are never read). A row whose basic
  // column carries cost has pivoted, so its slack already lives in a slot
  // or is basic in another row; the implicit term, charged only while the
  // slack's implicit row is this row, is kept for form's sake.
  {
    T.Cost.assign(T.NumCols, 0.0);
    double ObjSign = M.goal() == Goal::Minimize ? 1.0 : -1.0;
    LinearExpr Obj = M.objective();
    Obj.normalize();
    for (const auto &[Var, Coeff] : Obj.terms())
      T.Cost[static_cast<size_t>(Var)] = ObjSign * Coeff;
    thread_local std::vector<double> Costs;
    Costs = T.Cost;
    T.CostRhs = 0.0;
    for (size_t R = 0; R < NumRows; ++R) {
      size_t B = static_cast<size_t>(T.Basis[R]);
      double CB = Costs[B];
      if (CB == 0.0)
        continue;
      for (size_t S = 0; S < T.NumSlots; ++S) {
        if (T.PhysOfSlot[S] >= T.ArtStart)
          continue;
        double V = T.Cols[S * NumRows + R];
        if (V != 0.0)
          T.Cost[T.PhysOfSlot[S]] -= CB * V;
      }
      int SP = T.SlackPhysOfRow[R];
      if (SP >= 0 && T.SlotOfPhys[SP] < 0 &&
          T.ImplRow[SP] == static_cast<int>(R))
        T.Cost[static_cast<size_t>(SP)] -=
            CB * T.ImplVal[static_cast<size_t>(SP)];
      T.CostRhs -= CB * T.Rhs[R];
    }
  }
  PhaseResult PR = runCompat(T, Options, RS, /*PriceEnd=*/T.ArtStart,
                             /*SweepEnd=*/T.ArtStart);

  if (PR == PhaseResult::IterLimit) {
    Result.Status = SolveStatus::IterLimit;
    return Result;
  }
  if (PR == PhaseResult::Unbounded) {
    Result.Status = SolveStatus::Unbounded;
    return Result;
  }

  // Extract the solution (shift lower bounds back in). Compat mode has no
  // nonbasic-at-upper statuses (bounds are explicit rows).
  Result.Values.assign(NumVars, 0.0);
  for (size_t R = 0; R < NumRows; ++R) {
    int B = T.Basis[R];
    if (B >= 0 && static_cast<size_t>(B) < NumVars)
      Result.Values[static_cast<size_t>(B)] = T.Rhs[R];
  }
  for (size_t V = 0; V < NumVars; ++V) {
    Result.Values[V] += Lo[V];
    Result.Values[V] = std::max(Result.Values[V], Lo[V]);
    if (std::isfinite(Hi[V]))
      Result.Values[V] = std::min(Result.Values[V], Hi[V]);
  }
  Result.Objective = M.objective().evaluate(Result.Values);
  Result.Status = SolveStatus::Optimal;

  if (FinalBasis) {
    FinalBasis->BasicCols.resize(NumRows);
    for (size_t R = 0; R < NumRows; ++R)
      FinalBasis->BasicCols[R] = T.logicalOf(T.Basis[R]);
    FinalBasis->AtUpper.assign(NumVars, 0);
  }
  return Result;
}

/// Executes the basis change for entering column \p Q moving by step \p T0
/// in direction \p Dir (+1 from lower, -1 from upper), pivoting in row
/// \p PR; the leaving variable becomes nonbasic at \p LeaveAt. Rhs keeps
/// actual-value semantics throughout.
void applyPivot(Tableau &T, size_t PR, size_t Q, int Dir, double T0,
                ColStatus LeaveAt) {
  for (size_t R = 0; R < T.NumRows; ++R) {
    if (R == PR)
      continue;
    double A = T.at(R, Q);
    if (A != 0.0)
      T.Rhs[R] -= Dir * A * T0;
  }
  double NewVal = Dir > 0 ? T0 : T.Upper[Q] - T0;

  int Leaving = T.Basis[PR];
  T.Status[static_cast<size_t>(Leaving)] = LeaveAt;

  double *PRow = T.row(PR);
  double Inv = 1.0 / PRow[Q];
  for (size_t C = 0; C < T.ArtStart; ++C)
    PRow[C] *= Inv;
  PRow[Q] = 1.0;
  for (size_t R = 0; R < T.NumRows; ++R) {
    if (R == PR)
      continue;
    double *Other = T.row(R);
    double Factor = Other[Q];
    if (Factor == 0.0)
      continue;
    for (size_t C = 0; C < T.ArtStart; ++C)
      Other[C] -= Factor * PRow[C];
    Other[Q] = 0.0;
  }
  double Factor = T.Cost[Q];
  if (Factor != 0.0) {
    for (size_t C = 0; C < T.ArtStart; ++C)
      T.Cost[C] -= Factor * PRow[C];
    T.Cost[Q] = 0.0;
  }
  T.Basis[PR] = static_cast<int>(Q);
  T.Status[Q] = ColStatus::Basic;
  T.Rhs[PR] = NewVal;
}

/// Devex reference-weight update; must run on the pre-elimination pivot row.
void devexUpdate(Tableau &T, size_t PR, size_t Q) {
  const double *PRow = T.row(PR);
  double AQ = PRow[Q];
  double WQ = T.Weight[Q] / (AQ * AQ);
  for (size_t C = 0; C < T.ArtStart; ++C) {
    if (C == Q || T.Status[C] == ColStatus::Basic)
      continue;
    double A = PRow[C];
    if (A == 0.0)
      continue;
    double Cand = A * A * WQ;
    if (Cand > T.Weight[C])
      T.Weight[C] = Cand;
  }
  T.Weight[static_cast<size_t>(T.Basis[PR])] = std::max(WQ, 1.0);
  // Reset the reference framework when weights explode.
  if (WQ > 1e10)
    std::fill(T.Weight.begin(), T.Weight.end(), 1.0);
}

/// Bounded-variable primal simplex on the current cost row.
PhaseResult runPrimal(Tableau &T, const SimplexOptions &Options,
                      LpRunStats &RS) {
  const double Tol = Options.Tolerance;
  LpTelemetry &Tel = lpTelemetry();
  T.Weight.assign(T.NumCols, 1.0);
  int Stall = 0;
  bool UseBland = false;

  for (int Iter = 0; Iter < Options.MaxIterations; ++Iter) {
    // --- Pricing: Devex score d^2/w, or first eligible under Bland. ---
    size_t Entering = None;
    int Dir = 0;
    double BestScore = 0.0;
    for (size_t C = 0; C < T.ArtStart; ++C) {
      ColStatus St = T.Status[C];
      if (St == ColStatus::Basic || T.Upper[C] == 0.0)
        continue;
      double RC = T.Cost[C];
      int D;
      if (St == ColStatus::AtLower) {
        if (RC >= -Tol)
          continue;
        D = 1;
      } else {
        if (RC <= Tol)
          continue;
        D = -1;
      }
      if (UseBland) {
        Entering = C;
        Dir = D;
        break;
      }
      double Score = RC * RC / T.Weight[C];
      if (Score > BestScore) {
        BestScore = Score;
        Entering = C;
        Dir = D;
      }
    }
    if (Entering == None)
      return PhaseResult::Optimal;

    // --- Ratio test over the basic rows. ---
    double RowT = Infinity;
    size_t PivotRow = None;
    double PivotAbs = 0.0;
    ColStatus LeaveAt = ColStatus::AtLower;
    for (size_t R = 0; R < T.NumRows; ++R) {
      double A = T.at(R, Entering);
      double S = Dir > 0 ? A : -A;
      double Lim;
      ColStatus LA;
      if (S > Tol) {
        Lim = T.Rhs[R] > 0.0 ? T.Rhs[R] / S : 0.0;
        LA = ColStatus::AtLower;
      } else if (S < -Tol) {
        double U = T.Upper[static_cast<size_t>(T.Basis[R])];
        if (U == Infinity)
          continue;
        double Room = U - T.Rhs[R];
        Lim = Room > 0.0 ? Room / (-S) : 0.0;
        LA = ColStatus::AtUpper;
      } else {
        continue;
      }
      bool Take;
      if (PivotRow == None || Lim < RowT - Tol)
        Take = true;
      else if (Lim < RowT + Tol)
        Take = UseBland ? T.Basis[R] < T.Basis[PivotRow]
                        : std::abs(A) > PivotAbs;
      else
        Take = false;
      if (Take) {
        RowT = Lim;
        PivotRow = R;
        PivotAbs = std::abs(A);
        LeaveAt = LA;
      }
    }

    double FlipT = T.Upper[Entering];
    if (PivotRow == None && FlipT == Infinity)
      return PhaseResult::Unbounded;

    if (FlipT <= RowT) {
      // Bound flip: the entering variable crosses to its other bound
      // without any basis change.
      for (size_t R = 0; R < T.NumRows; ++R) {
        double A = T.at(R, Entering);
        if (A != 0.0)
          T.Rhs[R] -= Dir * A * FlipT;
      }
      T.Status[Entering] = Dir > 0 ? ColStatus::AtUpper : ColStatus::AtLower;
      ++RS.BoundFlips;
      ++Tel.BoundFlips;
      if (FlipT > Tol)
        Stall = 0;
      else if (++Stall > 200)
        UseBland = true;
      continue;
    }

    double Step = RowT > 0.0 ? RowT : 0.0;
    devexUpdate(T, PivotRow, Entering);
    applyPivot(T, PivotRow, Entering, Dir, Step, LeaveAt);
    ++RS.Pivots;
    ++Tel.Pivots;
    if (Step > Tol)
      Stall = 0;
    else if (++Stall > 200)
      UseBland = true;
  }
  return PhaseResult::IterLimit;
}

/// Bounded-variable dual simplex: starting from a dual-feasible basis,
/// drives out primal bound violations (used to re-solve after branching
/// tightens a bound). Terminating primal-feasible certifies optimality up
/// to the primal polish that follows; "no entering column" certifies
/// infeasibility.
PhaseResult runDual(Tableau &T, const SimplexOptions &Options, int MaxPivots,
                    LpRunStats &RS) {
  const double Tol = Options.Tolerance;
  const double FeasTol = 1e-7;
  LpTelemetry &Tel = lpTelemetry();
  bool UseBland = false;

  for (int Iter = 0; Iter < MaxPivots; ++Iter) {
    // Leaving row: most violated basic bound.
    size_t PR = None;
    double BestViol = FeasTol;
    bool AboveUpper = false;
    for (size_t R = 0; R < T.NumRows; ++R) {
      double V = T.Rhs[R];
      if (-V > BestViol) {
        BestViol = -V;
        PR = R;
        AboveUpper = false;
      }
      double U = T.Upper[static_cast<size_t>(T.Basis[R])];
      if (U != Infinity && V - U > BestViol) {
        BestViol = V - U;
        PR = R;
        AboveUpper = true;
      }
    }
    if (PR == None)
      return PhaseResult::Optimal;

    // Entering: bound-flipping dual ratio test. Collect the columns that
    // can absorb the violation, walk their breakpoints in increasing
    // dual-ratio |d|/|a| order, and flip across any candidate whose own
    // upper bound is exhausted before the violation is (its reduced cost
    // crosses zero at its breakpoint, so the eventual pivot — whose ratio
    // is no smaller — leaves it dual feasible at the flipped bound). The
    // first candidate that can absorb the remainder becomes basic; without
    // the flips, a bounded entering column would overshoot its bound and
    // the restore would grind through one violation per pivot on exactly
    // the all-variables-bounded models warm starts target.
    const double *PRow = T.row(PR);
    struct Candidate {
      uint32_t Col;
      double Ratio;
      double Abs;
    };
    thread_local std::vector<Candidate> Candidates;
    Candidates.clear();
    for (size_t C = 0; C < T.ArtStart; ++C) {
      ColStatus St = T.Status[C];
      if (St == ColStatus::Basic || T.Upper[C] == 0.0)
        continue;
      double A = PRow[C];
      bool Ok = AboveUpper ? (St == ColStatus::AtLower && A > Tol) ||
                                 (St == ColStatus::AtUpper && A < -Tol)
                           : (St == ColStatus::AtLower && A < -Tol) ||
                                 (St == ColStatus::AtUpper && A > Tol);
      if (!Ok)
        continue;
      double AbsA = std::abs(A);
      Candidates.push_back(
          {static_cast<uint32_t>(C), std::abs(T.Cost[C]) / AbsA, AbsA});
    }
    if (Candidates.empty())
      return PhaseResult::Infeasible;
    std::sort(Candidates.begin(), Candidates.end(),
              [UseBland](const Candidate &A, const Candidate &B) {
                if (A.Ratio != B.Ratio)
                  return A.Ratio < B.Ratio;
                if (!UseBland && A.Abs != B.Abs)
                  return A.Abs > B.Abs;
                return A.Col < B.Col;
              });

    double Remaining = BestViol;
    bool Pivoted = false;
    for (const Candidate &Cand : Candidates) {
      size_t C = Cand.Col;
      int Dir = T.Status[C] == ColStatus::AtLower ? 1 : -1;
      double U = T.Upper[C];
      double StepFull = Remaining > 0.0 ? Remaining / Cand.Abs : 0.0;
      if (U == Infinity || StepFull <= U) {
        applyPivot(T, PR, C, Dir, StepFull,
                   AboveUpper ? ColStatus::AtUpper : ColStatus::AtLower);
        ++RS.Pivots;
        ++RS.DualPivots;
        ++Tel.Pivots;
        ++Tel.DualPivots;
        Pivoted = true;
        break;
      }
      // Flip: absorbs |a| * U of the violation without a basis change.
      for (size_t R = 0; R < T.NumRows; ++R) {
        double A = T.at(R, C);
        if (A != 0.0)
          T.Rhs[R] -= Dir * A * U;
      }
      T.Status[C] = Dir > 0 ? ColStatus::AtUpper : ColStatus::AtLower;
      ++RS.BoundFlips;
      ++Tel.BoundFlips;
      Remaining -= Cand.Abs * U;
    }
    if (!Pivoted)
      return PhaseResult::Infeasible; // Even all bounds flipped cannot
                                      // close the violation.
    if (Iter > 500)
      UseBland = true;
  }
  return PhaseResult::IterLimit;
}

/// Reduced costs of \p Costs under the current basis (artificial columns
/// keep cost zero and are never priced).
void computeReducedCosts(Tableau &T, const std::vector<double> &Costs) {
  T.Cost = Costs;
  for (size_t R = 0; R < T.NumRows; ++R) {
    size_t B = static_cast<size_t>(T.Basis[R]);
    double CB = B < Costs.size() ? Costs[B] : 0.0;
    if (CB == 0.0)
      continue;
    const double *Row = T.row(R);
    for (size_t C = 0; C < T.ArtStart; ++C)
      T.Cost[C] -= CB * Row[C];
  }
  // Basic columns are unit columns, so their entries are exactly zero now;
  // enforce it against accumulated noise.
  for (size_t R = 0; R < T.NumRows; ++R) {
    size_t B = static_cast<size_t>(T.Basis[R]);
    if (B < T.ArtStart)
      T.Cost[B] = 0.0;
  }
}

/// Plain algebraic pivot used only while replaying a warm basis: Rhs is
/// treated as one more column (B^-1 b semantics; actual-value semantics are
/// restored afterwards by folding in the nonbasic-at-upper contributions).
void replayPivot(Tableau &T, size_t PR, size_t P, size_t SweepEnd) {
  double *PRow = T.row(PR);
  double Inv = 1.0 / PRow[P];
  for (size_t C = 0; C < SweepEnd; ++C)
    PRow[C] *= Inv;
  PRow[P] = 1.0;
  T.Rhs[PR] *= Inv;
  for (size_t R = 0; R < T.NumRows; ++R) {
    if (R == PR)
      continue;
    double *Other = T.row(R);
    double Factor = Other[P];
    if (Factor == 0.0)
      continue;
    for (size_t C = 0; C < SweepEnd; ++C)
      Other[C] -= Factor * PRow[C];
    Other[P] = 0.0;
    T.Rhs[R] -= Factor * T.Rhs[PR];
  }
  T.Status[static_cast<size_t>(T.Basis[PR])] = ColStatus::AtLower;
  T.Basis[PR] = static_cast<int>(P);
  T.Status[P] = ColStatus::Basic;
}

/// Installs \p W into a freshly built tableau: maps logical ids, realizes
/// the basis by Gaussian elimination with partial pivoting, restores
/// nonbasic-at-upper statuses, and recomputes actual basic values. Returns
/// false (tableau unusable) when the basis does not fit this instance.
bool replayBasis(Tableau &T, const SimplexBasis &W) {
  if (W.BasicCols.size() != T.NumRows ||
      W.AtUpper.size() != T.NumVars)
    return false;

  std::vector<int> Phys(T.NumRows);
  std::vector<uint8_t> Seen(T.NumCols, 0);
  bool NeedArts = false;
  for (size_t R = 0; R < T.NumRows; ++R) {
    int P = T.physOf(W.BasicCols[R]);
    if (P < 0 || Seen[static_cast<size_t>(P)])
      return false;
    Seen[static_cast<size_t>(P)] = 1;
    Phys[R] = P;
    NeedArts |= static_cast<size_t>(P) >= T.ArtStart;
  }
  size_t SweepEnd = NeedArts ? T.NumCols : T.ArtStart;

  std::vector<int> RowOfBasic(T.NumCols, -1);
  for (size_t R = 0; R < T.NumRows; ++R)
    RowOfBasic[static_cast<size_t>(T.Basis[R])] = static_cast<int>(R);

  std::vector<uint8_t> RowFixed(T.NumRows, 0);
  std::vector<size_t> Pending;
  for (size_t I = 0; I < T.NumRows; ++I) {
    size_t P = static_cast<size_t>(Phys[I]);
    int R = RowOfBasic[P];
    if (R >= 0 && !RowFixed[static_cast<size_t>(R)])
      RowFixed[static_cast<size_t>(R)] = 1;
    else
      Pending.push_back(P);
  }
  for (size_t P : Pending) {
    size_t BestRow = None;
    double BestAbs = 1e-8;
    for (size_t R = 0; R < T.NumRows; ++R) {
      if (RowFixed[R])
        continue;
      double A = std::abs(T.at(R, P));
      if (A > BestAbs) {
        BestAbs = A;
        BestRow = R;
      }
    }
    if (BestRow == None)
      return false; // Singular under the new bounds.
    replayPivot(T, BestRow, P, SweepEnd);
    RowFixed[BestRow] = 1;
  }

  // Restore nonbasic-at-upper statuses and fold their contribution into
  // the basic values (actual-value semantics from here on).
  for (size_t V = 0; V < T.NumVars; ++V) {
    if (!W.AtUpper[V] || T.Status[V] == ColStatus::Basic ||
        T.Upper[V] == Infinity)
      continue;
    T.Status[V] = ColStatus::AtUpper;
    double U = T.Upper[V];
    if (U == 0.0)
      continue;
    for (size_t R = 0; R < T.NumRows; ++R) {
      double A = T.at(R, V);
      if (A != 0.0)
        T.Rhs[R] -= A * U;
    }
  }
  return true;
}

} // namespace

Solution lp::solveLp(const Model &M, const std::vector<BoundOverride> &Overrides,
                     const SimplexOptions &Options,
                     const SimplexBasis *WarmStart, SimplexBasis *FinalBasis,
                     LpRunStats *Stats) {
  const double Tol = Options.Tolerance;
  const size_t NumVars = M.numVars();
  LpRunStats LocalStats;
  LpRunStats &RS = Stats ? *Stats : LocalStats;
  RS = LpRunStats();
  LpTelemetry &Tel = lpTelemetry();
  ++Tel.Solves;
  if (FinalBasis)
    FinalBasis->clear();

  // Effective bounds after overrides.
  std::vector<double> Lo(NumVars), Hi(NumVars);
  for (size_t V = 0; V < NumVars; ++V) {
    Lo[V] = M.var(static_cast<VarId>(V)).LowerBound;
    Hi[V] = M.var(static_cast<VarId>(V)).UpperBound;
  }
  for (const BoundOverride &O : Overrides) {
    assert(O.Var >= 0 && static_cast<size_t>(O.Var) < NumVars);
    Lo[static_cast<size_t>(O.Var)] = O.LowerBound;
    Hi[static_cast<size_t>(O.Var)] = O.UpperBound;
  }
  Solution Result;
  for (size_t V = 0; V < NumVars; ++V) {
    if (Lo[V] > Hi[V] + Tol) {
      Result.Status = SolveStatus::Infeasible;
      return Result;
    }
  }

  // Phase-2 costs over physical columns (as minimization).
  auto makeCosts = [&](const Tableau &T) {
    std::vector<double> Costs(T.NumCols, 0.0);
    double ObjSign = M.goal() == Goal::Minimize ? 1.0 : -1.0;
    LinearExpr Obj = M.objective();
    Obj.normalize();
    for (const auto &[Var, Coeff] : Obj.terms())
      Costs[static_cast<size_t>(Var)] = ObjSign * Coeff;
    return Costs;
  };

  // ---- Compat path: the historical solver, value-for-value, over the
  // column-compressed tableau. Warm starts are ignored in this mode. ----
  if (Options.Pricing == LpPricing::Dantzig)
    return solveCompatLp(M, Lo, Hi, Options, RS, FinalBasis);

  // Thread-local scratch: the hot callers solve tens of thousands of
  // small LPs, and reusing vector capacity across solves removes the
  // allocation churn (buildTableau fully re-initializes every field).
  thread_local Tableau T;
  PhaseResult PR = PhaseResult::IterLimit;
  bool Solved = false;

  // ---- Warm path: replay the caller's basis, then re-optimize. ----
  if (!Solved && WarmStart && !WarmStart->empty()) {
    ++Tel.WarmStartAttempts;
    buildTableau(T, M, Lo, Hi, /*ExplicitBounds=*/false);
    if (replayBasis(T, *WarmStart)) {
      std::vector<double> Costs = makeCosts(T);
      computeReducedCosts(T, Costs);

      const double FeasTol = 1e-7;
      bool PrimalFeasible = true;
      for (size_t R = 0; R < T.NumRows && PrimalFeasible; ++R) {
        double V = T.Rhs[R];
        double U = T.Upper[static_cast<size_t>(T.Basis[R])];
        PrimalFeasible = V >= -FeasTol && (U == Infinity || V <= U + FeasTol);
      }
      bool DualFeasible = true;
      for (size_t C = 0; C < T.ArtStart && DualFeasible; ++C) {
        // Fixed columns (ancestor branching fixations) can never enter;
        // their reduced-cost sign is immaterial.
        if (T.Status[C] == ColStatus::Basic || T.Upper[C] == 0.0)
          continue;
        DualFeasible = T.Status[C] == ColStatus::AtLower
                           ? T.Cost[C] >= -FeasTol
                           : T.Cost[C] <= FeasTol;
      }

      if (PrimalFeasible) {
        // Objective-only change (or nothing changed): phase 1 is free.
        PR = runPrimal(T, Options, RS);
        // A warm IterLimit falls through to the cold path below: warm
        // starts must never change results, only work.
        Solved = PR != PhaseResult::IterLimit;
      } else if (DualFeasible) {
        // Bound change: restore primal feasibility dually, then polish.
        int DualCap = static_cast<int>(std::min<long>(
            Options.MaxIterations, 5 * static_cast<long>(T.NumRows) + 100));
        PhaseResult DR = runDual(T, Options, DualCap, RS);
        if (DR == PhaseResult::Optimal) {
          PR = runPrimal(T, Options, RS);
          Solved = PR != PhaseResult::IterLimit;
        } else if (DR == PhaseResult::Infeasible) {
          // Dual unboundedness certifies primal infeasibility (same trust
          // level as phase 1's certificate); re-solving cold here would
          // make every pruned branch-and-bound child pay twice.
          PR = DR;
          Solved = true;
        }
        // Dual IterLimit: retry cold rather than reporting a starved
        // restore as the solve's outcome.
      }
    }
    if (Solved) {
      RS.WarmStarted = true;
      ++Tel.WarmStartHits;
    }
  }

  // ---- Cold path: two-phase from the slack/artificial basis. ----
  if (!Solved) {
    buildTableau(T, M, Lo, Hi, /*ExplicitBounds=*/false);

    if (T.NumCols > T.ArtStart) {
      // Phase 1: minimize the sum of artificials. Their reduced costs are
      // never needed (artificials are never priced), so the cost row only
      // spans the live columns.
      T.Cost.assign(T.NumCols, 0.0);
      for (size_t R = 0; R < T.NumRows; ++R) {
        size_t B = static_cast<size_t>(T.Basis[R]);
        if (B < T.ArtStart)
          continue;
        const double *Row = T.row(R);
        for (size_t C = 0; C < T.ArtStart; ++C)
          T.Cost[C] -= Row[C];
      }
      PhaseResult P1 = runPrimal(T, Options, RS);
      if (P1 != PhaseResult::Optimal) {
        Result.Status = SolveStatus::IterLimit;
        return Result;
      }
      double Phase1Obj = 0.0;
      for (size_t R = 0; R < T.NumRows; ++R)
        if (static_cast<size_t>(T.Basis[R]) >= T.ArtStart)
          Phase1Obj += T.Rhs[R];
      if (Phase1Obj > 1e-7) {
        Result.Status = SolveStatus::Infeasible;
        return Result;
      }
      // Drive residual basic artificials out of the basis where possible;
      // a row that offers no live pivot is redundant and keeps its
      // artificial basic at zero (the dead column is never touched again).
      for (size_t R = 0; R < T.NumRows; ++R) {
        size_t B = static_cast<size_t>(T.Basis[R]);
        if (B < T.ArtStart)
          continue;
        size_t PivotCol = None;
        for (size_t C = 0; C < T.ArtStart; ++C) {
          if (T.Status[C] != ColStatus::Basic &&
              std::abs(T.at(R, C)) > Tol) {
            PivotCol = C;
            break;
          }
        }
        if (PivotCol == None)
          continue;
        int Dir = T.Status[PivotCol] == ColStatus::AtLower ? 1 : -1;
        double A = T.at(R, PivotCol);
        double Step = T.Rhs[R] / (Dir * A);
        applyPivot(T, R, PivotCol, Dir, Step, ColStatus::AtLower);
        ++RS.Pivots;
        ++Tel.Pivots;
      }
    }

    computeReducedCosts(T, makeCosts(T));
    PR = runPrimal(T, Options, RS);
  }

  if (PR == PhaseResult::IterLimit || PR == PhaseResult::Infeasible) {
    // Infeasible here comes from the warm dual's certificate; the primal
    // phases report infeasibility via the phase-1 objective instead.
    Result.Status = PR == PhaseResult::Infeasible ? SolveStatus::Infeasible
                                                  : SolveStatus::IterLimit;
    return Result;
  }
  if (PR == PhaseResult::Unbounded) {
    Result.Status = SolveStatus::Unbounded;
    return Result;
  }

  // Extract the solution (shift lower bounds back in).
  Result.Values.assign(NumVars, 0.0);
  for (size_t V = 0; V < NumVars; ++V)
    if (T.Status[V] == ColStatus::AtUpper)
      Result.Values[V] = T.Upper[V];
  for (size_t R = 0; R < T.NumRows; ++R) {
    int B = T.Basis[R];
    if (B >= 0 && static_cast<size_t>(B) < NumVars)
      Result.Values[static_cast<size_t>(B)] = T.Rhs[R];
  }
  for (size_t V = 0; V < NumVars; ++V) {
    Result.Values[V] += Lo[V];
    // Clamp tiny numerical overshoot back into the variable's domain.
    Result.Values[V] = std::max(Result.Values[V], Lo[V]);
    if (std::isfinite(Hi[V]))
      Result.Values[V] = std::min(Result.Values[V], Hi[V]);
  }
  Result.Objective = M.objective().evaluate(Result.Values);
  Result.Status = SolveStatus::Optimal;

  if (FinalBasis) {
    FinalBasis->BasicCols.resize(T.NumRows);
    for (size_t R = 0; R < T.NumRows; ++R)
      FinalBasis->BasicCols[R] = T.logicalOf(T.Basis[R]);
    FinalBasis->AtUpper.assign(NumVars, 0);
    for (size_t V = 0; V < NumVars; ++V)
      FinalBasis->AtUpper[V] = T.Status[V] == ColStatus::AtUpper;
  }
  return Result;
}

Solution lp::solveLp(const Model &M) {
  return solveLp(M, {}, SimplexOptions());
}
