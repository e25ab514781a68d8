//===- core/DualConstruction.cpp - Disjunctive-to-conjunctive dual --------===//
//
// Part of the PALMED reproduction.
//
//===----------------------------------------------------------------------===//

#include "core/DualConstruction.h"

#include "support/Compat.h"

#include <algorithm>
#include <cassert>
#include <limits>
#include <string>

using namespace palmed;

namespace {

// The set operations the kernel needs, for both mask types it is
// instantiated for: a PortMask, and a plain word whose bit p is port p.
// Both types order by integer value, so sorting either yields the same
// sequence of ports.
bool masksIntersect(const PortMask &A, const PortMask &B) {
  return A.intersects(B);
}
bool masksIntersect(uint64_t A, uint64_t B) { return (A & B) != 0; }
bool isSubmask(const PortMask &A, const PortMask &B) {
  return A.isSubsetOf(B);
}
bool isSubmask(uint64_t A, uint64_t B) { return (A & ~B) == 0; }
unsigned maskPorts(const PortMask &Mask) { return portCount(Mask); }
unsigned maskPorts(uint64_t Mask) { return popCount(Mask); }

/// Closes \p Members, a list of distinct masks, under union of
/// intersecting pairs, appending each new union at the end. Worklist form:
/// every member is paired once with every member before it, so each pair
/// is tried exactly once and the result is the unique least fixpoint, in
/// discovery order. \p MaxSize is the debug-build cap on the result.
template <typename MaskT>
void closeUnderUnion(std::vector<MaskT> &Members,
                     size_t MaxSize = std::numeric_limits<size_t>::max()) {
  (void)MaxSize; // Only consumed by the assert below.
  for (size_t I = 0; I < Members.size(); ++I)
    for (size_t J = 0; J < I; ++J) {
      if (!masksIntersect(Members[I], Members[J]))
        continue;
      MaskT U = Members[I] | Members[J];
      if (std::find(Members.begin(), Members.end(), U) != Members.end())
        continue;
      Members.push_back(std::move(U));
      assert(Members.size() <= MaxSize && "resource closure exceeded cap");
    }
}

} // namespace

std::vector<PortMask>
palmed::computeResourceClosure(const MachineModel &Machine,
                               size_t MaxResources) {
  std::vector<PortMask> Closure;
  for (InstrId Id = 0; Id < Machine.numInstructions(); ++Id)
    for (const MicroOpDesc &Op : Machine.exec(Id).MicroOps)
      Closure.push_back(Op.Ports);
  std::sort(Closure.begin(), Closure.end());
  Closure.erase(std::unique(Closure.begin(), Closure.end()), Closure.end());
  closeUnderUnion(Closure, MaxResources);
  std::sort(Closure.begin(), Closure.end());
  return Closure;
}

namespace {

/// The one body behind both optimalPortCycles overloads (see the header
/// for the bit-equality contract).
template <typename MaskT>
double portCyclesOf(const std::vector<std::pair<MaskT, double>> &Demands) {
  // Per-thread scratch, one pair per instantiation: after warm-up, calls
  // on words or single-word PortMasks allocate nothing.
  thread_local std::vector<std::pair<MaskT, double>> ByMask;
  thread_local std::vector<MaskT> Closure;

  // Merge duplicate masks, summing each one's demands in input order from
  // 0.0, then order by mask: the per-mask sums and their order are those
  // of a std::map<PortMask, double> filled with operator[] +=.
  ByMask.clear();
  for (const auto &[Mask, Demand] : Demands) {
    assert(maskPorts(Mask) != 0 && "µOP with empty port set");
    assert(Demand >= 0.0 && "negative demand");
    auto It = std::find_if(ByMask.begin(), ByMask.end(),
                           [&](const auto &E) { return E.first == Mask; });
    if (It == ByMask.end())
      It = ByMask.emplace(ByMask.end(), Mask, 0.0);
    It->second += Demand;
  }
  std::sort(ByMask.begin(), ByMask.end(),
            [](const auto &A, const auto &B) { return A.first < B.first; });

  Closure.clear();
  for (const auto &[Mask, Demand] : ByMask)
    Closure.push_back(Mask);
  closeUnderUnion(Closure);

  // The max does not depend on the closure's order, and each Inside sum
  // runs over the masks in sorted order.
  double Best = 0.0;
  for (const MaskT &J : Closure) {
    double Inside = 0.0;
    for (const auto &[Mask, Demand] : ByMask)
      if (isSubmask(Mask, J))
        Inside += Demand;
    Best = std::max(Best, Inside / maskPorts(J));
  }
  return Best;
}

} // namespace

double palmed::optimalPortCycles(
    const std::vector<std::pair<PortMask, double>> &Demands) {
  return portCyclesOf(Demands);
}

double palmed::optimalPortCycles(
    const std::vector<std::pair<uint64_t, double>> &Demands) {
  return portCyclesOf(Demands);
}

ResourceMapping palmed::buildDualMapping(const MachineModel &Machine,
                                         const DualOptions &Options) {
  std::vector<PortMask> Masks =
      computeResourceClosure(Machine, Options.MaxResources);
  // Deterministic, human-friendly order: few ports first, then numeric.
  std::sort(Masks.begin(), Masks.end(),
            [](const PortMask &A, const PortMask &B) {
              unsigned CA = portCount(A), CB = portCount(B);
              if (CA != CB)
                return CA < CB;
              return A < B;
            });

  ResourceMapping M(Machine.numInstructions());
  std::vector<ResourceId> MaskResource(Masks.size());
  for (size_t I = 0; I < Masks.size(); ++I) {
    std::string Name = "r";
    Masks[I].forEachSetBit([&](size_t P) { Name += std::to_string(P); });
    MaskResource[I] =
        M.addResource(std::move(Name), static_cast<double>(portCount(Masks[I])));
  }

  ResourceId FrontEnd = static_cast<ResourceId>(-1);
  if (Options.IncludeFrontEnd && Machine.decodeWidth() > 0)
    FrontEnd = M.addResource("frontend",
                             static_cast<double>(Machine.decodeWidth()));

  for (InstrId Id = 0; Id < Machine.numInstructions(); ++Id) {
    const InstrExec &E = Machine.exec(Id);
    for (size_t I = 0; I < Masks.size(); ++I) {
      const PortMask &J = Masks[I];
      // Usage of r_J: demand of all µOPs whose port set fits inside J,
      // normalized by the resource's throughput |J| (paper Def. A.5).
      double Use = 0.0;
      for (const MicroOpDesc &Op : E.MicroOps)
        if (Op.Ports.isSubsetOf(J))
          Use += Options.IncludeOccupancy ? Op.Occupancy : 1.0;
      if (Use > 0.0)
        M.setUsage(Id, MaskResource[I],
                   Use / static_cast<double>(portCount(J)));
    }
    if (FrontEnd != static_cast<ResourceId>(-1))
      M.setUsage(Id, FrontEnd,
                 1.0 / static_cast<double>(Machine.decodeWidth()));
    M.markMapped(Id);
  }
  return M;
}
