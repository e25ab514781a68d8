//===- core/DualConstruction.h - Disjunctive-to-conjunctive dual -*- C++ -*-===//
//
// Part of the PALMED reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The nabla-dual construction of paper Appendix A: from a disjunctive port
/// mapping (the ground-truth MachineModel) build the equivalent conjunctive
/// resource mapping. The resource family is the closure of the µOP port
/// sets under union-of-intersecting-sets — the practical rule the paper
/// states after Theorem A.2 ("if two abstract resources have a non-empty
/// intersection, we then add their union"); disjoint unions never bind
/// because max(a/|A|, b/|B|) >= (a+b)/(|A|+|B|).
///
/// This is both (a) the formal bridge validating the equivalence theorem in
/// tests — the dual's closed-form t(K) must equal the flow-LP optimum — and
/// (b) the predictor underlying the uops.info-style baselines.
///
//===----------------------------------------------------------------------===//

#ifndef PALMED_CORE_DUALCONSTRUCTION_H
#define PALMED_CORE_DUALCONSTRUCTION_H

#include "core/ResourceMapping.h"
#include "machine/MachineModel.h"

namespace palmed {

/// Options for the dual construction.
struct DualOptions {
  /// Model the decode width as an extra abstract resource used 1/W per
  /// instruction. Port-only tools (uops.info-style) set this to false.
  bool IncludeFrontEnd = true;
  /// Honour non-pipelined µOP occupancies. Port-mapping-only tools assume
  /// fully pipelined units (occupancy 1); setting this to false reproduces
  /// their characteristic IPC over-estimation on divider-heavy kernels.
  bool IncludeOccupancy = true;
  /// Safety cap on the closure size (the paper observes <= 14 resources).
  size_t MaxResources = 4096;
};

/// Builds the conjunctive dual of \p Machine covering every instruction.
/// Resource names are "r" + concatenated port indices (e.g. "r016"), plus
/// "frontend" when enabled.
ResourceMapping buildDualMapping(const MachineModel &Machine,
                                 const DualOptions &Options = DualOptions());

/// Computes the closed set of port masks (see file comment). Exposed for
/// tests.
std::vector<PortMask> computeResourceClosure(const MachineModel &Machine,
                                             size_t MaxResources);

/// Exact port-contention makespan of a bag of µOP demands: each entry is
/// (admissible port set, total demand in cycles). Computed as
/// max over closed union sets J of sum(demand with ports within J) / |J| —
/// the combinatorial equivalent of the scheduling LP (Hall-type duality).
/// Used by the PMEvo baseline to evaluate candidate disjunctive mappings
/// without solving an LP per fitness evaluation.
///
/// Two overloads share one templated body: one takes PortMasks, the other
/// plain words whose bit p is port p (machines of at most 64 ports; PMEvo's
/// genomes are words). Both keep the same order of operations: merge
/// duplicate masks in input order from 0.0, sort by mask value, close
/// under intersecting unions, and sum each closure member's demand in
/// sorted order.
///
/// Bit-equality contract: either result is bit-identical to merging the
/// bag into a std::map<PortMask, double> (demands summed in input order)
/// and summing each closure member's demand over that map in key order,
/// which PMEvo's golden training tests pin. The merged bag and the closure
/// live in thread_local scratch, so calls allocate nothing once warm (words
/// or single-word masks) and concurrent calls from different threads are
/// safe.
double optimalPortCycles(
    const std::vector<std::pair<PortMask, double>> &Demands);
double optimalPortCycles(
    const std::vector<std::pair<uint64_t, double>> &Demands);

} // namespace palmed

#endif // PALMED_CORE_DUALCONSTRUCTION_H
