//===- perfbench/src/Workloads.h - The benchmark's workloads ----*- C++ -*-===//
//
// Part of the PALMED reproduction's benchmark (perfbench).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The four workloads (map-huge, campaign-skl, serve-zipf, cold-corpus;
/// see perfbench/README.md for why each exists). One call runs one
/// workload in the calling process and returns every metric it measured:
/// the end-to-end set (the same names on every workload), the per-layer
/// set (filled only by a traced run), and the per-workload named view of the
/// end-to-end numbers.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Metric {
  double Value = 0.0;
  std::string Unit;
};
using MetricMap = std::map<std::string, Metric>;

struct RunOptions {
  std::string Workload;
  uint64_t Seed = 1;
  /// Length of the measured phase.
  double Seconds = 10.0;
  /// Install the layer decorators and fill RunResult::PerLayer.
  bool Trace = false;
  /// Where a traced run writes its spans (Chrome trace-event JSON).
  std::string TracePath;
};

struct RunResult {
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  MetricMap EndToEnd;
  MetricMap PerLayer;
  MetricMap Named;
  /// FNV-1a digest of Mapping.toText() for every mapping inferred.
  std::vector<std::string> Digests;
  /// The workload's main wall metric (median operation time, seconds),
  /// which trace_overhead_pct compares between traced and untraced runs.
  double MainWallS = 0.0;

  void attempt(bool Ok) {
    ++Attempted;
    if (!Ok)
      ++Failed;
  }
};

/// Names accepted by runWorkload.
const std::vector<std::string> &workloadNames();

/// Runs one workload. Throws std::invalid_argument on an unknown name and
/// std::runtime_error when the workload cannot produce its metrics.
RunResult runWorkload(const RunOptions &Options);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_H
