//===- perfbench/src/Trace.h - Span and counter recorder --------*- C++ -*-===//
//
// Part of the PALMED reproduction's benchmark (perfbench).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The benchmark's tracing: spans (name, start, end, parent span) and
/// counters attached to spans, kept in memory and written once, as Chrome
/// trace-event JSON, when the run ends. Spans are recorded from the
/// benchmark's own files around calls into the library; boundaries that
/// fire ~100k times (oracle calls, LPAUX progress events) are not spans
/// but counters on their parent span.
///
/// A disabled recorder (the untraced run) turns every call into a no-op
/// that returns NoSpan, so workload code records unconditionally.
///
/// Thread-safe: every call takes one mutex.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_TRACE_H
#define PERFBENCH_TRACE_H

#include <chrono>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// Seconds on the steady clock since an arbitrary process-wide epoch.
double nowSeconds();

struct Span {
  std::string Name;
  double Start = 0.0;
  double End = 0.0;
  /// Index of the parent span, or Tracer::NoSpan for a root.
  int Parent = -1;
  std::map<std::string, double> Counters;
};

class Tracer {
public:
  static constexpr int NoSpan = -1;

  explicit Tracer(bool Enabled) : Enabled(Enabled) {}

  /// Opens a span starting now; returns its id (NoSpan when disabled).
  int begin(const std::string &Name, int Parent = NoSpan);
  /// Closes \p Id at the current time.
  void end(int Id);
  /// Records an already-finished span.
  int add(const std::string &Name, double Start, double End,
          int Parent = NoSpan);
  /// Adds \p Delta to counter \p Key of span \p Id.
  void count(int Id, const std::string &Key, double Delta);

  /// Snapshot of every recorded span, in creation order.
  std::vector<Span> spans() const;

  /// Writes the spans as Chrome trace-event JSON ("X" events, times in
  /// microseconds; parent, self time and counters in args). Returns false
  /// when the file cannot be written.
  bool writeChromeJson(const std::string &Path) const;

private:
  bool Enabled;
  mutable std::mutex M;
  std::vector<Span> Recorded; // Guarded by M.
};

/// Self time of span \p Id: its duration minus the part of its interval
/// covered by its direct children (overlapping children — parallel work —
/// count once; child time outside the parent's interval is ignored).
double selfTime(const std::vector<Span> &Spans, int Id);

} // namespace perfbench

#endif // PERFBENCH_TRACE_H
