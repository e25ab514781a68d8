//===- perfbench/src/Stats.h - Sample summaries -----------------*- C++ -*-===//
//
// Part of the PALMED reproduction's benchmark (perfbench).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// How the benchmark turns samples into reported numbers: nearest-rank
/// quantiles, and the tail rule — a timing is reported as its median plus
/// the highest percentile of {99, 90, 50} that has at least ten samples
/// beyond it (p99 needs >= 1000 samples, p90 >= 100, p50 >= 20). With
/// fewer than 20 samples no percentile qualifies, so no tail is measurable
/// and the median stands in for it (Percentile = 50): the maximum of a
/// handful of long operations would only measure host noise. Medians are
/// nearest-rank (the lower middle for an even count).
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_STATS_H
#define PERFBENCH_STATS_H

#include <cstddef>
#include <vector>

namespace perfbench {

/// Nearest-rank quantile of \p Samples (0 < Q <= 1); 0 when empty.
double quantile(std::vector<double> Samples, double Q);

/// Median (nearest rank, lower middle for even counts).
inline double median(std::vector<double> Samples) {
  return quantile(std::move(Samples), 0.5);
}

/// The highest percentile in {99, 90, 50} with at least ten samples beyond
/// it for \p Count samples; 50 when none qualifies.
double tailPercentile(size_t Count);

/// A timing distribution reduced to what the benchmark reports.
struct TimingSummary {
  double Median = 0.0;
  double Tail = 0.0;
  /// Which percentile Tail is (99, 90 or 50).
  double Percentile = 50.0;
  size_t Count = 0;
};

TimingSummary summarize(const std::vector<double> &Samples);

/// The tail of a long run of latency samples, robust to a burst of host
/// interference deciding it: \p Samples (in the order taken) are cut into
/// consecutive chunks of \p ChunkSize, the tail rule picks the percentile
/// from ChunkSize (p90 for 100, p99 for 1000), that percentile is taken in
/// every chunk, and the median across chunks is returned. Fewer than
/// ChunkSize samples fall back to summarize()'s tail; a partial last chunk
/// is ignored. \p Percentile receives the percentile used.
double chunkedTail(const std::vector<double> &Samples, size_t ChunkSize,
                   double &Percentile);

} // namespace perfbench

#endif // PERFBENCH_STATS_H
