//===- perfbench/src/Stats.cpp - Sample summaries -------------------------===//
//
// Part of the PALMED reproduction's benchmark (perfbench).
//
//===----------------------------------------------------------------------===//

#include "Stats.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

double quantile(std::vector<double> Samples, double Q) {
  if (Samples.empty())
    return 0.0;
  std::sort(Samples.begin(), Samples.end());
  double Rank = std::ceil(Q * static_cast<double>(Samples.size()));
  size_t Idx = Rank <= 1.0 ? 0 : static_cast<size_t>(Rank) - 1;
  return Samples[std::min(Idx, Samples.size() - 1)];
}

double tailPercentile(size_t Count) {
  for (double P : {99.0, 90.0}) {
    // Samples strictly beyond the P-th percentile: n * (1 - P/100),
    // computed in integers to keep the thresholds exact.
    size_t Beyond = Count * static_cast<size_t>(100.0 - P) / 100;
    if (Beyond >= 10)
      return P;
  }
  return 50.0;
}

TimingSummary summarize(const std::vector<double> &Samples) {
  TimingSummary S;
  S.Count = Samples.size();
  S.Median = median(Samples);
  S.Percentile = tailPercentile(S.Count);
  S.Tail = quantile(Samples, S.Percentile / 100.0);
  return S;
}

double chunkedTail(const std::vector<double> &Samples, size_t ChunkSize,
                   double &Percentile) {
  if (Samples.size() < ChunkSize) {
    TimingSummary S = summarize(Samples);
    Percentile = S.Percentile;
    return S.Tail;
  }
  Percentile = tailPercentile(ChunkSize);
  std::vector<double> Tails;
  for (size_t Lo = 0; Lo + ChunkSize <= Samples.size(); Lo += ChunkSize)
    Tails.push_back(quantile(
        std::vector<double>(Samples.begin() + static_cast<long>(Lo),
                            Samples.begin() + static_cast<long>(Lo + ChunkSize)),
        Percentile / 100.0));
  return median(Tails);
}

} // namespace perfbench
