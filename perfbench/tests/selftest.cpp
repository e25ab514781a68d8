//===- perfbench/tests/selftest.cpp - Benchmark helper tests --------------===//
//
// Part of the PALMED reproduction's benchmark (perfbench).
//
// Unit tests for the benchmark's own helpers: the tail-percentile rule,
// seeded input generation, span self time, and the bit-compare check.
//
//   cmake -S perfbench -B build-perfbench -DPERFBENCH_TESTS=ON
//   cmake --build build-perfbench -j 4 && ctest --test-dir build-perfbench
//
//===----------------------------------------------------------------------===//

#include "Inputs.h"
#include "Stats.h"
#include "Trace.h"

#include "machine/StandardMachines.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <set>

using namespace perfbench;

TEST(PerfbenchStats, TailNeedsTenSamplesBeyondIt) {
  EXPECT_EQ(tailPercentile(1000), 99.0);
  EXPECT_EQ(tailPercentile(999), 90.0);
  EXPECT_EQ(tailPercentile(100), 90.0);
  EXPECT_EQ(tailPercentile(99), 50.0);
  EXPECT_EQ(tailPercentile(20), 50.0);
  // Below 20 samples nothing has ten beyond it: the median stands in.
  EXPECT_EQ(tailPercentile(19), 50.0);
  EXPECT_EQ(tailPercentile(1), 50.0);
  EXPECT_EQ(tailPercentile(0), 50.0);
}

TEST(PerfbenchStats, SummaryReportsP99OnlyFromAThousandSamples) {
  std::vector<double> V;
  for (int I = 1; I <= 1000; ++I)
    V.push_back(I);
  TimingSummary S = summarize(V);
  EXPECT_EQ(S.Count, 1000u);
  EXPECT_EQ(S.Median, 500.0);
  EXPECT_EQ(S.Percentile, 99.0);
  EXPECT_EQ(S.Tail, 990.0);

  V.pop_back(); // 999 samples: only p90 has ten beyond it.
  S = summarize(V);
  EXPECT_EQ(S.Percentile, 90.0);
  EXPECT_EQ(S.Tail, 900.0);

  S = summarize({3.0, 1.0, 2.0}); // Too few for a tail: the median.
  EXPECT_EQ(S.Percentile, 50.0);
  EXPECT_EQ(S.Tail, 2.0);
  EXPECT_EQ(S.Median, 2.0);
}

TEST(PerfbenchStats, ChunkedTailIsTheMedianOfChunkP99s) {
  // Three chunks of 1000: p99s 990, 1990 (despite a 1e6 spike in its top
  // 1%), 2990 -> median 1990. A partial fourth chunk is ignored.
  std::vector<double> V;
  for (int Chunk = 0; Chunk < 3; ++Chunk)
    for (int I = 1; I <= 1000; ++I)
      V.push_back(Chunk == 1 && I == 1000 ? 1e6 : I + 1000.0 * Chunk);
  for (int I = 0; I < 999; ++I)
    V.push_back(1e9);
  double Pct = 0.0;
  EXPECT_EQ(chunkedTail(V, 1000, Pct), 1990.0);
  EXPECT_EQ(Pct, 99.0);
  // Chunks of 100 take p90: chunk p90s 90, 190, 290, ... -> median.
  std::vector<double> Ramp;
  for (int I = 1; I <= 300; ++I)
    Ramp.push_back(I);
  EXPECT_EQ(chunkedTail(Ramp, 100, Pct), 190.0);
  EXPECT_EQ(Pct, 90.0);
  // Below one chunk: the plain tail rule (p90 for 100 samples, the median
  // below 20).
  std::vector<double> Short(Ramp.begin(), Ramp.begin() + 100);
  EXPECT_EQ(chunkedTail(Short, 1000, Pct), 90.0);
  EXPECT_EQ(Pct, 90.0);
  EXPECT_EQ(chunkedTail({5.0, 7.0}, 1000, Pct), 5.0);
  EXPECT_EQ(Pct, 50.0);
}

TEST(PerfbenchInputs, ZipfIsDeterministicPerSeed) {
  ZipfSampler Z(4096, 1.1);
  palmed::Rng A(7), B(7), C(8);
  std::vector<size_t> SA, SB, SC;
  for (int I = 0; I < 1000; ++I) {
    SA.push_back(Z.sample(A));
    SB.push_back(Z.sample(B));
    SC.push_back(Z.sample(C));
  }
  EXPECT_EQ(SA, SB);
  EXPECT_NE(SA, SC);
  std::vector<int> Hits(Z.size(), 0);
  for (size_t S : SA) {
    ASSERT_LT(S, Z.size());
    ++Hits[S];
  }
  // Rank 0 carries ~12% of the mass at exponent 1.1 over 4096 ranks.
  EXPECT_GT(Hits[0], 80);
  EXPECT_GT(Hits[0], Hits[10]);
}

TEST(PerfbenchInputs, KernelTextsAreDeterministicAndDistinct) {
  palmed::MachineModel M = palmed::makeSklLike();
  std::vector<std::string> A = distinctKernels(M, 42, 20000, 100);
  std::vector<std::string> B = distinctKernels(M, 42, 20000, 100);
  std::vector<std::string> C = distinctKernels(M, 43, 20000, 100);
  ASSERT_EQ(A.size(), 20000u);
  EXPECT_EQ(A, B);
  EXPECT_NE(A, C);
  std::set<std::string> Unique(A.begin(), A.end());
  EXPECT_EQ(Unique.size(), A.size());
  for (const std::string &Text : A)
    EXPECT_TRUE(palmed::Microkernel::parse(Text, M.isa()).has_value());
}

TEST(PerfbenchTrace, SelfTimeSubtractsCoveredChildIntervals) {
  std::vector<Span> S(6);
  S[0] = {"parent", 0.0, 10.0, -1, {}};
  S[1] = {"a", 1.0, 3.0, 0, {}};
  S[2] = {"b", 2.0, 5.0, 0, {}};  // Overlaps a: [1,5] counts once.
  S[3] = {"c", 8.0, 12.0, 0, {}}; // Clipped to the parent: [8,10].
  S[4] = {"grandchild", 0.0, 10.0, 1, {}}; // Not a direct child.
  S[5] = {"root2", 20.0, 21.0, -1, {}};
  EXPECT_DOUBLE_EQ(selfTime(S, 0), 4.0);
  EXPECT_DOUBLE_EQ(selfTime(S, 1), 0.0); // Fully covered by grandchild.
  EXPECT_DOUBLE_EQ(selfTime(S, 2), 3.0); // Leaf.
  EXPECT_DOUBLE_EQ(selfTime(S, 5), 1.0);
}

TEST(PerfbenchTrace, RecorderKeepsParentsAndCounters) {
  Tracer T(true);
  int Root = T.begin("root");
  int Child = T.add("child", 1.0, 2.0, Root);
  T.count(Child, "calls", 3.0);
  T.count(Child, "calls", 4.0);
  T.end(Root);
  std::vector<Span> S = T.spans();
  ASSERT_EQ(S.size(), 2u);
  EXPECT_EQ(S[1].Parent, Root);
  EXPECT_EQ(S[1].Counters.at("calls"), 7.0);
  EXPECT_GE(S[0].End, S[0].Start);

  Tracer Off(false);
  EXPECT_EQ(Off.begin("x"), Tracer::NoSpan);
  Off.count(Tracer::NoSpan, "calls", 1.0);
  Off.end(Tracer::NoSpan);
  EXPECT_TRUE(Off.spans().empty());
}

TEST(PerfbenchCheck, BitEqualComparesRepresentations) {
  std::optional<double> None;
  EXPECT_TRUE(bitEqual(None, None));
  EXPECT_FALSE(bitEqual(1.0, None));
  EXPECT_FALSE(bitEqual(None, 1.0));
  EXPECT_TRUE(bitEqual(1.5, 1.5));
  EXPECT_FALSE(bitEqual(0.0, -0.0));
  EXPECT_FALSE(bitEqual(1.0, std::nextafter(1.0, 2.0)));
  double NaN = std::numeric_limits<double>::quiet_NaN();
  EXPECT_TRUE(bitEqual(NaN, NaN));
}

TEST(PerfbenchCheck, DigestIsFnv1a64) {
  EXPECT_EQ(fnv1aHex(""), "cbf29ce484222325");
  EXPECT_EQ(fnv1aHex("a"), "af63dc4c8601ec8c");
  EXPECT_NE(fnv1aHex("mapping a"), fnv1aHex("mapping b"));
}
