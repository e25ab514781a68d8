//===- perfbench/src/Inputs.cpp - Seeded inputs and output checks ---------===//
//
// Part of the PALMED reproduction's benchmark (perfbench).
//
//===----------------------------------------------------------------------===//

#include "Inputs.h"

#include "eval/Workload.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <unordered_set>

namespace perfbench {

ZipfSampler::ZipfSampler(size_t N, double S) : Cdf(N) {
  double Sum = 0.0;
  for (size_t I = 0; I < N; ++I) {
    Sum += 1.0 / std::pow(static_cast<double>(I + 1), S);
    Cdf[I] = Sum;
  }
  for (double &C : Cdf)
    C /= Sum;
}

size_t ZipfSampler::sample(palmed::Rng &R) const {
  double U = R.uniformReal();
  auto It = std::upper_bound(Cdf.begin(), Cdf.end(), U);
  return std::min(static_cast<size_t>(It - Cdf.begin()), Cdf.size() - 1);
}

std::vector<std::string> distinctKernels(const palmed::MachineModel &M,
                                         uint64_t Seed, size_t Count,
                                         size_t BlocksPerSuite) {
  std::vector<std::string> Out;
  Out.reserve(Count);
  std::unordered_set<std::string> Seen;
  Seen.reserve(Count * 2);
  palmed::Rng Seeds(Seed);
  for (uint64_t Round = 0; Out.size() < Count; ++Round) {
    palmed::WorkloadConfig Cfg;
    Cfg.Profile = Round % 2 == 0 ? palmed::WorkloadProfile::SpecLike
                                 : palmed::WorkloadProfile::PolybenchLike;
    Cfg.NumBlocks = BlocksPerSuite;
    Cfg.Seed = Seeds.next();
    for (const palmed::BasicBlock &B : palmed::generateWorkload(M, Cfg)) {
      std::string Text = B.K.str(M.isa());
      if (Seen.insert(Text).second) {
        Out.push_back(std::move(Text));
        if (Out.size() == Count)
          break;
      }
    }
  }
  return Out;
}

bool bitEqual(const std::optional<double> &A,
              const std::optional<double> &B) {
  if (A.has_value() != B.has_value())
    return false;
  if (!A)
    return true;
  uint64_t BitsA = 0, BitsB = 0;
  std::memcpy(&BitsA, &*A, sizeof BitsA);
  std::memcpy(&BitsB, &*B, sizeof BitsB);
  return BitsA == BitsB;
}

std::string fnv1aHex(const std::string &Bytes) {
  uint64_t H = 0xcbf29ce484222325ULL;
  for (unsigned char C : Bytes) {
    H ^= C;
    H *= 0x100000001b3ULL;
  }
  char Buf[17];
  std::snprintf(Buf, sizeof Buf, "%016llx", static_cast<unsigned long long>(H));
  return Buf;
}

double procStatusMiB(const char *Field) {
  std::FILE *F = std::fopen("/proc/self/status", "r");
  if (!F)
    return 0.0;
  char Line[256];
  size_t Len = std::strlen(Field);
  double KiB = 0.0;
  while (std::fgets(Line, sizeof Line, F)) {
    if (std::strncmp(Line, Field, Len) == 0 && Line[Len] == ':') {
      KiB = std::strtod(Line + Len + 1, nullptr);
      break;
    }
  }
  std::fclose(F);
  return KiB / 1024.0;
}

} // namespace perfbench
