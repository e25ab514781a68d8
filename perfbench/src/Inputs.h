//===- perfbench/src/Inputs.h - Seeded inputs and output checks -*- C++ -*-===//
//
// Part of the PALMED reproduction's benchmark (perfbench).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Everything the benchmark derives from its --seed, plus the helpers that
/// check the program's outputs. Randomness is palmed::Rng (xoshiro256**,
/// exactly specified, so the same seed gives the same inputs on every
/// standard library); block contents come from palmed::generateWorkload.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_INPUTS_H
#define PERFBENCH_INPUTS_H

#include "machine/MachineModel.h"
#include "support/Rng.h"

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace perfbench {

/// Draws ranks 0..N-1 with probability proportional to 1 / (rank+1)^S from
/// a precomputed CDF table (palmed::Rng::zipf is linear in N per draw).
class ZipfSampler {
public:
  ZipfSampler(size_t N, double S);
  size_t sample(palmed::Rng &R) const;
  size_t size() const { return Cdf.size(); }

private:
  std::vector<double> Cdf; // Normalized cumulative weights.
};

/// Distinct kernel texts (Microkernel::str) drawn from SPEC-like and
/// Polybench-like palmed::generateWorkload suites, alternating profiles,
/// each call seeded from a palmed::Rng seeded with \p Seed, until \p Count
/// distinct texts are collected.
/// \p BlocksPerSuite sets how many blocks each generateWorkload call makes.
std::vector<std::string> distinctKernels(const palmed::MachineModel &M,
                                         uint64_t Seed, size_t Count,
                                         size_t BlocksPerSuite);

/// Bit-level equality of two optional doubles: both empty, or both set
/// with identical IEEE-754 bit patterns (so 0.0 != -0.0 and a NaN equals
/// only the same NaN).
bool bitEqual(const std::optional<double> &A, const std::optional<double> &B);

/// 64-bit FNV-1a of \p Bytes, as 16 lowercase hex digits.
std::string fnv1aHex(const std::string &Bytes);

/// A field of /proc/self/status ("VmHWM", "VmRSS"), in MiB; 0 when the
/// file or field is missing.
double procStatusMiB(const char *Field);

} // namespace perfbench

#endif // PERFBENCH_INPUTS_H
