//===- perfbench/src/main.cpp - One workload, one process -----------------===//
//
// Part of the PALMED reproduction's benchmark (perfbench).
//
// Runs one workload in this process and prints, as the last line of
// standard output, one JSON object:
//
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...},
//    "named": {...}, "digests": [...], "main_wall_s": ...}
//
// "metrics" holds the end-to-end set, or with --trace 1 the per-layer
// set; "named" holds the same run's numbers under the per-workload names
// of perfbench/README.md. perfbench/run.py builds this program, runs it,
// and reduces the object to the benchmark's result line.
//
// usage: perfbench_run --workload NAME --seed N --seconds S --trace 0|1
//                      [--trace-out FILE]
//
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

using namespace perfbench;

namespace {

void printMetrics(const MetricMap &Metrics) {
  std::printf("{");
  bool First = true;
  for (const auto &[Name, M] : Metrics) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                First ? "" : ", ", Name.c_str(), M.Value, M.Unit.c_str());
    First = false;
  }
  std::printf("}");
}

bool allFinite(const MetricMap &Metrics) {
  for (const auto &[Name, M] : Metrics)
    if (!std::isfinite(M.Value)) {
      std::fprintf(stderr, "perfbench: metric %s is not finite\n",
                   Name.c_str());
      return false;
    }
  return true;
}

int usage(const char *Msg) {
  std::fprintf(stderr,
               "perfbench_run: %s\nusage: perfbench_run --workload NAME "
               "--seed N --seconds S --trace 0|1 [--trace-out FILE]\n",
               Msg);
  return 2;
}

} // namespace

int main(int Argc, char **Argv) {
  RunOptions O;
  bool HaveWorkload = false;
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    if (I + 1 >= Argc)
      return usage(("missing value after " + Arg).c_str());
    const char *Val = Argv[++I];
    char *End = nullptr;
    if (Arg == "--workload") {
      O.Workload = Val;
      HaveWorkload = true;
    } else if (Arg == "--seed") {
      O.Seed = std::strtoull(Val, &End, 10);
    } else if (Arg == "--seconds") {
      O.Seconds = std::strtod(Val, &End);
    } else if (Arg == "--trace") {
      O.Trace = std::strcmp(Val, "1") == 0;
      if (!O.Trace && std::strcmp(Val, "0") != 0)
        return usage("--trace takes 0 or 1");
    } else if (Arg == "--trace-out") {
      O.TracePath = Val;
    } else {
      return usage(("unknown argument " + Arg).c_str());
    }
    if (End && *End)
      return usage(("bad number for " + Arg).c_str());
  }
  if (!HaveWorkload)
    return usage("--workload is required");
  if (!(O.Seconds > 0.0))
    return usage("--seconds must be positive");

  RunResult R;
  try {
    R = runWorkload(O);
  } catch (const std::exception &E) {
    std::fprintf(stderr, "perfbench_run: %s\n", E.what());
    return 1;
  }
  const MetricMap &Metrics = O.Trace ? R.PerLayer : R.EndToEnd;
  if (!allFinite(Metrics) || !allFinite(R.Named))
    return 1;

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": ",
              R.Failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(R.Attempted),
              static_cast<unsigned long long>(R.Failed));
  printMetrics(Metrics);
  std::printf(", \"named\": ");
  printMetrics(R.Named);
  std::printf(", \"digests\": [");
  for (size_t I = 0; I < R.Digests.size(); ++I)
    std::printf("%s\"%s\"", I ? ", " : "", R.Digests[I].c_str());
  std::printf("], \"main_wall_s\": %.17g}\n", R.MainWallS);
  return 0;
}
