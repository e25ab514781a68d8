//===- perfbench/src/Trace.cpp - Span and counter recorder ----------------===//
//
// Part of the PALMED reproduction's benchmark (perfbench).
//
//===----------------------------------------------------------------------===//

#include "Trace.h"

#include <algorithm>
#include <cstdio>
#include <utility>

namespace perfbench {

double nowSeconds() {
  using Clock = std::chrono::steady_clock;
  static const Clock::time_point Epoch = Clock::now();
  return std::chrono::duration<double>(Clock::now() - Epoch).count();
}

int Tracer::begin(const std::string &Name, int Parent) {
  if (!Enabled)
    return NoSpan;
  double Now = nowSeconds();
  std::lock_guard<std::mutex> Lock(M);
  Recorded.push_back(Span{Name, Now, Now, Parent, {}});
  return static_cast<int>(Recorded.size() - 1);
}

void Tracer::end(int Id) {
  if (Id == NoSpan)
    return;
  double Now = nowSeconds();
  std::lock_guard<std::mutex> Lock(M);
  Recorded[static_cast<size_t>(Id)].End = Now;
}

int Tracer::add(const std::string &Name, double Start, double End,
                int Parent) {
  if (!Enabled)
    return NoSpan;
  std::lock_guard<std::mutex> Lock(M);
  Recorded.push_back(Span{Name, Start, End, Parent, {}});
  return static_cast<int>(Recorded.size() - 1);
}

void Tracer::count(int Id, const std::string &Key, double Delta) {
  if (Id == NoSpan)
    return;
  std::lock_guard<std::mutex> Lock(M);
  Recorded[static_cast<size_t>(Id)].Counters[Key] += Delta;
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> Lock(M);
  return Recorded;
}

namespace {

void writeJsonString(std::FILE *F, const std::string &S) {
  std::fputc('"', F);
  for (char C : S) {
    if (C == '"' || C == '\\')
      std::fputc('\\', F);
    if (static_cast<unsigned char>(C) < 0x20)
      std::fprintf(F, "\\u%04x", C);
    else
      std::fputc(C, F);
  }
  std::fputc('"', F);
}

} // namespace

bool Tracer::writeChromeJson(const std::string &Path) const {
  std::vector<Span> All = spans();
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  std::fputs("{\"traceEvents\":[\n", F);
  for (size_t I = 0; I < All.size(); ++I) {
    const Span &S = All[I];
    std::fputs(I ? ",\n{\"name\":" : "{\"name\":", F);
    writeJsonString(F, S.Name);
    std::fprintf(F,
                 ",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,"
                 "\"args\":{\"id\":%zu,\"parent\":%d,\"self_us\":%.3f",
                 S.Start * 1e6, (S.End - S.Start) * 1e6, I, S.Parent,
                 selfTime(All, static_cast<int>(I)) * 1e6);
    for (const auto &[Key, Value] : S.Counters) {
      std::fputc(',', F);
      writeJsonString(F, Key);
      std::fprintf(F, ":%.17g", Value);
    }
    std::fputs("}}", F);
  }
  std::fputs("\n]}\n", F);
  return std::fclose(F) == 0;
}

double selfTime(const std::vector<Span> &Spans, int Id) {
  const Span &P = Spans[static_cast<size_t>(Id)];
  std::vector<std::pair<double, double>> Covered;
  for (const Span &C : Spans) {
    if (C.Parent != Id)
      continue;
    double Lo = std::max(C.Start, P.Start);
    double Hi = std::min(C.End, P.End);
    if (Hi > Lo)
      Covered.emplace_back(Lo, Hi);
  }
  std::sort(Covered.begin(), Covered.end());
  double Union = 0.0;
  double RunLo = 0.0, RunHi = -1.0;
  for (const auto &[Lo, Hi] : Covered) {
    if (Lo > RunHi) {
      if (RunHi > RunLo)
        Union += RunHi - RunLo;
      RunLo = Lo;
      RunHi = Hi;
    } else {
      RunHi = std::max(RunHi, Hi);
    }
  }
  if (RunHi > RunLo)
    Union += RunHi - RunLo;
  return (P.End - P.Start) - Union;
}

} // namespace perfbench
