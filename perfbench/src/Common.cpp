//===--- Common.cpp - Shared helpers of the memlint benchmark -------------===//
//
// Part of memlint's benchmark (perfbench/README.md).
//
//===----------------------------------------------------------------------===//

#include "Common.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>

#include <sched.h>
#include <sys/resource.h>

using namespace perfbench;

double perfbench::cpuNowMs() {
  rusage U{};
  getrusage(RUSAGE_SELF, &U);
  auto Ms = [](const timeval &T) {
    return static_cast<double>(T.tv_sec) * 1e3 +
           static_cast<double>(T.tv_usec) / 1e3;
  };
  return Ms(U.ru_utime) + Ms(U.ru_stime);
}

double perfbench::peakRssMb() {
  rusage U{};
  getrusage(RUSAGE_SELF, &U);
  return static_cast<double>(U.ru_maxrss) / 1024.0; // ru_maxrss is in KiB
}

double perfbench::median(std::vector<double> V) { return percentile(V, 50); }

double perfbench::percentile(std::vector<double> V, double P) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  const double Rank = P / 100.0 * static_cast<double>(V.size() - 1);
  const size_t Lo = static_cast<size_t>(std::floor(Rank));
  const size_t Hi = std::min(Lo + 1, V.size() - 1);
  return V[Lo] + (Rank - static_cast<double>(Lo)) * (V[Hi] - V[Lo]);
}

double perfbench::fileBytes(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary | std::ios::ate);
  return In ? static_cast<double>(In.tellg()) : 0;
}

namespace {

void pinProcess(const cpu_set_t &Set) {
  std::error_code Err;
  for (const auto &Task :
       std::filesystem::directory_iterator("/proc/self/task", Err))
    sched_setaffinity(std::atoi(Task.path().filename().c_str()), sizeof Set,
                      &Set);
}

} // namespace

CpuRotation::CpuRotation() {
  cpu_set_t Set;
  CPU_ZERO(&Set);
  if (sched_getaffinity(0, sizeof Set, &Set) == 0)
    for (int Cpu = 0; Cpu < CPU_SETSIZE; ++Cpu)
      if (CPU_ISSET(Cpu, &Set))
        Cpus.push_back(Cpu);
}

CpuRotation::~CpuRotation() {
  if (Cpus.size() < 2)
    return;
  cpu_set_t Set;
  CPU_ZERO(&Set);
  for (int Cpu : Cpus)
    CPU_SET(Cpu, &Set);
  pinProcess(Set);
}

void CpuRotation::next() {
  if (Cpus.size() < 2)
    return;
  cpu_set_t Set;
  CPU_ZERO(&Set);
  CPU_SET(Cpus[Next++ % Cpus.size()], &Set);
  pinProcess(Set);
}

void CpuRotation::nextApart(int Tid) {
  if (Cpus.size() < 2)
    return;
  next();
  cpu_set_t Set;
  CPU_ZERO(&Set);
  CPU_SET(Cpus[Next % Cpus.size()], &Set);
  sched_setaffinity(Tid, sizeof Set, &Set);
}

std::string Report::json() const {
  std::string Out = "{\"correct\": ";
  Out += correct() ? "true" : "false";
  Out += ", \"attempted\": " + std::to_string(Attempted);
  Out += ", \"failed\": " + std::to_string(Failed);
  Out += ", \"metrics\": {";
  char Buf[64];
  for (size_t I = 0; I < Metrics.size(); ++I) {
    const Metric &M = Metrics[I];
    // %.17g keeps every digit of the measured double; JSON has no NaN or
    // infinity, so a degenerate ratio is reported as 0.
    std::snprintf(Buf, sizeof Buf, "%.17g",
                  std::isfinite(M.Value) ? M.Value : 0.0);
    Out += (I ? ", " : "") + std::string("\"") + M.Name + "\": {\"value\": " +
           Buf + ", \"unit\": \"" + M.Unit + "\"}";
  }
  return Out + "}}";
}

unsigned Spans::open(const char *Name) {
  if (!On)
    return 0;
  const int Parent = Stack.empty() ? -1 : static_cast<int>(Stack.back());
  All.push_back({Name, monotonicNowMs(), 0, Parent, 0});
  Stack.push_back(static_cast<unsigned>(All.size() - 1));
  return Stack.back();
}

void Spans::close(unsigned Id) {
  if (!On)
    return;
  Span &S = All[Id];
  S.EndMs = monotonicNowMs();
  if (S.Parent >= 0)
    All[S.Parent].ChildMs += S.EndMs - S.StartMs;
  Stack.pop_back();
}

double Spans::selfMs(const std::string &Name) const {
  double Ms = 0;
  for (const Span &S : All)
    if (Name == S.Name)
      Ms += S.EndMs - S.StartMs - S.ChildMs;
  return Ms;
}

double Spans::rootMs() const {
  double Ms = 0;
  for (const Span &S : All)
    if (S.Parent < 0)
      Ms += S.EndMs - S.StartMs;
  return Ms;
}
