//===--- Common.h - Shared helpers of the memlint benchmark -----*- C++ -*-===//
//
// Part of memlint's benchmark (perfbench/README.md).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Clocks, resource usage, order statistics, spans and the metric report
/// shared by the end-to-end workloads and the traced run.
///
//===----------------------------------------------------------------------===//

#ifndef MEMLINT_PERFBENCH_COMMON_H
#define MEMLINT_PERFBENCH_COMMON_H

#include "support/MonotonicTime.h"

#include <string>
#include <vector>

namespace perfbench {

using memlint::monotonicNowMs;

/// Process CPU time (user + system, all threads) in milliseconds.
double cpuNowMs();

/// Peak resident set size of this process in MiB.
double peakRssMb();

/// Median of \p V (0 for an empty vector).
double median(std::vector<double> V);

/// The \p P-th percentile (0 < P < 100) of \p V by linear interpolation
/// between closest ranks, as Python's statistics.quantiles(method=
/// 'inclusive') computes it (0 for an empty vector).
double percentile(std::vector<double> V, double P);

/// Size of a file in bytes (0 if it cannot be read).
double fileBytes(const std::string &Path);

/// Moves the whole process, every thread, to each CPU it may run on in
/// turn. On shared hosts one CPU's speed drifts by up to half over
/// seconds, independently of the others. A single-threaded loop can run
/// on one CPU; stepping it to the next CPU before each pass makes every
/// run sample all of them. Threads started while pinned inherit the pin.
/// The destructor restores the original CPU set.
class CpuRotation {
public:
  CpuRotation();
  ~CpuRotation();
  CpuRotation(const CpuRotation &) = delete;
  CpuRotation &operator=(const CpuRotation &) = delete;

  /// Pins every thread of the process to the next CPU.
  void next();
  /// As next(), then moves thread \p Tid alone to the CPU after that one,
  /// so two threads that hand work to each other stay on two CPUs.
  void nextApart(int Tid);
  /// How many CPUs the rotation steps through (at least 1).
  size_t count() const { return Cpus.empty() ? 1 : Cpus.size(); }

private:
  std::vector<int> Cpus;
  size_t Next = 0;
};

/// One named measurement with its unit.
struct Metric {
  std::string Name;
  std::string Unit;
  double Value = 0;
};

/// What one run reports: the verdict tally and its metrics, printed as the
/// last line of standard output.
struct Report {
  unsigned long long Attempted = 0;
  unsigned long long Failed = 0;
  std::vector<Metric> Metrics;
  /// First few failure descriptions, echoed to stderr.
  std::vector<std::string> Failures;

  void add(const std::string &Name, const std::string &Unit, double Value) {
    Metrics.push_back({Name, Unit, Value});
  }
  /// Counts one checked operation; \p Ok false records a failure.
  void verdict(bool Ok, const std::string &What) {
    ++Attempted;
    if (!Ok) {
      ++Failed;
      if (Failures.size() < 8)
        Failures.push_back(What);
    }
  }
  bool correct() const { return Attempted != 0 && Failed == 0; }
  /// The result line: {"correct":..,"attempted":..,"failed":..,"metrics":..}.
  std::string json() const;
};

/// Spans recorded by the benchmark around its calls into each layer. A
/// span's self time is its duration minus the time its child spans cover.
class Spans {
public:
  /// \p On false makes a no-op recorder that never reads the clock, for
  /// timing the same code path untraced.
  explicit Spans(bool On = true) : On(On) {}

  /// Opens a span under the innermost open one. \returns its id.
  unsigned open(const char *Name);
  void close(unsigned Id);

  /// Sum of self time per span name, in milliseconds.
  double selfMs(const std::string &Name) const;
  /// Sum of the durations of the root spans (no parent).
  double rootMs() const;

private:
  struct Span {
    const char *Name;
    double StartMs;
    double EndMs;
    int Parent;
    double ChildMs;
  };
  bool On;
  std::vector<Span> All;
  std::vector<unsigned> Stack;
};

/// RAII span.
class Scoped {
public:
  Scoped(Spans &S, const char *Name) : S(S), Id(S.open(Name)) {}
  ~Scoped() { S.close(Id); }
  Scoped(const Scoped &) = delete;
  Scoped &operator=(const Scoped &) = delete;

private:
  Spans &S;
  unsigned Id;
};

} // namespace perfbench

#endif // MEMLINT_PERFBENCH_COMMON_H
