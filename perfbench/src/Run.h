//===--- Run.h - The two kinds of benchmark run -----------------*- C++ -*-===//
//
// Part of memlint's benchmark (perfbench/README.md).
//
//===----------------------------------------------------------------------===//

#ifndef MEMLINT_PERFBENCH_RUN_H
#define MEMLINT_PERFBENCH_RUN_H

#include "Common.h"

#include "service/CheckService.h"

#include <cstdint>
#include <string>

namespace perfbench {

struct Args {
  std::string Workload;
  std::uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  /// Directory for the journal and cache files the runs write.
  std::string WorkDir = ".";
  /// Module-count override (0 = the workload's own size).
  unsigned Modules = 0;
};

/// The end-to-end run: tracing off, every end-to-end metric.
Report runEndToEnd(const Args &A);

/// The traced run: the same inputs through each layer's public entry
/// points with spans, every per-layer metric.
Report runTraced(const Args &A);

/// One closed-loop service request: submits a check of \p File and waits
/// for its reply. \p ReplyTid, when given, receives the id of the thread
/// that delivered the reply (the service's worker).
memlint::ServiceReply checkAndWait(memlint::CheckService &S,
                                   const std::string &File,
                                   int *ReplyTid = nullptr);

} // namespace perfbench

#endif // MEMLINT_PERFBENCH_RUN_H
