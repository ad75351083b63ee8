//===--- main.cpp - memlint benchmark entry point -------------------------===//
//
// Part of memlint's benchmark (perfbench/README.md).
//
// Usage:
//   memlint_perfbench --workload <name> --seed <n> --seconds <s>
//                     --trace <0|1> [--workdir <dir>] [--modules <n>]
//
// Prints a corpus-digest line, then as its last line one JSON object with
// the verdict tally and the metrics. Exits 0 only when every checked
// verdict matched its known answer; otherwise the metrics are withheld.
//
//===----------------------------------------------------------------------===//

#include "Run.h"
#include "Workload.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

using namespace perfbench;

namespace {

int usage(const std::string &Why) {
  std::fprintf(stderr,
               "memlint_perfbench: %s\nusage: memlint_perfbench --workload "
               "<name> --seed <n> --seconds <s> --trace <0|1> [--workdir "
               "<dir>] [--modules <n>]\n",
               Why.c_str());
  return 2;
}

} // namespace

int main(int argc, char **argv) {
  Args A;
  for (int I = 1; I < argc; ++I) {
    const std::string Flag = argv[I];
    if (I + 1 >= argc)
      return usage("missing value for " + Flag);
    const std::string Value = argv[++I];
    char *End = nullptr;
    if (Flag == "--workload")
      A.Workload = Value;
    else if (Flag == "--seed")
      A.Seed = std::strtoull(Value.c_str(), &End, 10);
    else if (Flag == "--seconds")
      A.Seconds = std::strtod(Value.c_str(), &End);
    else if (Flag == "--trace")
      A.Trace = Value == "1";
    else if (Flag == "--workdir")
      A.WorkDir = Value;
    else if (Flag == "--modules")
      A.Modules = static_cast<unsigned>(std::strtoul(Value.c_str(), &End, 10));
    else
      return usage("unknown option " + Flag);
    if (End && *End)
      return usage("malformed value '" + Value + "' for " + Flag);
  }
  const std::vector<std::string> &Names = workloadNames();
  if (std::find(Names.begin(), Names.end(), A.Workload) == Names.end())
    return usage("unknown workload '" + A.Workload + "'");
  if (!(A.Seconds > 0))
    return usage("--seconds must be positive");

  try {
    Report Rep = A.Trace ? runTraced(A) : runEndToEnd(A);
    for (const std::string &F : Rep.Failures)
      std::fprintf(stderr, "perfbench: wrong verdict: %s\n", F.c_str());
    // Numbers measured on wrong answers, or on a staged replica that no
    // longer matches the facade, are not reported.
    if (!Rep.correct())
      Rep.Metrics.clear();
    std::printf("%s\n", Rep.json().c_str());
    return Rep.correct() ? 0 : 1;
  } catch (const std::exception &E) {
    std::fprintf(stderr, "memlint_perfbench: %s\n", E.what());
    return 1;
  }
}
