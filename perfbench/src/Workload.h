//===--- Workload.h - Seeded inputs and known answers -----------*- C++ -*-===//
//
// Part of memlint's benchmark (perfbench/README.md).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A workload's inputs: a generated corpus, the options it is checked
/// under, a seeded edit stream, and the known answer of every input. The
/// answers come from the generator (clean synthetic modules have none,
/// each seeded bug has its kind's check classes), never from the checker.
///
//===----------------------------------------------------------------------===//

#ifndef MEMLINT_PERFBENCH_WORKLOAD_H
#define MEMLINT_PERFBENCH_WORKLOAD_H

#include "checker/Checker.h"
#include "support/VFS.h"

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

namespace perfbench {

/// Names of the workloads, in the order BENCHMARK.json lists them.
const std::vector<std::string> &workloadNames();

/// Percent of checks preceded by an edit, in every loop that edits.
constexpr unsigned EditPercent = 10;

struct Workload {
  std::string Name;
  /// Current contents; edits replace module texts in place.
  memlint::VFS Files;
  /// Clean synthetic modules, the only files edits touch.
  std::vector<std::string> Modules;
  /// Every checked main file: the modules, then the seeded bugs.
  std::vector<std::string> Mains;
  /// Seeded-bug file -> the check classes (flag names) that report its
  /// kind. A bug is answered correctly when one of them is reported.
  std::map<std::string, std::set<std::string>> BugClasses;
  /// True when Mains is checked as one program (the paper's §7 setting,
  /// see sec7Program); otherwise every main file is its own translation
  /// unit.
  bool WholeProgram = false;
  memlint::CheckOptions Check;
  /// Whether a batch over these inputs builds a shared front end, and the
  /// batch's worker count.
  bool SharedFrontend = false;
  unsigned Jobs = 1;
  /// Whether the end-to-end batch writes a run journal.
  bool Journal = false;
  /// Source lines of the generated corpus (headers included).
  unsigned Lines = 0;
  /// FNV-1a digest over every generated file name and text.
  std::string Digest;

  double kloc() const { return Lines / 1000.0; }
  /// The translation units one pass over the inputs checks.
  std::vector<std::vector<std::string>> units() const;

  /// Edits \p Module: its content hash changes, its answer (no anomalies)
  /// does not.
  void edit(const std::string &Module);

  /// Whether a result with these anomaly classes and status is the known
  /// answer for main file \p File. A clean module (or the whole program,
  /// File = "") has no anomalies; a seeded bug reports one of its classes.
  bool answered(const std::string &File,
                const std::map<std::string, unsigned> &Classes,
                const std::string &Status) const;

  /// Each module's generated text, and whether it is currently edited.
  std::map<std::string, std::string> Base;
  std::map<std::string, bool> EditedNow;
};

/// Builds workload \p Name from \p Seed. \p Modules overrides the default
/// module count when nonzero (the smoke test's tiny size).
Workload makeWorkload(const std::string &Name, std::uint64_t Seed,
                      unsigned Modules = 0);

/// The paper's §7 scaling corpus from \p Seed: \p Modules annotated
/// modules x 25 functions, no shared headers, checked as one program. The
/// traced run stages it at full size and at 1/8 size for the linearity
/// ratios, whatever the workload.
Workload sec7Program(std::uint64_t Seed, unsigned Modules);

/// The module count of the full-size §7 corpus (~103 kLOC).
constexpr unsigned Sec7Modules = 400;

/// Anomaly counts by check-class flag name, as the batch driver records
/// them in FileOutcome::Classes.
std::map<std::string, unsigned> anomalyClasses(const memlint::CheckResult &R);

} // namespace perfbench

#endif // MEMLINT_PERFBENCH_WORKLOAD_H
