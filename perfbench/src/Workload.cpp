//===--- Workload.cpp - Seeded inputs and known answers -------------------===//
//
// Part of memlint's benchmark (perfbench/README.md).
//
//===----------------------------------------------------------------------===//

#include "Workload.h"

#include "corpus/Corpus.h"
#include "support/Journal.h"
#include "support/Rand.h"

#include <algorithm>
#include <stdexcept>
#include <thread>

using namespace memlint;
using namespace perfbench;

const std::vector<std::string> &perfbench::workloadNames() {
  static const std::vector<std::string> Names = {
      "batch_headers", "service_edits"};
  return Names;
}

namespace {

/// The check classes that report each statically detectable bug kind.
/// This is the seeded-bug generator's contract (corpus/Corpus.h): a
/// use-after-free or double free of dead storage is reported as a use of
/// released storage, an undefined field read as usedef or compdef.
std::set<std::string> expectedClasses(corpus::BugKind Kind) {
  switch (Kind) {
  case corpus::BugKind::NullDeref:
    return {"nullderef", "nullpass", "nullret"};
  case corpus::BugKind::Leak:
    return {"mustfree"};
  case corpus::BugKind::UseAfterFree:
    return {"usereleased"};
  case corpus::BugKind::DoubleFree:
    return {"usereleased", "doublefree"};
  case corpus::BugKind::UndefRead:
    return {"usedef", "compdef"};
  default:
    return {};
  }
}

unsigned batchJobs() {
  return std::max(1u, std::min(4u, std::thread::hardware_concurrency()));
}

/// The generator options every corpus starts from.
corpus::GenOptions baseGen(std::uint64_t Seed) {
  corpus::GenOptions Gen;
  Gen.Modules = Sec7Modules;
  Gen.FunctionsPerModule = 25;
  Gen.Seed = static_cast<unsigned>(mixSeed(Seed, 0x5eed));
  return Gen;
}

/// Fills \p W's files, mains, answers and digest from the generator.
void generate(Workload &W, const corpus::GenOptions &Gen, bool WithBugs) {
  corpus::Program P = corpus::syntheticProgram(Gen);
  W.Files = P.Files;
  W.Modules = P.MainFiles;
  W.Mains = P.MainFiles;
  W.Lines = corpus::totalLines(P);
  if (WithBugs) {
    // The five kinds the checker detects statically, every variant, each
    // renamed apart so all of them share one file system.
    for (corpus::BugKind Kind : corpus::allBugKinds()) {
      if (!corpus::staticallyDetectable(Kind))
        continue;
      for (unsigned V = 0; V < corpus::seededBugVariants(); ++V) {
        corpus::Program Bug = corpus::seededBug(Kind, V);
        const std::string File = std::string("bug_") +
                                 corpus::bugKindName(Kind) + "_v" +
                                 std::to_string(V) + ".c";
        W.Files.add(File, *Bug.Files.read(Bug.MainFiles.front()));
        W.Mains.push_back(File);
        W.BugClasses[File] = expectedClasses(Kind);
        W.Lines += corpus::totalLines(Bug);
      }
    }
  }
  for (const std::string &M : W.Modules)
    W.Base[M] = *W.Files.read(M);

  std::vector<std::string> Parts;
  for (const std::string &File : W.Files.names()) {
    Parts.push_back(File);
    Parts.push_back(*W.Files.read(File));
  }
  W.Digest = fnv1aHex(Parts);
}

} // namespace

Workload perfbench::makeWorkload(const std::string &Name, std::uint64_t Seed,
                                 unsigned Modules) {
  Workload W;
  W.Name = Name;
  corpus::GenOptions Gen = baseGen(Seed);
  bool WithBugs = false;
  if (Name == "batch_headers") {
    Gen.SharedHeaders = 8;
    WithBugs = true;
    W.SharedFrontend = true;
    W.Jobs = batchJobs();
    W.Journal = true;
  } else if (Name == "service_edits") {
    WithBugs = true;
  } else {
    throw std::invalid_argument("unknown workload '" + Name + "'");
  }
  if (Modules != 0)
    Gen.Modules = Modules;
  generate(W, Gen, WithBugs);
  return W;
}

Workload perfbench::sec7Program(std::uint64_t Seed, unsigned Modules) {
  Workload W;
  W.Name = "sec7";
  W.WholeProgram = true;
  corpus::GenOptions Gen = baseGen(Seed);
  Gen.Modules = Modules;
  generate(W, Gen, false);
  return W;
}

std::vector<std::vector<std::string>> Workload::units() const {
  if (WholeProgram)
    return {Mains};
  std::vector<std::vector<std::string>> Out;
  for (const std::string &M : Mains)
    Out.push_back({M});
  return Out;
}

void Workload::edit(const std::string &Module) {
  // Toggles between the generated text and the text plus one clean
  // function, so every edit changes the content hash while the module
  // keeps its answer and the set of distinct contents stays small.
  bool &Edited = EditedNow[Module];
  Edited = !Edited;
  std::string Text = Base.at(Module);
  if (Edited)
    Text += "int " + Module.substr(0, Module.size() - 2) +
            "_edit(int x)\n{\n  return x + 1;\n}\n";
  Files.add(Module, std::move(Text));
}

bool Workload::answered(const std::string &File,
                        const std::map<std::string, unsigned> &Classes,
                        const std::string &Status) const {
  if (Status != "ok")
    return false;
  auto It = BugClasses.find(File);
  if (It == BugClasses.end())
    return Classes.empty();
  for (const auto &[Class, N] : Classes)
    if (N != 0 && It->second.count(Class))
      return true;
  return false;
}

std::map<std::string, unsigned>
perfbench::anomalyClasses(const CheckResult &R) {
  std::map<std::string, unsigned> Out;
  for (const Diagnostic &D : R.Diagnostics)
    if (D.Sev == Severity::Anomaly)
      ++Out[checkIdFlagName(D.Id)];
  return Out;
}
