//===--- Staged.h - The check pipeline, one layer at a time -----*- C++ -*-===//
//
// Part of memlint's benchmark (perfbench/README.md).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A replica of Checker::checkFiles built from each layer's public entry
/// points: prelude + files -> Preprocessor -> Parser -> Sema ->
/// AnnotationInfer -> FunctionChecker, with a span around every stage.
/// The traced run trusts its per-layer numbers only while the replica's
/// rendered diagnostics stay byte-identical to the facade's on the same
/// input; whatever the facade does beyond the staged calls is its
/// residue.
///
//===----------------------------------------------------------------------===//

#ifndef MEMLINT_PERFBENCH_STAGED_H
#define MEMLINT_PERFBENCH_STAGED_H

#include "Common.h"

#include "analysis/AnnotationInfer.h"
#include "checker/Checker.h"

#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct StagedResult {
  std::string Rendered;           ///< as CheckResult::render() prints it
  std::string Status = "ok";      ///< "ok" or "degraded"
  unsigned long long TokensOut = 0; ///< tokens the preprocessor emitted
  unsigned Functions = 0;         ///< function definitions checked
  memlint::InferStats Infer;      ///< zero unless Options.Infer
  std::map<std::string, unsigned> Classes; ///< anomaly counts by class
};

/// Checks \p Names as one program through the staged pipeline, recording
/// the spans "pp", "parse", "sema", "infer" and "check" into \p S. The
/// replica covers what the benchmark's corpora use: C sources, no control
/// comments, no cancellation or fault injection.
StagedResult stagedCheck(const memlint::VFS &Files,
                         const std::vector<std::string> &Names,
                         const memlint::CheckOptions &Options, Spans &S);

} // namespace perfbench

#endif // MEMLINT_PERFBENCH_STAGED_H
