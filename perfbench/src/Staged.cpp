//===--- Staged.cpp - The check pipeline, one layer at a time -------------===//
//
// Part of memlint's benchmark (perfbench/README.md).
//
//===----------------------------------------------------------------------===//

#include "Staged.h"

#include "analysis/FunctionChecker.h"
#include "analysis/LibrarySpec.h"
#include "ast/AST.h"
#include "lex/Interner.h"
#include "parse/Parser.h"
#include "pp/Preprocessor.h"
#include "sema/Sema.h"

#include <set>

using namespace memlint;
using namespace perfbench;

StagedResult perfbench::stagedCheck(const VFS &Files,
                                    const std::vector<std::string> &Names,
                                    const CheckOptions &Options, Spans &S) {
  StagedResult Out;
  const ResourceBudget &Limits = Options.Flags.limits();
  BudgetState Budget(Limits);
  DiagnosticEngine Diags;
  Diags.setFloodControl(Limits.MaxDiagsPerClass, Limits.MaxDiagsTotal);
  TokenArena Arena;
  if (Options.Frontend) {
    if (Options.Frontend->published())
      Arena.SharedRead = &Options.Frontend->Interner;
    else
      Arena.SharedBuild = &Options.Frontend->Interner;
  }
  Preprocessor PP(Files, Diags, &Budget);
  PP.setTokenArena(&Arena);
  PP.setFrontend(Options.Frontend);
  PP.setMemoEnabled(Options.FrontendCache);

  std::vector<Token> Program;
  {
    Scoped Span(S, "pp");
    auto Append = [&Program](std::vector<Token> Toks) {
      if (!Toks.empty() && Toks.back().isEof())
        Toks.pop_back();
      Program.insert(Program.end(), Toks.begin(), Toks.end());
    };
    if (Options.IncludePrelude)
      Append(PP.processSource(libraryPreludeName(), libraryPreludeSource()));
    for (const std::string &Name : Names)
      Append(PP.process(Name));
    Token Eof;
    Eof.Kind = TokenKind::Eof;
    if (!Program.empty())
      Eof.Loc = Program.back().Loc;
    Program.push_back(Eof);
  }
  Out.TokensOut = Program.size();

  // The facade's suppression reduces to the global flag test when the
  // sources carry no control comments, as the generated corpora do not.
  const FlagSet &Flags = Options.Flags;
  Diags.setFilter([&Flags](const Diagnostic &D) {
    return D.Sev == Severity::Error || Flags.get(checkIdFlagName(D.Id));
  });

  const std::string MainName = Names.empty() ? "program" : Names.front();
  ASTContext Ctx;
  TranslationUnit *TU = nullptr;
  {
    Scoped Span(S, "parse");
    Parser P(std::move(Program), Ctx, Diags, &Budget);
    TU = P.parse(MainName);
  }
  {
    Scoped Span(S, "sema");
    Sema(Diags).check(*TU);
  }
  if (Options.Infer) {
    Scoped Span(S, "infer");
    AnnotationInfer Infer(*TU, Options.Flags, &Budget);
    Out.Infer = Infer.run();
  }
  {
    Scoped Span(S, "check");
    FunctionChecker FC(*TU, Options.Flags, Diags, &Budget);
    FC.checkAll();
  }
  Out.Functions = static_cast<unsigned>(TU->definedFunctions().size());

  // The facade's de-duplication of identical anomalies.
  std::set<std::string> Seen;
  for (const Diagnostic &D : Diags.diagnostics()) {
    if (!Seen.insert(std::to_string(static_cast<int>(D.Id)) + "|" +
                     D.Loc.str() + "|" + D.Message)
             .second)
      continue;
    Out.Rendered += D.str() + "\n";
    if (D.Sev == Severity::Anomaly)
      ++Out.Classes[checkIdFlagName(D.Id)];
  }
  if (Budget.degraded() || Budget.internalError() ||
      !Diags.overflowCounts().empty())
    Out.Status = "degraded";
  return Out;
}
