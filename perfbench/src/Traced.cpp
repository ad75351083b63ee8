//===--- Traced.cpp - The per-layer run -----------------------------------===//
//
// Part of memlint's benchmark (perfbench/README.md).
//
// The traced run re-executes a workload's inputs through each layer's
// public entry points and records spans from the benchmark's own code, so
// the program under test runs unmodified. Every layer is measured on every
// workload's inputs; README.md maps which workload loads each layer and
// which end-to-end metric a layer's numbers should move.
//
//   * Staged passes (the partition): the facade and the staged replica
//     check the same units in turn. Layer self times plus the facade's
//     residue sum to the facade's wall time, and the replica must render
//     byte-identical diagnostics or the run fails. The replica also runs
//     with a no-op span recorder, which gives the cost of tracing.
//   * Linearity passes: the §7 corpus staged as one program at full size
//     and at 1/8 size, whatever the workload, so that growth with program
//     size shows in parse and check.
//   * Probes: the lexer over every distinct text, the batch driver with
//     outcome hooks, the journal writer replayed on the batch driver's
//     outcomes, and the result cache and service over a persisted cache.
//
//===----------------------------------------------------------------------===//

#include "Run.h"
#include "Staged.h"
#include "Workload.h"

#include "analysis/LibrarySpec.h"
#include "driver/BatchDriver.h"
#include "lex/Lexer.h"
#include "pp/FrontendCache.h"
#include "service/ResultCache.h"
#include "support/Journal.h"
#include "support/Rand.h"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <mutex>
#include <sstream>

using namespace memlint;
using namespace perfbench;

namespace {

/// Repetitions of each probe; a probe reports its median.
constexpr unsigned ProbeReps = 5;

const char *const Layers[] = {"pp", "parse", "sema", "infer", "check"};

/// A batch-shared front end built the way BatchDriver builds one, or none.
std::unique_ptr<FrontendContext> sharedFrontend(const Workload &W,
                                                const CheckOptions &Options) {
  if (!W.SharedFrontend || W.Mains.size() < 2)
    return nullptr;
  auto Ctx = std::make_unique<FrontendContext>();
  warmFrontendContext(*Ctx, W.Files, W.Mains.front(), Options);
  Ctx->publish();
  return Ctx;
}

/// One staged pass's measurements.
struct Pass {
  double FacadeMs = 0;   ///< Checker::checkFiles over every unit
  double TracedMs = 0;   ///< the staged replica, spans included
  double UntracedMs = 0; ///< the staged replica, no-op spans
  std::map<std::string, double> SelfMs;
  unsigned long long Tokens = 0;
  unsigned Functions = 0;
  InferStats Infer;
};

/// Checks every unit of \p W through the facade, through the staged
/// replica with spans, and through the replica with no-op spans,
/// verifying identity and the known answers. The three run back to back
/// on each unit, so the host's drift over a pass reaches all three alike;
/// their order rotates from unit to unit (starting at \p Rotation), so no
/// side always runs on caches another warmed.
Pass stagedPass(const Workload &W, CheckOptions Options, unsigned Rotation,
                Report &Rep) {
  Pass P;
  std::unique_ptr<FrontendContext> Ctx = sharedFrontend(W, Options);
  Options.Frontend = Ctx.get();
  const std::vector<std::vector<std::string>> Units = W.units();
  std::vector<CheckResult> Facade(Units.size());
  std::vector<StagedResult> Staged(Units.size());
  Spans S, Off(false);
  for (size_t I = 0; I < Units.size(); ++I) {
    for (unsigned Step = 0; Step < 3; ++Step) {
      const double T0 = monotonicNowMs();
      switch ((Rotation + I + Step) % 3) {
      case 0:
        Facade[I] = Checker::checkFiles(W.Files, Units[I], Options);
        P.FacadeMs += monotonicNowMs() - T0;
        break;
      case 1:
        stagedCheck(W.Files, Units[I], Options, Off);
        P.UntracedMs += monotonicNowMs() - T0;
        break;
      default: {
        Scoped Root(S, "staged");
        Staged[I] = stagedCheck(W.Files, Units[I], Options, S);
      }
      }
    }
  }
  P.TracedMs = S.rootMs();
  for (const char *L : Layers)
    P.SelfMs[L] = S.selfMs(L);
  for (size_t I = 0; I < Units.size(); ++I) {
    const StagedResult &R = Staged[I];
    const std::string File = W.WholeProgram ? "" : Units[I].front();
    Rep.verdict(R.Rendered == Facade[I].render() &&
                    R.Status == checkStatusName(Facade[I].Status),
                "staged replica differs from Checker::checkFiles on " +
                    Units[I].front());
    Rep.verdict(W.answered(File, R.Classes, R.Status),
                "known answer on " + Units[I].front());
    P.Tokens += R.TokensOut;
    P.Functions += R.Functions;
    P.Infer.Iterations += R.Infer.Iterations;
    P.Infer.AnnotationsAdded += R.Infer.AnnotationsAdded;
    P.Infer.Rejected += R.Infer.Rejected;
  }
  return P;
}

double medianOf(const std::vector<Pass> &Passes,
                double (*Get)(const Pass &)) {
  std::vector<double> V;
  for (const Pass &P : Passes)
    V.push_back(Get(P));
  return median(V);
}

double medianSelf(const std::vector<Pass> &Passes, const std::string &L) {
  std::vector<double> V;
  for (const Pass &P : Passes)
    V.push_back(P.SelfMs.at(L));
  return median(V);
}

/// lex: Lexer::lex over every distinct input text (the prelude and every
/// file), beside pp as an estimate of its lexing share.
void lexProbe(const Workload &W, Report &Rep) {
  std::vector<std::pair<std::string, std::string>> Texts = {
      {libraryPreludeName(), libraryPreludeSource()}};
  for (const std::string &Name : W.Files.names())
    Texts.push_back({Name, *W.Files.read(Name)});
  std::vector<double> Ms;
  double Tokens = 0;
  for (unsigned I = 0; I < ProbeReps; ++I) {
    TokenArena Arena;
    DiagnosticEngine Diags;
    Tokens = 0;
    const double T0 = monotonicNowMs();
    for (const auto &[Name, Text] : Texts)
      Tokens += Lexer(Name, Text, Diags, &Arena).lex().size();
    Ms.push_back(monotonicNowMs() - T0);
  }
  Rep.add("lex.self_ms", "ms", median(Ms));
  Rep.add("lex.mtok_per_s", "Mtok/s", Tokens / median(Ms) / 1e3);
}

/// driver + journal: BatchDriver over the main files with outcome hooks;
/// the journal writer replayed on the run's outcomes.
void driverProbe(const Workload &W, const Args &A, Report &Rep) {
  const std::string JournalPath = A.WorkDir + "/probe-journal.jsonl";
  const std::string ReplayPath = A.WorkDir + "/probe-replay.jsonl";
  std::vector<double> WarmupMs, Busy, FlushWait, Attempts, AppendUs;
  double JournalBytes = 0;
  for (unsigned I = 0; I < ProbeReps; ++I) {
    FrontendContext Ctx;
    const double W0 = monotonicNowMs();
    warmFrontendContext(Ctx, W.Files, W.Mains.front(), W.Check);
    WarmupMs.push_back(monotonicNowMs() - W0);

    std::mutex Mu;
    std::map<std::string, double> StartMs;
    BatchOptions B;
    B.Check = W.Check;
    B.Jobs = W.Jobs;
    B.SharedFrontend = W.SharedFrontend;
    B.JournalPath = JournalPath;
    B.OnBeforeAttempt = [&](const std::string &File, unsigned Attempt,
                            CheckOptions &) {
      if (Attempt != 1)
        return;
      const double Now = monotonicNowMs();
      std::lock_guard<std::mutex> Lock(Mu);
      StartMs[File] = Now;
    };
    B.OnFileOutcome = [&](const FileOutcome &O) {
      const double Now = monotonicNowMs();
      std::lock_guard<std::mutex> Lock(Mu);
      FlushWait.push_back(Now - (StartMs[O.File] + O.WallMs));
    };
    BatchResult R = BatchDriver(B).run(W.Files, W.Mains);
    double FileMs = 0, Tries = 0;
    for (const FileOutcome &O : R.Outcomes) {
      FileMs += O.WallMs;
      Tries += O.Attempts;
      Rep.verdict(W.answered(O.File, O.Classes, fileOutcomeName(O.Kind)),
                  "driver probe: " + O.File);
    }
    Busy.push_back(FileMs / (std::max(1u, B.Jobs) * R.WallMs));
    Attempts.push_back(Tries / R.Outcomes.size());
    JournalBytes = fileBytes(JournalPath);

    std::remove(ReplayPath.c_str());
    const double J0 = monotonicNowMs();
    for (const FileOutcome &O : R.Outcomes) {
      JournalEntry E;
      E.File = O.File;
      E.Status = fileOutcomeName(O.Kind);
      E.Reasons = O.Reasons;
      E.Attempts = O.Attempts;
      E.Anomalies = O.Anomalies;
      E.Suppressed = O.Suppressed;
      E.WallMs = O.WallMs;
      E.Diagnostics = O.Diagnostics;
      E.Classes = O.Classes;
      E.Inferred = O.Inferred;
      Rep.verdict(appendJournalLine(ReplayPath, journalEntryLine(E)),
                  "journal append");
    }
    AppendUs.push_back((monotonicNowMs() - J0) * 1e3 / R.Outcomes.size());
  }
  Rep.add("driver.warmup_ms", "ms", median(WarmupMs));
  Rep.add("driver.busy_ratio", "ratio", median(Busy));
  Rep.add("driver.flush_wait_ms_p95", "ms", percentile(FlushWait, 95));
  Rep.add("driver.attempts_per_file", "count", median(Attempts));
  Rep.add("journal.append_us_per_entry", "us", median(AppendUs));
  Rep.add("journal.bytes_per_file", "B", JournalBytes / W.Mains.size());
}

/// cache + service: a service cold-fills a persisted cache; the cache's
/// store, attach, lookup and flush are then timed directly, and a fresh
/// service answers warm requests over the same file.
void cacheProbe(Workload &W, const Args &A, Report &Rep) {
  const std::string Path = A.WorkDir + "/probe-cache.jsonl";
  const std::string StorePath = A.WorkDir + "/probe-store.jsonl";
  std::remove(Path.c_str());
  ServiceOptions O;
  O.Check = W.Check;
  O.CachePath = Path;
  O.FileSource = [&W](const std::string &Name) { return W.Files.read(Name); };
  {
    CheckService Cold(O);
    for (const std::string &F : W.Mains)
      Cold.handle({ServiceRequestKind::Check, F});
  }
  Rep.add("cache.bytes", "B", fileBytes(Path));
  const std::string Policy = checkOptionsFingerprint(W.Check);

  std::vector<CacheEntry> Entries;
  {
    std::istringstream In(*readFileText(Path));
    std::string Line;
    std::getline(In, Line); // header
    while (std::getline(In, Line)) {
      CacheEntry E;
      Rep.verdict(ResultCache::parseEntryLine(Line, E), "cache entry parse");
      Entries.push_back(std::move(E));
    }
  }
  std::vector<double> StoreUs;
  {
    std::remove(StorePath.c_str());
    ResultCache Store(Policy);
    Store.attachFile(StorePath);
    for (const CacheEntry &E : Entries) {
      const double T0 = monotonicNowMs();
      Store.store(E);
      StoreUs.push_back((monotonicNowMs() - T0) * 1e3);
    }
  }
  Rep.add("cache.store_us", "us", median(StoreUs));

  std::vector<double> AttachMs, FlushMs, LookupUs;
  for (unsigned I = 0; I < ProbeReps; ++I) {
    ResultCache C(Policy);
    const double T0 = monotonicNowMs();
    Rep.verdict(C.attachFile(Path), "cache attach");
    AttachMs.push_back(monotonicNowMs() - T0);
  }
  ResultCache C(Policy);
  C.attachFile(Path);
  auto HashOf = [&W](const std::string &Name) -> std::optional<std::string> {
    std::optional<std::string> Text = W.Files.read(Name);
    if (!Text)
      return std::nullopt;
    return fnv1aHex({*Text});
  };
  SplitMix64 Rng(mixSeed(A.Seed, 4));
  std::vector<std::string> Order = W.Mains;
  for (size_t I = Order.size(); I > 1; --I)
    std::swap(Order[I - 1], Order[Rng.below(I)]);
  for (const std::string &F : Order) {
    if (!W.BugClasses.count(F) && Rng.chance(EditPercent))
      W.edit(F);
    const double T0 = monotonicNowMs();
    const bool Hit = C.lookup(F, HashOf) != nullptr;
    if (Hit)
      LookupUs.push_back((monotonicNowMs() - T0) * 1e3);
  }
  const CacheStats &St = C.stats();
  for (unsigned I = 0; I < ProbeReps; ++I) {
    const double T0 = monotonicNowMs();
    Rep.verdict(C.flush(), "cache flush");
    FlushMs.push_back(monotonicNowMs() - T0);
  }
  Rep.add("cache.attach_ms", "ms", median(AttachMs));
  Rep.add("cache.lookup_us", "us", median(LookupUs));
  Rep.add("cache.flush_ms", "ms", median(FlushMs));
  Rep.add("cache.hit_ratio", "ratio",
          static_cast<double>(St.Hits) /
              static_cast<double>(std::max(1ull, St.Hits + St.Misses)));

  // The flushed file now holds exactly the entries that stayed fresh, so
  // a service re-attached to it answers every unedited request warm.
  std::vector<double> WarmUs;
  CheckService Warm(O);
  for (const std::string &F : Order) {
    const double T0 = monotonicNowMs();
    ServiceReply R = checkAndWait(Warm, F);
    if (R.CacheHit)
      WarmUs.push_back((monotonicNowMs() - T0) * 1e3);
    Rep.verdict(R.Status == "ok" &&
                    (W.BugClasses.count(F) ? R.Anomalies != 0
                                           : R.Anomalies == 0),
                "service probe: " + F);
  }
  Rep.add("service.hit_overhead_us", "us",
          median(WarmUs) - median(LookupUs));
}

} // namespace

Report perfbench::runTraced(const Args &A) {
  Report Rep;
  Workload W = makeWorkload(A.Workload, A.Seed, A.Modules);
  const unsigned Sec7 = A.Modules ? A.Modules : Sec7Modules;
  const Workload Whole = sec7Program(A.Seed, Sec7);
  const Workload Eighth = sec7Program(A.Seed, std::max(2u, Sec7 / 8));
  std::printf("perfbench: workload=%s seed=%llu corpus_digest=%s files=%zu "
              "mains=%zu kloc=%.3f (traced; sec7 digest=%s kloc=%.3f, 1/8 "
              "digest=%s kloc=%.3f)\n",
              W.Name.c_str(), static_cast<unsigned long long>(A.Seed),
              W.Digest.c_str(), W.Files.names().size(), W.Mains.size(),
              W.kloc(), Whole.Digest.c_str(), Whole.kloc(),
              Eighth.Digest.c_str(), Eighth.kloc());
  std::fflush(stdout);

  // pp.include_cache.hit_ratio from the counters the facade returns.
  {
    CheckOptions Counted = W.Check;
    Counted.CollectMetrics = true;
    std::unique_ptr<FrontendContext> Ctx = sharedFrontend(W, Counted);
    Counted.Frontend = Ctx.get();
    double Hit = 0, Miss = 0;
    for (const std::vector<std::string> &Unit : W.units()) {
      CheckResult R = Checker::checkFiles(W.Files, Unit, Counted);
      Hit += R.Metrics.Counters["pp.include_cache.hit"];
      Miss += R.Metrics.Counters["pp.include_cache.miss"];
    }
    Rep.add("pp.include_cache.hit_ratio", "ratio",
            Hit / std::max(1.0, Hit + Miss));
  }

  lexProbe(W, Rep);
  driverProbe(W, A, Rep);

  // No workload infers end to end, so one extra staged pass with
  // inference on measures the infer layer on the workload's corpus.
  CheckOptions Inferring = W.Check;
  Inferring.Infer = true;
  const Pass InferPass = stagedPass(W, Inferring, 0, Rep);

  std::vector<Pass> Full, WholeFull, WholeEighth;
  {
    CpuRotation Cpus;
    const double Deadline = monotonicNowMs() + A.Seconds * 1e3;
    do {
      Cpus.next();
      const unsigned Rotation = static_cast<unsigned>(Full.size());
      Full.push_back(stagedPass(W, W.Check, Rotation, Rep));
      WholeFull.push_back(stagedPass(Whole, Whole.Check, Rotation, Rep));
      WholeEighth.push_back(stagedPass(Eighth, Eighth.Check, Rotation, Rep));
    } while (monotonicNowMs() < Deadline);
  }

  // The cache probe edits modules, so it runs after the staged passes.
  cacheProbe(W, A, Rep);

  const double FacadeMs =
      medianOf(Full, [](const Pass &P) { return P.FacadeMs; });
  double Partitioned = 0;
  for (const char *L : Layers)
    Partitioned += medianSelf(Full, L);
  Rep.add("pp.self_ms", "ms", medianSelf(Full, "pp"));
  Rep.add("pp.tokens_out", "count", static_cast<double>(Full.front().Tokens));
  Rep.add("parse.self_ms", "ms", medianSelf(Full, "parse"));
  const double ParseKloc = medianSelf(Full, "parse") / W.kloc();
  Rep.add("parse.ms_per_kloc", "ms/kLOC", ParseKloc);
  // ms/kLOC of the whole §7 program at full size over that at 1/8 size.
  auto Linearity = [&](const char *Layer) {
    return (medianSelf(WholeFull, Layer) / Whole.kloc()) /
           (medianSelf(WholeEighth, Layer) / Eighth.kloc());
  };
  Rep.add("parse.linearity", "ratio", Linearity("parse"));
  Rep.add("sema.self_ms", "ms", medianSelf(Full, "sema"));
  const InferStats &IS = InferPass.Infer;
  Rep.add("infer.self_ms", "ms", InferPass.SelfMs.at("infer"));
  Rep.add("infer.iterations", "count", IS.Iterations);
  Rep.add("infer.accept_ratio", "ratio",
          static_cast<double>(IS.AnnotationsAdded) /
              std::max(1u, IS.AnnotationsAdded + IS.Rejected));
  const double CheckMs = medianSelf(Full, "check");
  Rep.add("check.self_ms", "ms", CheckMs);
  Rep.add("check.us_per_function", "us",
          CheckMs * 1e3 / std::max(1u, Full.front().Functions));
  Rep.add("check.linearity", "ratio", Linearity("check"));
  Rep.add("residue.self_ms", "ms", FacadeMs - Partitioned);
  Rep.add("residue.share", "ratio", (FacadeMs - Partitioned) / FacadeMs);
  Rep.add("trace.overhead", "ratio",
          medianOf(Full, [](const Pass &P) { return P.TracedMs; }) /
              medianOf(Full, [](const Pass &P) { return P.UntracedMs; }));
  std::fprintf(stderr,
               "perfbench: %zu staged passes (each + the sec7 program at "
               "full and 1/8 size)\n",
               Full.size());
  return Rep;
}
