//===--- EndToEnd.cpp - The untraced workload loops -----------------------===//
//
// Part of memlint's benchmark (perfbench/README.md).
//
// Every workload is a closed loop from one client: the next check starts
// only when the previous verdict is in, because every memlint user waits
// for its verdict. Tracing and metrics collection stay off. Each loop
// applies the same seeded edit discipline (about one check in ten is
// preceded by an edit that keeps the module clean), so every workload
// reports latency for unchanged inputs (warm) and for just-edited ones.
//
//===----------------------------------------------------------------------===//

#include "Run.h"
#include "Workload.h"

#include "driver/BatchDriver.h"
#include "support/Rand.h"

#include <algorithm>
#include <condition_variable>
#include <cstdio>
#include <memory>
#include <mutex>
#include <set>

#include <sys/syscall.h>
#include <unistd.h>

using namespace memlint;
using namespace perfbench;

namespace {

/// Set-up is repeated at least SetupReps times and for at least
/// SetupSeconds, on each CPU in turn for an equal share of that time (a
/// set-up of a few milliseconds would otherwise start on cold caches after
/// every move); setup_s is the median.
constexpr unsigned SetupReps = 7;
constexpr double SetupSeconds = 2;

struct Samples {
  std::vector<double> PassMs; ///< one pass over the corpus
  std::vector<double> FileMs; ///< one main file (or module) checked
  std::vector<double> WarmMs; ///< ... whose input did not just change
  std::vector<double> EditMs; ///< ... right after an edit
  double CpuMs = 0;           ///< process CPU over the timed passes
  /// Peak RSS after the first pass, so it does not depend on how many
  /// passes fit in the run.
  double RssMb = 0;

  void file(double Ms, bool Edited) {
    FileMs.push_back(Ms);
    (Edited ? EditMs : WarmMs).push_back(Ms);
  }
  void pass(double Ms, double Cpu) {
    PassMs.push_back(Ms);
    CpuMs += Cpu;
    if (RssMb == 0)
      RssMb = peakRssMb();
  }
};

bool before(double DeadlineMs) { return monotonicNowMs() < DeadlineMs; }

/// Reports a percentile whose tail holds fewer than ten samples, so a
/// resized run shows where its percentiles stop being measured.
void noteTail(const char *Metric, size_t Samples, double Percentile) {
  const double Beyond = Samples * (100 - Percentile) / 100;
  if (Beyond < 10)
    std::fprintf(stderr,
                 "perfbench: %s rests on %zu samples, %.1f beyond it (fewer "
                 "than ten)\n",
                 Metric, Samples, Beyond);
}

/// batch_headers: repeated BatchDriver passes, with a seeded tenth of the
/// modules edited before each pass. The pool keeps every CPU busy, so the
/// process is left to the scheduler.
void loopBatch(Workload &W, const Args &A, Samples &S, Report &Rep) {
  SplitMix64 Rng(mixSeed(A.Seed, 2));
  BatchOptions B;
  B.Check = W.Check;
  B.Jobs = W.Jobs;
  B.SharedFrontend = W.SharedFrontend;
  if (W.Journal)
    B.JournalPath = A.WorkDir + "/journal.jsonl";
  const double Deadline = monotonicNowMs() + A.Seconds * 1e3;
  do {
    std::set<std::string> Edited;
    for (const std::string &M : W.Modules)
      if (Rng.chance(EditPercent)) {
        W.edit(M);
        Edited.insert(M);
      }
    const double C0 = cpuNowMs(), T0 = monotonicNowMs();
    BatchResult R = BatchDriver(B).run(W.Files, W.Mains);
    S.pass(monotonicNowMs() - T0, cpuNowMs() - C0);
    Rep.verdict(R.Outcomes.size() == W.Mains.size() && R.JournalNote.empty(),
                "batch pass: " + R.JournalNote);
    for (const FileOutcome &O : R.Outcomes) {
      S.file(O.WallMs, Edited.count(O.File) != 0);
      Rep.verdict(W.answered(O.File, O.Classes, fileOutcomeName(O.Kind)),
                  O.File);
    }
  } while (before(Deadline));
}

/// A distinct content: a file and whether it is currently edited.
using ContentKey = std::pair<std::string, bool>;

/// The service's reply to one distinct content.
struct Answer {
  std::string Content;
  ServiceReply Reply;
  unsigned long long Requests = 0;
  bool Consistent = true; ///< every reply for this content was identical
};

/// service_edits: a seeded permutation of all main files per pass, each
/// request sent through submit() after the previous reply arrived. Each
/// pass puts the client and the service's worker on two different CPUs,
/// the next pair each pass, so every request's hand-off crosses CPUs as it
/// does in deployment, while every run samples every CPU.
void loopService(Workload &W, CheckService &Svc, const Args &A, Samples &S,
                 std::map<ContentKey, Answer> &Seen) {
  SplitMix64 Rng(mixSeed(A.Seed, 3));
  std::vector<std::string> Order = W.Mains;
  int Worker = 0;
  checkAndWait(Svc, Order.front(), &Worker); // untimed, finds the worker
  CpuRotation Cpus;
  const double Deadline = monotonicNowMs() + A.Seconds * 1e3;
  do {
    Cpus.nextApart(Worker);
    for (size_t I = Order.size(); I > 1; --I)
      std::swap(Order[I - 1], Order[Rng.below(I)]);
    const double C0 = cpuNowMs(), T0 = monotonicNowMs();
    for (const std::string &F : Order) {
      const bool Edited = !W.BugClasses.count(F) && Rng.chance(EditPercent);
      if (Edited)
        W.edit(F);
      const double R0 = monotonicNowMs();
      ServiceReply Reply = checkAndWait(Svc, F);
      S.file(monotonicNowMs() - R0, Edited);
      Answer &Ans = Seen[{F, W.EditedNow[F]}];
      if (Ans.Requests++ == 0) {
        Ans.Content = *W.Files.read(F);
        Ans.Reply = std::move(Reply);
      } else if (Reply.Status != Ans.Reply.Status ||
                 Reply.Diagnostics != Ans.Reply.Diagnostics ||
                 Reply.Anomalies != Ans.Reply.Anomalies) {
        Ans.Consistent = false;
      }
    }
    S.pass(monotonicNowMs() - T0, cpuNowMs() - C0);
  } while (before(Deadline));
}

/// Outside the timed loop: every distinct content the service answered
/// must match a cold Checker run on the same text byte for byte, and that
/// run must give the known answer.
void verifyService(const Workload &W, const std::map<ContentKey, Answer> &Seen,
                   Report &Rep) {
  VFS Cold = W.Files;
  for (const auto &[Key, Ans] : Seen) {
    Cold.add(Key.first, Ans.Content);
    CheckResult R = Checker::checkFiles(Cold, {Key.first}, W.Check);
    const std::string Status = checkStatusName(R.Status);
    const bool Ok = Ans.Consistent && Ans.Reply.Status == Status &&
                    Ans.Reply.Diagnostics == R.render() &&
                    Ans.Reply.Anomalies == R.anomalyCount() &&
                    W.answered(Key.first, anomalyClasses(R), Status);
    for (unsigned long long I = 0; I < Ans.Requests; ++I)
      Rep.verdict(Ok, "service reply for " + Key.first);
  }
}

} // namespace

ServiceReply perfbench::checkAndWait(CheckService &S, const std::string &File,
                                     int *ReplyTid) {
  std::mutex Mu;
  std::condition_variable Cv;
  bool Done = false;
  ServiceReply Out;
  ServiceRequest Req;
  Req.Kind = ServiceRequestKind::Check;
  Req.File = File;
  S.submit(Req, [&](const ServiceReply &R) {
    std::lock_guard<std::mutex> Lock(Mu);
    if (ReplyTid)
      *ReplyTid = static_cast<int>(syscall(SYS_gettid));
    Out = R;
    Done = true;
    Cv.notify_one();
  });
  std::unique_lock<std::mutex> Lock(Mu);
  Cv.wait(Lock, [&] { return Done; });
  return Out;
}

Report perfbench::runEndToEnd(const Args &A) {
  Report Rep;
  Workload W;
  std::unique_ptr<CheckService> Svc;
  ServiceOptions O;
  O.CachePath = A.WorkDir + "/service-cache.jsonl";
  O.FileSource = [&W](const std::string &Name) { return W.Files.read(Name); };
  const bool Service = A.Workload == "service_edits";
  std::vector<double> SetupS;
  {
    CpuRotation Cpus;
    const double Start = monotonicNowMs();
    const double Share = SetupSeconds * 1e3 / Cpus.count();
    for (double NextMove = Start;
         SetupS.size() < SetupReps || before(Start + SetupSeconds * 1e3);) {
      if (!before(NextMove)) {
        Cpus.next();
        NextMove += Share;
      }
      Svc.reset(); // it reads W's files
      const double T0 = monotonicNowMs();
      W = makeWorkload(A.Workload, A.Seed, A.Modules);
      if (Service) {
        // Cold fill, flush on stop, then a fresh service re-attaching the
        // persisted cache: the state an editor session starts from.
        std::remove(O.CachePath.c_str());
        O.Check = W.Check;
        {
          // The fill is one thread's work for most of a second: it moves
          // across every CPU in equal slices, like the whole set-up does.
          const size_t Slice = W.Mains.size() / Cpus.count() + 1;
          CheckService Cold(O);
          for (size_t I = 0; I < W.Mains.size(); ++I) {
            if (I % Slice == 0)
              Cpus.next();
            Cold.handle({ServiceRequestKind::Check, W.Mains[I]});
          }
        }
        Svc = std::make_unique<CheckService>(O);
      }
      SetupS.push_back((monotonicNowMs() - T0) / 1e3);
    }
  }
  if (Service) { // re-attach once more, unpinned
    Svc.reset();
    Svc = std::make_unique<CheckService>(O);
  }
  std::printf("perfbench: workload=%s seed=%llu corpus_digest=%s files=%zu "
              "mains=%zu kloc=%.3f\n",
              W.Name.c_str(), static_cast<unsigned long long>(A.Seed),
              W.Digest.c_str(), W.Files.names().size(), W.Mains.size(),
              W.kloc());
  std::fflush(stdout);
  if (Svc)
    Rep.verdict(Svc->cacheLoadedClean(), "persisted cache re-attach");

  Samples S;
  std::map<ContentKey, Answer> Seen;
  if (Service)
    loopService(W, *Svc, A, S, Seen);
  else
    loopBatch(W, A, S, Rep);
  Svc.reset();
  verifyService(W, Seen, Rep);

  noteTail("file_ms_p95", S.FileMs.size(), 95);
  noteTail("warm_ms_p95", S.WarmMs.size(), 95);
  noteTail("edit_ms_p90", S.EditMs.size(), 90);
  std::fprintf(stderr,
               "perfbench: %zu passes, %zu file checks (%zu warm, %zu "
               "edited)\n",
               S.PassMs.size(), S.FileMs.size(), S.WarmMs.size(),
               S.EditMs.size());
  Rep.add("setup_s", "s", median(SetupS));
  Rep.add("ms_per_kloc", "ms/kLOC", median(S.PassMs) / W.kloc());
  Rep.add("cpu_ms_per_kloc", "ms/kLOC",
          S.CpuMs / (static_cast<double>(S.PassMs.size()) * W.kloc()));
  Rep.add("file_ms_p50", "ms", percentile(S.FileMs, 50));
  Rep.add("file_ms_p95", "ms", percentile(S.FileMs, 95));
  Rep.add("warm_ms_p50", "ms", percentile(S.WarmMs, 50));
  Rep.add("warm_ms_p95", "ms", percentile(S.WarmMs, 95));
  Rep.add("edit_ms_p50", "ms", percentile(S.EditMs, 50));
  Rep.add("edit_ms_p90", "ms", percentile(S.EditMs, 90));
  Rep.add("peak_rss_mb", "MB", S.RssMb);
  return Rep;
}
