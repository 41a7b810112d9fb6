//===- tests/core/PFuzzerQueueStoreTest.cpp - Compact candidate store -----===//
//
// Part of the pfuzz project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The contract of the compact candidate store (core/CandidateStore.h):
/// representation and laziness only, never behavior. A campaign run on
/// lazily settled compact prefix-suffix records must produce a FuzzReport
/// byte-identical to the same campaign run on the eager string-backed
/// reference queue — on every evaluation subject, crossed with the run
/// cache, the resume engine, queue-trim pressure, path-table decay, each
/// heuristic term and four shards. Plus direct store unit tests
/// (materialization chains, trim + arena compaction, lazy against eager
/// pop sequences over random operation scripts, every pop against a
/// brute-force maximum, the running byte total) and the PathCounts decay
/// regression.
///
//===----------------------------------------------------------------------===//

#include "core/CandidateStore.h"
#include "core/PFuzzer.h"
#include "subjects/Subject.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

using namespace pfuzz;

namespace {

struct QueueConfig {
  const char *Name;
  uint32_t RunCache = 64;
  uint32_t ResumeCache = 0;
  size_t MaxQueue = 100000;
  HeuristicOptions Heur = {};
  uint32_t Shards = 1;
};

/// The default switches with the one term \p Off disabled.
HeuristicOptions without(bool HeuristicOptions::*Off) {
  HeuristicOptions H;
  H.*Off = false;
  return H;
}

FuzzReport fuzzQueue(const Subject &S, uint64_t Execs, uint64_t Seed,
                     const QueueConfig &C, bool Reference,
                     QueueStats *Stats = nullptr) {
  PFuzzerOptions Options;
  Options.RunCacheSize = C.RunCache;
  Options.ResumeCacheSize = C.ResumeCache;
  // Engage the resume engine on every input so short campaign inputs
  // exercise the warm handoff paths too.
  Options.ResumeMinLength = 0;
  Options.MaxQueue = C.MaxQueue;
  Options.ReferenceQueue = Reference;
  TelemetrySnapshot Telemetry;
  Options.TelemetryOut = &Telemetry;
  Options.Heur = C.Heur;
  Options.Shards = C.Shards;
  PFuzzer Tool(Options);
  FuzzerOptions Opts;
  Opts.Seed = Seed;
  Opts.MaxExecutions = Execs;
  FuzzReport Report = Tool.run(S, Opts);
  if (Stats)
    *Stats = Telemetry.Queue;
  return Report;
}

void expectIdenticalReports(const FuzzReport &A, const FuzzReport &B) {
  EXPECT_EQ(A.Executions, B.Executions);
  EXPECT_EQ(A.ValidInputs, B.ValidInputs);
  EXPECT_EQ(A.ValidBranches, B.ValidBranches);
  EXPECT_EQ(A.CoverageTimeline, B.CoverageTimeline);
}

/// What a store scores against, for direct store tests.
struct TickState {
  BranchCoverageMap VBr;
  PathCountMap PathCounts;
  HeuristicOptions Heur;
};

} // namespace

TEST(PFuzzerQueueStoreTest, ReportIdenticalToReferenceQueueAcrossConfigs) {
  // The identity sweep: lazily settled compact records against the eager
  // by-value reference queue, on all five evaluation subjects, crossed
  // with every execution optimization and with queue caps small enough
  // to force trims. The sweep also covers a cap small enough to decay
  // the path table (the one event that raises scores), every heuristic
  // term switched off in turn, and four shards (migration exports settle
  // the heap top; vBr-growing merges tick).
  const QueueConfig Configs[] = {
      {"default"},
      {"nocache-trim", /*RunCache=*/0, 0, /*MaxQueue=*/256},
      {"resume", 64, /*ResumeCache=*/64},
      {"all-trim", 64, /*ResumeCache=*/64, /*MaxQueue=*/512},
      {"path-decay", 64, 0, /*MaxQueue=*/32},
      {"no-length", 64, 0, 100000, without(&HeuristicOptions::LengthPenalty)},
      {"no-replacement", 64, 0, 100000,
       without(&HeuristicOptions::ReplacementBonus)},
      {"no-stack", 64, 0, 100000, without(&HeuristicOptions::StackSizeTerm)},
      {"no-parents", 64, 0, 100000,
       without(&HeuristicOptions::ParentCountTerm)},
      {"no-path", 64, 0, 100000, without(&HeuristicOptions::PathNovelty)},
      {"shards4", 64, 0, 100000, {}, /*Shards=*/4},
  };
  for (const Subject *S : evaluationSubjects()) {
    uint64_t Execs = S == &jsonSubject() ? 3000 : 1500;
    for (const QueueConfig &C : Configs) {
      SCOPED_TRACE(std::string(S->name()) + " config " + C.Name);
      FuzzReport Reference = fuzzQueue(*S, Execs, 1, C, /*Reference=*/true);
      FuzzReport Compact = fuzzQueue(*S, Execs, 1, C, /*Reference=*/false);
      expectIdenticalReports(Reference, Compact);
    }
  }
}

TEST(PFuzzerQueueStoreTest, TrimPressureConfigActuallyTrims) {
  // Guard against the sweep silently losing its trim coverage: the
  // small-cap config must overflow the queue and drop candidates.
  QueueConfig C{"nocache-trim", /*RunCache=*/0, 0, /*MaxQueue=*/256};
  QueueStats Stats;
  fuzzQueue(jsonSubject(), 3000, 1, C, /*Reference=*/false, &Stats);
  EXPECT_GT(Stats.Trims, 0u);
  EXPECT_GT(Stats.TrimmedCandidates, 0u);
}

TEST(PFuzzerQueueStoreTest, CompactStoreUsesLessQueueMemory) {
  // The structural claim behind the tentpole, asserted on sampled peaks
  // (the 2x Release-bench gate lives in CI; here only the direction, so
  // Debug and sanitizer builds stay robust).
  QueueConfig C{"default"};
  QueueStats Reference, Compact;
  fuzzQueue(jsonSubject(), 3000, 1, C, /*Reference=*/true, &Reference);
  fuzzQueue(jsonSubject(), 3000, 1, C, /*Reference=*/false, &Compact);
  ASSERT_GT(Reference.PeakBytes, 0u);
  ASSERT_GT(Compact.PeakBytes, 0u);
  EXPECT_LT(Compact.PeakBytes, Reference.PeakBytes);
  EXPECT_EQ(Compact.Pushes, Reference.Pushes);
  EXPECT_EQ(Compact.Rescores, Reference.Rescores);
  EXPECT_GT(Compact.PeakArenaBytes, 0u);
  EXPECT_EQ(Reference.PeakArenaBytes, 0u); // strings, not arena slices
}

TEST(PFuzzerQueueStoreTest, PathTableDecaysInsteadOfGrowingUnbounded) {
  // Regression for the unbounded PathCounts growth: with a small cap the
  // campaign must decay the table (halve counts, drop zeros) instead of
  // letting it grow past the cap, and still complete its budget.
  QueueConfig C{"tiny-cap", 64, 0, /*MaxQueue=*/32};
  QueueStats Stats;
  FuzzReport Report =
      fuzzQueue(jsonSubject(), 3000, 1, C, /*Reference=*/false, &Stats);
  EXPECT_EQ(Report.Executions, 3000u);
  EXPECT_GT(Stats.PathDecays, 0u);
  // The table can only exceed the cap by the insert that triggers each
  // decay; well under 2x is the "bounded" part of the contract.
  EXPECT_LE(Stats.PeakPathTable, 2 * C.MaxQueue);
}

TEST(PFuzzerQueueStoreTest, MaterializesParentChains) {
  // Direct store exercise: a substitution chain three records deep, each
  // splicing below its parent, must reassemble exactly.
  TickState State;
  CandidateStore Store(/*Reference=*/false, /*MaxQueue=*/100, State.VBr,
                       State.PathCounts, State.Heur);
  uint32_t Root = Store.internRoot("abc", 0x1);
  std::vector<uint32_t> Branches{10, 20, 30};
  uint32_t Run = Store.makeRun(Branches, 0, 1.5, 0x99, 0);
  Store.push(Run, Root, "abc", 2, "xy", 0x2, 2, 1, 5.0);
  std::string Out;
  CandidateStore::Popped P = Store.pop(Out);
  EXPECT_EQ(Out, "abxy");
  EXPECT_EQ(P.Score, 5.0);
  EXPECT_EQ(P.InputHash, 0x2u);
  EXPECT_EQ(P.NumParents, 1u);
  EXPECT_EQ(P.ReplacementLen, 2u);
  EXPECT_EQ(P.NewBranchCount, 3u);
  // The popped record (still pinned) becomes the next parent.
  uint32_t Run2 = Store.makeRun(Branches, 0, 1.5, 0x99, P.NumParents);
  Store.push(Run2, P.Id, Out, 3, "z", 0x3, 1, 1, 6.0);
  // A requeued record: empty suffix spliced at the full length is its
  // parent byte for byte at zero stored bytes.
  Store.pushRequeue(Run2, P.Id, Out, 0x4, 4.0);
  CandidateStore::Popped Child = Store.pop(Out);
  EXPECT_EQ(Out, "abxz");
  EXPECT_EQ(Child.NumParents, 2u);
  CandidateStore::Popped Requeue = Store.pop(Out);
  EXPECT_EQ(Out, "abxy");
  EXPECT_EQ(Requeue.NumParents, 1u);
  EXPECT_TRUE(Store.empty());
  Store.releaseRun(Run);
  Store.releaseRun(Run2);
  Store.release(Requeue.Id);
  Store.release(Child.Id);
  Store.release(P.Id);
  Store.release(Root);
}

TEST(PFuzzerQueueStoreTest, TrimReleasesRecordsAndCompactsArena) {
  // Overflow a tiny queue with large-suffix candidates: the rescore trim
  // must drop the worst-scored half, and with most of the arena then
  // dead, compaction must rebuild it — after which the survivors must
  // still materialize byte for byte (offsets patched correctly).
  TickState State;
  CandidateStore Store(/*Reference=*/false, /*MaxQueue=*/4, State.VBr,
                       State.PathCounts, State.Heur);
  uint32_t Root = Store.internRoot("", 0x1);
  std::vector<uint32_t> NoBranches;
  uint32_t Run = Store.makeRun(NoBranches, 0, 0.0, 0, 0);
  for (uint32_t I = 0; I != 12; ++I) {
    std::string Suffix(600, static_cast<char>('a' + I));
    // Score recomputation at rescore: 0 new branches - 600 length +
    // 2 * ReplacementLen - 0 stack - 1 parent - 0 path = 2 * I - 601,
    // strictly increasing in I, so the trim keeps the highest I's.
    Store.push(Run, Root, "", 0, Suffix, 0x100 + I, /*ReplacementLen=*/I,
               /*ParentDelta=*/1, 2.0 * I - 601);
  }
  ASSERT_EQ(Store.queueSize(), 12u);
  bool Trimmed = Store.rescore();
  EXPECT_TRUE(Trimmed);
  EXPECT_EQ(Store.queueSize(), 2u);
  EXPECT_EQ(Store.Stats.Trims, 1u);
  EXPECT_EQ(Store.Stats.TrimmedCandidates, 10u);
  EXPECT_EQ(Store.Stats.Compactions, 1u);
  EXPECT_GT(Store.Stats.ArenaBytesReclaimed, 5000u);
  std::string Out;
  CandidateStore::Popped First = Store.pop(Out);
  EXPECT_EQ(Out, std::string(600, 'a' + 11));
  EXPECT_EQ(First.Score, 2.0 * 11 - 601);
  Store.pop(Out);
  EXPECT_EQ(Out, std::string(600, 'a' + 10));
  EXPECT_TRUE(Store.empty());
}

namespace {

/// One random sequence of store operations — runs opened and released,
/// pushes at upper-bound scores, requeues at penalized scores, pops,
/// coverage growth and path-count folds (each followed by a tick, as
/// campaigns do), pending path-count increments, decays and overflows
/// (each followed by a full pass, trimming at a small cap) — applied
/// identically to every store in Stores. Beside the stores it keeps a
/// plain model of the queue: every queued candidate's features, push
/// sequence and push-time score, so a test can compute any candidate's
/// key in the eager queue by brute force, and checks every pop of every
/// store against it. \p AfterOp runs after each operation.
struct StoreScript {
  HeuristicOptions Heur;
  size_t MaxQueue = 48;
  /// The tick state the stores score against, and this window's path
  /// counts (folded into PathCounts at ticks and full passes).
  BranchCoverageMap VBr;
  PathCountMap PathCounts;
  PathCountMap PendingPaths;
  std::vector<std::unique_ptr<CandidateStore>> Stores;
  std::function<void()> AfterOp = [] {};
  size_t Pops = 0;

  struct OpenRun {
    std::vector<uint32_t> Ids; // one group per store
    std::vector<uint32_t> Branches; // as filtered at creation
    double AvgStack = 0;
    uint64_t PathHash = 0;
    uint32_t NumParentsBase = 0;
  };

  /// A queued candidate as the eager queue sees it.
  struct Queued {
    uint64_t Hash = 0;
    std::vector<uint32_t> Branches;
    CandidateFeatures F; // PathCount unused: read from the tick state
    uint64_t PathHash = 0;
    uint64_t Seq = 0;
    double PushScore = 0;
    /// Pushed since the last tick: the eager key is PushScore.
    bool Fresh = true;
  };

  std::vector<OpenRun> Runs;
  std::vector<Queued> Model;
  uint64_t NextSeq = 0;

  CandidateStore &addStore(bool Reference) {
    Stores.push_back(std::make_unique<CandidateStore>(Reference, MaxQueue,
                                                      VBr, PathCounts, Heur));
    return *Stores.back();
  }

  void run(uint64_t Seed, size_t Steps) {
    Rng R(Seed);
    for (size_t Step = 0; Step != Steps; ++Step) {
      uint64_t Op = R.below(100);
      if (Op < 8 || Runs.empty())
        openRun(R);
      else if (Op < 12)
        releaseRun(R.below(Runs.size()));
      else if (Op < 52)
        push(R, /*Requeue=*/false);
      else if (Op < 60)
        push(R, /*Requeue=*/true);
      else if (Op < 76)
        pop();
      else if (Op < 82) {
        VBr.set(static_cast<uint32_t>(R.below(300)));
        tick();
      } else if (Op < 90)
        PendingPaths[R.below(12)] += static_cast<uint32_t>(1 + R.below(6));
      else if (Op < 95)
        tick();
      else if (Op < 97)
        decayPaths();
      else if (Op < 98)
        renumber();
      else
        fullPass();
    }
    while (!Runs.empty())
      releaseRun(Runs.size() - 1);
  }

  uint32_t livePathCount(uint64_t PathHash) const {
    const uint32_t *Settled = PathCounts.find(PathHash);
    const uint32_t *Pending = PendingPaths.find(PathHash);
    return (Settled ? *Settled : 0) + (Pending ? *Pending : 0);
  }

  void foldPaths() {
    PendingPaths.filter([this](uint64_t PathHash, uint32_t &Count) {
      PathCounts[PathHash] += Count;
      return true;
    });
    PendingPaths.clear();
  }

  /// The candidate's key in the eager queue, in the current window.
  double eagerKey(const Queued &Q) const {
    if (Q.Fresh)
      return Q.PushScore;
    CandidateFeatures F = Q.F;
    F.NewBranches = 0;
    for (uint32_t B : Q.Branches)
      F.NewBranches += !VBr.test(B);
    const uint32_t *Count = PathCounts.find(Q.PathHash);
    F.PathCount = Count ? *Count : 0;
    return heuristicScore(F, Heur);
  }

  /// Index of the model's next pop: the largest (key, sequence).
  size_t bruteForceTop() const {
    size_t Best = 0;
    for (size_t I = 1; I != Model.size(); ++I) {
      double Key = eagerKey(Model[I]), BestKey = eagerKey(Model[Best]);
      if (Key > BestKey || (Key == BestKey && Model[I].Seq > Model[Best].Seq))
        Best = I;
    }
    return Best;
  }

  void openRun(Rng &R) {
    OpenRun Run;
    // Mostly short lists, sometimes an early-campaign burst past the
    // store's 16-entry recycling cap.
    size_t Len = R.chance(1, 8) ? 20 + R.below(40) : R.below(12);
    for (size_t I = 0; I != Len; ++I) {
      uint32_t B = static_cast<uint32_t>(R.below(300));
      if (!VBr.test(B))
        Run.Branches.push_back(B);
    }
    // Stack averages are half-integers in campaigns; a tenth are not.
    Run.AvgStack = R.chance(1, 10) ? R.below(40) / 3.0 : R.below(40) / 2.0;
    Run.PathHash = R.below(12);
    Run.NumParentsBase = static_cast<uint32_t>(R.below(6));
    for (const std::unique_ptr<CandidateStore> &S : Stores)
      Run.Ids.push_back(S->makeRun(Run.Branches, VBr.epoch(), Run.AvgStack,
                                   Run.PathHash, Run.NumParentsBase));
    Runs.push_back(std::move(Run));
    AfterOp();
  }

  void releaseRun(size_t Index) {
    for (size_t I = 0; I != Stores.size(); ++I)
      Stores[I]->releaseRun(Runs[Index].Ids[I]);
    Runs.erase(Runs.begin() + static_cast<std::ptrdiff_t>(Index));
    AfterOp();
  }

  void push(Rng &R, bool Requeue) {
    const OpenRun &Run = Runs[R.below(Runs.size())];
    std::string Input(1 + R.below(24), 'a');
    for (char &C : Input)
      C = R.nextPrintable();
    Queued Q;
    Q.Hash = R.next();
    Q.Branches = Run.Branches;
    Q.PathHash = Run.PathHash;
    Q.Seq = NextSeq++;
    // As campaigns push: the run's capture-time count and the live path
    // count (an upper bound of every later tick-state score); requeues
    // subtract a penalty and carry replacement length 1, no parent step.
    Q.F.NewBranches = static_cast<uint32_t>(Run.Branches.size());
    Q.F.InputLen = static_cast<uint32_t>(Input.size());
    Q.F.ReplacementLen = Requeue ? 1 : static_cast<uint32_t>(1 + R.below(4));
    Q.F.AvgStackSize = Run.AvgStack;
    uint32_t ParentDelta = Requeue ? 0 : static_cast<uint32_t>(R.below(2));
    Q.F.NumParents = Run.NumParentsBase + ParentDelta;
    Q.F.PathCount = livePathCount(Run.PathHash);
    Q.PushScore = heuristicScore(Q.F, Heur);
    if (Requeue)
      Q.PushScore -= static_cast<double>(1 + R.below(12));
    for (size_t I = 0; I != Stores.size(); ++I) {
      CandidateStore &S = *Stores[I];
      if (Requeue) {
        // A requeue re-enters its parent record itself.
        uint32_t Parent = S.internRoot(Input, Q.Hash);
        S.pushRequeue(Run.Ids[I], Parent, Input, Q.Hash, Q.PushScore);
        S.release(Parent);
      } else {
        S.push(Run.Ids[I], CandidateStore::None, Input, 0, Input, Q.Hash,
               Q.F.ReplacementLen, ParentDelta, Q.PushScore);
      }
    }
    Model.push_back(std::move(Q));
    AfterOp();
    if (Stores[0]->queueSize() > MaxQueue)
      fullPass();
  }

  void pop() {
    if (Stores[0]->empty())
      return;
    ++Pops;
    size_t Top = bruteForceTop();
    double Key = eagerKey(Model[Top]);
    for (const std::unique_ptr<CandidateStore> &S : Stores) {
      std::string Out;
      CandidateStore::Popped P = S->pop(Out);
      S->release(P.Id);
      EXPECT_EQ(P.InputHash, Model[Top].Hash);
      EXPECT_EQ(P.Score, Key);
      EXPECT_EQ(Out.size(), Model[Top].F.InputLen);
    }
    Model.erase(Model.begin() + static_cast<std::ptrdiff_t>(Top));
    AfterOp();
  }

  void tick() {
    foldPaths();
    for (const std::unique_ptr<CandidateStore> &S : Stores)
      S->tick();
    for (Queued &Q : Model)
      Q.Fresh = false;
    AfterOp();
  }

  void decayPaths() {
    foldPaths();
    PathCounts.filter(
        [](uint64_t, uint32_t &Count) { return (Count /= 2) != 0; });
    fullPass();
  }

  void renumber() {
    for (const std::unique_ptr<CandidateStore> &S : Stores)
      S->renumberSequences();
    AfterOp();
  }

  void fullPass() {
    foldPaths();
    for (const std::unique_ptr<CandidateStore> &S : Stores)
      S->rescore();
    for (Queued &Q : Model)
      Q.Fresh = false;
    if (Model.size() > MaxQueue) {
      // The eager trim keeps the MaxQueue / 2 first candidates.
      std::vector<std::pair<double, uint64_t>> Keys;
      for (const Queued &Q : Model)
        Keys.emplace_back(eagerKey(Q), Q.Seq);
      std::sort(Keys.begin(), Keys.end(), std::greater<>());
      std::pair<double, uint64_t> Last = Keys[MaxQueue / 2 - 1];
      std::erase_if(Model, [&](const Queued &Q) {
        return std::make_pair(eagerKey(Q), Q.Seq) < Last;
      });
    }
    for (const std::unique_ptr<CandidateStore> &S : Stores)
      EXPECT_EQ(S->queueSize(), Model.size());
    AfterOp();
  }
};

} // namespace

TEST(PFuzzerQueueStoreTest, LazyPopSequenceMatchesEagerQueue) {
  // The store-level exactness check behind the campaign sweep: the same
  // random operation script on a lazily settled compact store and on the
  // eager reference store (which re-scores everything at every tick)
  // must pop the same candidate at the same score every time, under
  // each heuristic switch — and so must the brute-force model the
  // script keeps beside them.
  const HeuristicOptions Terms[] = {
      HeuristicOptions(),
      without(&HeuristicOptions::LengthPenalty),
      without(&HeuristicOptions::ReplacementBonus),
      without(&HeuristicOptions::StackSizeTerm),
      without(&HeuristicOptions::ParentCountTerm),
      without(&HeuristicOptions::PathNovelty),
  };
  for (size_t T = 0; T != std::size(Terms); ++T) {
    SCOPED_TRACE("heuristic config " + std::to_string(T));
    StoreScript Script;
    Script.Heur = Terms[T];
    CandidateStore &Lazy = Script.addStore(/*Reference=*/false);
    CandidateStore &Eager = Script.addStore(/*Reference=*/true);
    Script.run(/*Seed=*/100 + T, /*Steps=*/6000);
    EXPECT_GT(Lazy.Stats.Trims, 0u);
    EXPECT_EQ(Lazy.Stats.Trims, Eager.Stats.Trims);
    EXPECT_GT(Lazy.Stats.Ticks, 100u);
    EXPECT_GT(Lazy.Stats.Resettles, 100u);
    EXPECT_EQ(Eager.Stats.Resettles, 0u);
    EXPECT_GT(Script.Pops, 500u);
  }
}

TEST(PFuzzerQueueStoreTest, EveryPopIsTheTickStateMaximum) {
  // On a queue small enough to search exhaustively, each pop of the lazy
  // store must be the candidate with the largest (score, sequence) under
  // the tick-state scores, checked against the script's brute-force
  // model before every pop.
  for (uint64_t Seed : {1u, 2u, 3u}) {
    SCOPED_TRACE("seed " + std::to_string(Seed));
    StoreScript Script;
    Script.MaxQueue = 12;
    CandidateStore &Lazy = Script.addStore(/*Reference=*/false);
    Script.run(Seed, /*Steps=*/3000);
    EXPECT_GT(Lazy.Stats.Trims, 0u);
    EXPECT_GT(Lazy.Stats.Resettles, 0u);
    EXPECT_GT(Script.Pops, 300u);
  }
}

TEST(PFuzzerQueueStoreTest, RunningByteTotalMatchesFullWalk) {
  // bytesInUse() keeps group-list capacities as a running total; after
  // every operation it must equal a walk over every group slot, and the
  // sampled peak must be the walk's maximum.
  StoreScript Script;
  CandidateStore &Store = Script.addStore(/*Reference=*/false);
  size_t PeakWalk = 0;
  Script.AfterOp = [&] {
    size_t Walk = Store.recountBytesInUse();
    ASSERT_EQ(Store.bytesInUse(), Walk);
    PeakWalk = std::max(PeakWalk, Walk);
    Store.samplePeaks();
  };
  Script.run(/*Seed=*/7, /*Steps=*/4000);
  EXPECT_GT(Store.Stats.Trims, 0u);
  EXPECT_EQ(Store.Stats.PeakBytes, PeakWalk);
}
