//===- tests/core/PFuzzerQueueStoreTest.cpp - Compact candidate store -----===//
//
// Part of the pfuzz project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The contract of the compact candidate store (core/CandidateStore.h):
/// representation only, never behavior. A campaign run on compact
/// prefix-suffix records must produce a FuzzReport byte-identical to the
/// same campaign run on the string-backed reference queue — on every
/// evaluation subject, crossed with the run cache, the resume engine,
/// queue-trim pressure, path-table decay and each heuristic term. Plus direct store unit tests
/// (materialization chains, trim + arena compaction, delta rescoring
/// against the reference at every heap position, the running byte
/// total) and the PathCounts decay regression.
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

} // namespace

TEST(PFuzzerQueueStoreTest, ReportIdenticalToReferenceQueueAcrossConfigs) {
  // The identity sweep: compact records against the by-value reference
  // queue, on all five evaluation subjects, crossed with every execution
  // optimization and with queue caps small enough to force trims. The
  // compact store rescores by deltas, so the sweep also covers a cap
  // small enough to decay the path table (the one event that raises a
  // group's score part) and every heuristic term switched off in turn.
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
  CandidateStore Store(/*Reference=*/false, /*MaxQueue=*/100);
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
  // A requeue-style record: empty suffix spliced at the full length is
  // its parent byte for byte at zero stored bytes.
  Store.push(Run2, P.Id, Out, 4, std::string_view(), 0x4, 1, 0, 4.0);
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
  CandidateStore Store(/*Reference=*/false, /*MaxQueue=*/4);
  BranchCoverageMap VBr;
  PathCountMap PathCounts;
  HeuristicOptions Heur;
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
  bool Trimmed = Store.rescore(VBr, PathCounts, Heur);
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
/// pushes carrying push-time scores (unfiltered counts, requeue-style
/// penalties), pops, coverage growth, path-count increases and decays,
/// and rescores with trims at a small cap — applied identically to every
/// store in \p Stores. \p AfterOp runs after each operation; \p OnRescore
/// after each rescore of all stores.
struct StoreScript {
  std::vector<CandidateStore *> Stores;
  HeuristicOptions Heur;
  size_t MaxQueue = 48;
  std::function<void()> AfterOp = [] {};
  std::function<void()> OnRescore = [] {};

  struct OpenRun {
    std::vector<uint32_t> Ids; // one group per store
    uint32_t BranchCount = 0;
    double AvgStack = 0;
    uint64_t PathHash = 0;
    uint32_t NumParentsBase = 0;
  };

  BranchCoverageMap VBr;
  PathCountMap PathCounts;
  std::vector<OpenRun> Runs;

  void run(uint64_t Seed, size_t Steps) {
    Rng R(Seed);
    for (size_t Step = 0; Step != Steps; ++Step) {
      uint64_t Op = R.below(100);
      if (Op < 8 || Runs.empty())
        openRun(R);
      else if (Op < 12)
        releaseRun(R.below(Runs.size()));
      else if (Op < 62)
        push(R);
      else if (Op < 76)
        pop();
      else if (Op < 84)
        VBr.set(static_cast<uint32_t>(R.below(300)));
      else if (Op < 91)
        PathCounts[R.below(12)] += static_cast<uint32_t>(1 + R.below(6));
      else if (Op < 93)
        decayPaths();
      else
        rescore();
    }
    while (!Runs.empty())
      releaseRun(Runs.size() - 1);
  }

  void openRun(Rng &R) {
    std::vector<uint32_t> Branches;
    // Mostly short lists, sometimes an early-campaign burst past the
    // store's 16-entry recycling cap.
    size_t Len = R.chance(1, 8) ? 20 + R.below(40) : R.below(12);
    for (size_t I = 0; I != Len; ++I) {
      uint32_t B = static_cast<uint32_t>(R.below(300));
      if (!VBr.test(B))
        Branches.push_back(B);
    }
    OpenRun Run;
    Run.BranchCount = static_cast<uint32_t>(Branches.size());
    // Stack averages are half-integers in campaigns; a third exercises
    // the store's full-recompute fallback.
    Run.AvgStack = R.chance(1, 10) ? R.below(40) / 3.0 : R.below(40) / 2.0;
    Run.PathHash = R.below(12);
    Run.NumParentsBase = static_cast<uint32_t>(R.below(6));
    for (CandidateStore *S : Stores)
      Run.Ids.push_back(S->makeRun(Branches, VBr.epoch(), Run.AvgStack,
                                   Run.PathHash, Run.NumParentsBase));
    Runs.push_back(Run);
    AfterOp();
  }

  void releaseRun(size_t Index) {
    for (size_t I = 0; I != Stores.size(); ++I)
      Stores[I]->releaseRun(Runs[Index].Ids[I]);
    Runs.erase(Runs.begin() + static_cast<std::ptrdiff_t>(Index));
    AfterOp();
  }

  void push(Rng &R) {
    const OpenRun &Run = Runs[R.below(Runs.size())];
    std::string Input(1 + R.below(24), 'a');
    for (char &C : Input)
      C = R.nextPrintable();
    uint32_t ReplacementLen = static_cast<uint32_t>(1 + R.below(4));
    uint32_t ParentDelta = static_cast<uint32_t>(R.below(2));
    CandidateFeatures F;
    F.NewBranches = Run.BranchCount; // unfiltered, as campaigns push
    F.InputLen = static_cast<uint32_t>(Input.size());
    F.ReplacementLen = ReplacementLen;
    F.AvgStackSize = Run.AvgStack;
    F.NumParents = Run.NumParentsBase + ParentDelta;
    const uint32_t *Count = PathCounts.find(Run.PathHash);
    F.PathCount = Count ? *Count : 0;
    double Score = heuristicScore(F, Heur) - static_cast<double>(R.below(4));
    uint64_t Hash = R.next();
    for (size_t I = 0; I != Stores.size(); ++I)
      Stores[I]->push(Run.Ids[I], CandidateStore::None, Input, 0, Input, Hash,
                      ReplacementLen, ParentDelta, Score);
    AfterOp();
    if (Stores[0]->queueSize() > MaxQueue)
      rescore();
  }

  void pop() {
    if (Stores[0]->empty())
      return;
    std::string First;
    CandidateStore::Popped P0 = Stores[0]->pop(First);
    Stores[0]->release(P0.Id);
    for (size_t I = 1; I != Stores.size(); ++I) {
      std::string Out;
      CandidateStore::Popped P = Stores[I]->pop(Out);
      Stores[I]->release(P.Id);
      EXPECT_EQ(Out, First);
      EXPECT_EQ(P.Score, P0.Score);
      EXPECT_EQ(P.InputHash, P0.InputHash);
      EXPECT_EQ(P.NumParents, P0.NumParents);
    }
    AfterOp();
  }

  void decayPaths() {
    PathCounts.filter(
        [](uint64_t, uint32_t &Count) { return (Count /= 2) != 0; });
  }

  void rescore() {
    for (CandidateStore *S : Stores)
      S->rescore(VBr, PathCounts, Heur);
    AfterOp();
    OnRescore();
  }
};

} // namespace

TEST(PFuzzerQueueStoreTest, DeltaRescoreMatchesReferenceAtEveryHeapPosition) {
  // The store-level exactness check behind the campaign sweep: the same
  // operation sequence on a compact store (delta rescoring) and a
  // reference store (full recompute of every candidate) must leave the
  // same score at every heap position after every rescore — which, with
  // the same positional heap calls, is the same pop order.
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
    CandidateStore Compact(/*Reference=*/false, Script.MaxQueue);
    CandidateStore Reference(/*Reference=*/true, Script.MaxQueue);
    Script.Stores = {&Compact, &Reference};
    Script.Heur = Terms[T];
    size_t Compared = 0;
    Script.OnRescore = [&] {
      ASSERT_EQ(Compact.queueSize(), Reference.queueSize());
      for (size_t Pos = 0; Pos != Compact.queueSize(); ++Pos) {
        ASSERT_EQ(Compact.scoreAt(Pos), Reference.scoreAt(Pos))
            << "heap position " << Pos;
        ASSERT_EQ(Compact.hashAt(Pos), Reference.hashAt(Pos))
            << "heap position " << Pos;
      }
      Compared += Compact.queueSize();
    };
    Script.run(/*Seed=*/100 + T, /*Steps=*/4000);
    EXPECT_GT(Compact.Stats.Trims, 0u);
    EXPECT_GT(Compared, 1000u);
  }
}

TEST(PFuzzerQueueStoreTest, RunningByteTotalMatchesFullWalk) {
  // bytesInUse() keeps group-list capacities as a running total; after
  // every operation it must equal a walk over every group slot, and the
  // sampled peak must be the walk's maximum.
  StoreScript Script;
  CandidateStore Store(/*Reference=*/false, Script.MaxQueue);
  Script.Stores = {&Store};
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
