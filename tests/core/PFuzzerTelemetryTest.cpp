//===- tests/core/PFuzzerTelemetryTest.cpp - Campaign telemetry tests -----===//
//
// Part of the pfuzz project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The campaign-level telemetry contract: the TelemetrySnapshot agrees
/// with the report it describes, wiring a snapshot sink or a heartbeat
/// emitter never perturbs the FuzzReport, the sharded engine folds its
/// shard loops into one balanced total, and the campaign runners
/// aggregate per-seed snapshots in seed order at any Jobs value.
///
//===----------------------------------------------------------------------===//

#include "core/PFuzzer.h"
#include "eval/Campaign.h"
#include "support/Telemetry.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <unistd.h>

using namespace pfuzz;

namespace {

struct RunWithStats {
  FuzzReport Report;
  TelemetrySnapshot Telemetry;
};

struct RunConfig {
  uint32_t Shards = 1;
  uint32_t ResumeCache = 0;
  uint32_t RunCache = PFuzzerOptions().RunCacheSize;
};

RunWithStats runInstrumented(const Subject &S, uint64_t Execs, uint64_t Seed,
                             const RunConfig &C,
                             HeartbeatEmitter *Heartbeat = nullptr,
                             bool WithTelemetry = true) {
  RunWithStats Out;
  PFuzzerOptions Options;
  Options.Shards = C.Shards;
  Options.ResumeCacheSize = C.ResumeCache;
  Options.RunCacheSize = C.RunCache;
  if (WithTelemetry)
    Options.TelemetryOut = &Out.Telemetry;
  Options.Heartbeat = Heartbeat;
  PFuzzer Tool(Options);
  FuzzerOptions Opts;
  Opts.Seed = Seed;
  Opts.MaxExecutions = Execs;
  Out.Report = Tool.run(S, Opts);
  return Out;
}

void expectIdenticalReports(const FuzzReport &A, const FuzzReport &B) {
  EXPECT_EQ(A.Executions, B.Executions);
  EXPECT_EQ(A.ValidInputs, B.ValidInputs);
  EXPECT_EQ(A.ValidBranches, B.ValidBranches);
  EXPECT_EQ(A.CoverageTimeline, B.CoverageTimeline);
}

/// The campaign-level counts must describe the report they ride with.
void expectSnapshotMatchesReport(const RunWithStats &R) {
  const TelemetrySnapshot &T = R.Telemetry;
  EXPECT_EQ(T.Executions, R.Report.Executions);
  EXPECT_EQ(T.ValidInputs, R.Report.ValidInputs.size());
  EXPECT_EQ(T.FrontierSize, R.Report.ValidBranches.size());
}

} // namespace

TEST(PFuzzerTelemetryTest, SnapshotSinkDoesNotPerturbReport) {
  for (uint32_t Shards : {1u, 3u}) {
    SCOPED_TRACE("shards=" + std::to_string(Shards));
    RunConfig C;
    C.Shards = Shards;
    RunWithStats Without =
        runInstrumented(jsonSubject(), 3000, 5, C, nullptr,
                        /*WithTelemetry=*/false);
    RunWithStats With = runInstrumented(jsonSubject(), 3000, 5, C);
    expectIdenticalReports(Without.Report, With.Report);
  }
}

TEST(PFuzzerTelemetryTest, HeartbeatDoesNotPerturbReport) {
  std::string Path = ::testing::TempDir() + "pfuzz_hb_report_" +
                     std::to_string(::getpid()) + ".ndjson";
  for (uint32_t Shards : {1u, 2u}) {
    SCOPED_TRACE("shards=" + std::to_string(Shards));
    RunConfig C;
    C.Shards = Shards;
    RunWithStats Without = runInstrumented(tinycSubject(), 2500, 3, C);
    HeartbeatEmitter HB;
    ASSERT_TRUE(HB.open(Path, 250));
    RunWithStats With = runInstrumented(tinycSubject(), 2500, 3, C, &HB);
    EXPECT_GT(HB.beats(), 0u);
    EXPECT_TRUE(HB.close());
    expectIdenticalReports(Without.Report, With.Report);
    expectSnapshotMatchesReport(With);
  }
  std::remove(Path.c_str());
}

TEST(PFuzzerTelemetryTest, ShardedSnapshotAggregatesShardLoops) {
  // The sharded engine folds per-shard snapshots: executions sum to the
  // campaign total while the frontier reports the merged union (filled
  // after the shard reports merge), and the sharding subtree sums every
  // shard's ledger, so it balances globally.
  RunConfig C;
  C.Shards = 4;
  RunWithStats R = runInstrumented(dyckSubject(), 4000, 2, C);
  expectSnapshotMatchesReport(R);
  const ShardStats &Sh = R.Telemetry.Sharding;
  EXPECT_GT(Sh.SyncPoints, 0u);
  EXPECT_GT(Sh.DeltasPublished, 0u);
  EXPECT_EQ(Sh.DeltasPublished, Sh.DeltasMerged);
  EXPECT_EQ(Sh.MigrationsAccepted + Sh.MigrationsRejected,
            Sh.MigrationsOffered);
}

TEST(PFuzzerTelemetryTest, DuplicateCandidatesIndependentOfReplayLayers) {
  // The dedup drops a large share of the substitution candidates on json,
  // and the count is a property of the search alone: the run cache and
  // prefix resumption replay runs without changing what is generated.
  RunWithStats Plain = runInstrumented(jsonSubject(), 6000, 3, {});
  EXPECT_GT(Plain.Telemetry.Queue.DuplicateCandidates, 0u);
  RunConfig NoCache;
  NoCache.RunCache = 0;
  RunConfig Resuming;
  Resuming.ResumeCache = 64;
  for (const RunConfig &C : {NoCache, Resuming}) {
    RunWithStats Other = runInstrumented(jsonSubject(), 6000, 3, C);
    expectIdenticalReports(Plain.Report, Other.Report);
    EXPECT_EQ(Other.Telemetry.Queue.DuplicateCandidates,
              Plain.Telemetry.Queue.DuplicateCandidates);
    EXPECT_EQ(Other.Telemetry.Queue.Pushes, Plain.Telemetry.Queue.Pushes);
  }
}

TEST(PFuzzerTelemetryTest, CampaignRunnerAggregatesSeedSnapshots) {
  // CampaignResult::Telemetry accumulates per-seed snapshots in seed
  // order: executions sum over every run, the total matches the
  // runner's own TotalExecutions accounting, and the per-layer counters
  // equal the sums of the same seeds run one at a time.
  ToolOptions Tools;
  CampaignResult Cell = runCampaign(ToolKind::PFuzzer, arithSubject(), 1500,
                                    1, /*Runs=*/3, /*Jobs=*/1, Tools);
  EXPECT_EQ(Cell.Telemetry.Executions, Cell.TotalExecutions);
  EXPECT_GE(Cell.Telemetry.FrontierSize,
            Cell.Report.ValidBranches.size());
  TelemetrySnapshot Summed;
  for (uint64_t Seed = 1; Seed <= 3; ++Seed)
    Summed.accumulate(runCampaign(ToolKind::PFuzzer, arithSubject(), 1500,
                                  Seed, /*Runs=*/1, /*Jobs=*/1, Tools)
                          .Telemetry);
  EXPECT_EQ(Cell.Telemetry.Resume.Probes, Summed.Resume.Probes);
  EXPECT_EQ(Cell.Telemetry.Queue.Pushes, Summed.Queue.Pushes);
  EXPECT_GT(Cell.Telemetry.Queue.Pushes, 0u);
}

TEST(PFuzzerTelemetryTest, CampaignTelemetryIdenticalAcrossJobs) {
  // The Jobs contract extends to the consolidated snapshot: per-seed
  // snapshots reduce in seed order, so parallel fan-out must aggregate
  // to the same totals as sequential.
  ToolOptions Tools;
  CampaignResult Seq = runCampaign(ToolKind::PFuzzer, dyckSubject(), 2000, 7,
                                   /*Runs=*/3, /*Jobs=*/1, Tools);
  CampaignResult Par = runCampaign(ToolKind::PFuzzer, dyckSubject(), 2000, 7,
                                   /*Runs=*/3, /*Jobs=*/3, Tools);
  expectIdenticalReports(Seq.Report, Par.Report);
  EXPECT_EQ(Seq.Telemetry.Executions, Par.Telemetry.Executions);
  EXPECT_EQ(Seq.Telemetry.ValidInputs, Par.Telemetry.ValidInputs);
  EXPECT_EQ(Seq.Telemetry.FrontierSize, Par.Telemetry.FrontierSize);
  EXPECT_EQ(Seq.Telemetry.Queue.Pushes, Par.Telemetry.Queue.Pushes);
  EXPECT_EQ(Seq.Telemetry.Resume.Probes, Par.Telemetry.Resume.Probes);
}
