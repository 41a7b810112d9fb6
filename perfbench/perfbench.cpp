//===- perfbench/perfbench.cpp - End-to-end pFuzzer benchmark ------------===//
//
// Part of the pfuzz project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Runs one benchmark workload through the public campaign API for a
/// fixed wall-clock window and prints what the paper plots: branch
/// coverage of valid inputs and tokens found against wall time, plus
/// throughput and memory. `run.py` builds this program and wraps it; see
/// README.md for the workloads, metrics and how to read them.
///
/// Every campaign repetition is checked: each emitted valid input is
/// re-executed cold (it must exit 0, and the union of the inputs' covered
/// branches must equal FuzzReport::ValidBranches), and every repetition
/// of one campaign seed must produce the same coverage, tokens and
/// ValidInputs digest. With --trace 1, traced repetitions alternate with
/// untraced ones and yield the per-layer numbers: a forwarding Subject
/// times each instrumented run, the benchmark times its own
/// TokenCoverage::addInput calls, and the counters and span.* histograms
/// the program already exports are read around Fuzzer::run. Traced
/// reports must be byte-identical to untraced ones.
///
//===----------------------------------------------------------------------===//

#include "eval/Campaign.h"
#include "support/Telemetry.h"
#include "tokens/TokenCoverage.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

#include <malloc.h>
#include <sched.h>

using namespace pfuzz;

namespace {

using Clock = std::chrono::steady_clock;

/// One benchmark workload: a pFuzzer campaign shape run on campaign
/// seeds derived from --seed. Full campaigns give throughput, final
/// coverage, tokens and memory. Time to coverage varies far more from
/// seed to seed than throughput does, so it is read over every campaign,
/// including an optional panel of extra campaigns with a smaller budget
/// (the same search, stopped sooner) where the target is reached early.
struct Workload {
  const char *Name;
  const char *Subject;
  /// PFuzzerOptions::Shards; 1 is the plain sequential engine.
  uint32_t Shards;
  /// Execution budget and seed count of the full campaigns.
  uint64_t Executions;
  unsigned Seeds;
  /// Execution budget and seed count of the time-to-coverage panel
  /// (0 seeds: no panel).
  uint64_t PanelExecutions;
  unsigned PanelSeeds;
  /// Valid-input branch coverage (fraction of all outcomes) that
  /// time_to_cov_s waits for. Every seed reaches it well inside both
  /// budgets; a campaign that does not is a failed run.
  double CoverageTarget;
};

const Workload Workloads[] = {
    {"json_seq", "json", 1, 40000, 24, 4000, 150, 0.40},
    {"csv_seq", "csv", 1, 40000, 20, 1000, 300, 0.79},
    {"mjs_sharded", "mjs", 4, 40000, 48, 8000, 100, 0.13},
};

const Workload *findWorkload(std::string_view Name) {
  for (const Workload &W : Workloads)
    if (Name == W.Name)
      return &W;
  return nullptr;
}

uint64_t splitmix64(uint64_t X) {
  X += 0x9E3779B97F4A7C15ULL;
  X = (X ^ (X >> 30)) * 0xBF58476D1CE4E5B9ULL;
  X = (X ^ (X >> 27)) * 0x94D049BB133111EBULL;
  return X ^ (X >> 31);
}

uint64_t fnv1a(std::string_view Bytes, uint64_t H = 0xCBF29CE484222325ULL) {
  for (unsigned char C : Bytes) {
    H ^= C;
    H *= 0x100000001B3ULL;
  }
  return H;
}

/// FNV-1a over the length-prefixed ValidInputs, in report order.
uint64_t digestInputs(const std::vector<std::string> &Inputs) {
  uint64_t H = 0xCBF29CE484222325ULL;
  for (const std::string &In : Inputs) {
    uint64_t Len = In.size();
    H = fnv1a(std::string_view(reinterpret_cast<const char *>(&Len),
                               sizeof(Len)),
              H);
    H = fnv1a(In, H);
  }
  return H;
}

double seconds(Clock::duration D) {
  return std::chrono::duration<double>(D).count();
}

/// calibrate()'s result on the reference machine (4-core Xeon container
/// at 2.0 GHz). The cores of a shared host slow down and speed up by up
/// to 2x within seconds, so timings in the end-to-end metrics are scaled
/// by (ReferenceCalibS / calibration around the run) ^ ProbeExponent.
/// The probe is benchmark code, so the scaling cannot hide a change in
/// the program; it only cancels part of the machine's drift. Raw wall
/// times are printed alongside.
constexpr double ReferenceCalibS = 0.0027;

/// How much more a campaign slows down than the probe, in log terms.
/// Fitted on the reference container over quiet and noisy periods: 1.5
/// gave the smallest run-to-run spread on csv and json and cost mjs
/// little.
constexpr double ProbeExponent = 1.5;

/// Three fixed kernels shaped like the fuzzer's work: dependent loads
/// over a 4 MiB table (queue records), make_heap over 64Ki (score, id)
/// pairs (the candidate heap), and a branchy byte scan (a parser).
/// Returns the geometric mean of their times.
double probe(std::vector<std::pair<double, uint32_t>> &Heap) {
  static const std::vector<uint32_t> Table = [] {
    std::vector<uint32_t> T(1u << 20);
    for (size_t I = 0; I != T.size(); ++I)
      T[I] = static_cast<uint32_t>(splitmix64(I));
    return T;
  }();
  static const std::string Text = [] {
    const char Alphabet[] = "{\"ab\": [1, 2.5e3, true, null], \"c\": \"x\"}";
    std::string T(1u << 17, ' ');
    for (size_t I = 0; I != T.size(); ++I)
      T[I] = Alphabet[splitmix64(I) % (sizeof(Alphabet) - 1)];
    return T;
  }();
  static std::atomic<uint64_t> Sink{0};
  uint64_t H = 1;
  Clock::time_point T0 = Clock::now();
  for (int I = 0; I != 150000; ++I)
    H = (H ^ Table[H & (Table.size() - 1)]) * 0x100000001B3ULL;
  Clock::time_point T1 = Clock::now();
  Heap.resize(1u << 16);
  for (uint64_t Pass = 0; Pass != 2; ++Pass) {
    for (size_t I = 0; I != Heap.size(); ++I)
      Heap[I] = {static_cast<double>(splitmix64(I + Pass) % 4096),
                 static_cast<uint32_t>(I)};
    std::make_heap(Heap.begin(), Heap.end());
    H += Heap.front().second;
  }
  Clock::time_point T2 = Clock::now();
  uint64_t Depth = 0, Num = 0;
  for (int Pass = 0; Pass != 4; ++Pass)
    for (char C : Text) {
      switch (C) {
      case '{':
      case '[':
        ++Depth;
        break;
      case '}':
      case ']':
        --Depth;
        break;
      case '"':
        Num += 3;
        break;
      default:
        Num = C >= '0' && C <= '9' ? Num * 10 + (C - '0') : Num ^ C;
      }
    }
  Clock::time_point T3 = Clock::now();
  Sink.fetch_xor(H + Depth + Num, std::memory_order_relaxed);
  return std::cbrt(seconds(T1 - T0) * seconds(T2 - T1) * seconds(T3 - T2));
}

/// Runs probe() on \p Threads threads at once (as many as the campaign
/// runs) and returns the mean: how fast this machine runs right now.
double calibrate(unsigned Threads) {
  static std::vector<std::pair<double, uint32_t>> Heaps[8];
  if (Threads <= 1)
    return probe(Heaps[0]);
  std::vector<double> Times(std::min(Threads, 8u));
  std::vector<std::thread> Probes;
  for (size_t I = 0; I != Times.size(); ++I)
    Probes.emplace_back([&Times, I] { Times[I] = probe(Heaps[I]); });
  for (std::thread &T : Probes)
    T.join();
  double Sum = 0;
  for (double T : Times)
    Sum += T;
  return Sum / Times.size();
}

double median(std::vector<double> V) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : (V[N / 2 - 1] + V[N / 2]) / 2;
}

/// Nearest-rank percentile of \p V (0 < P <= 100).
double percentile(std::vector<double> V, double P) {
  if (V.empty())
    return 0;
  size_t Rank = static_cast<size_t>(std::ceil(P / 100 * V.size()));
  size_t Idx = Rank == 0 ? 0 : Rank - 1;
  std::nth_element(V.begin(), V.begin() + Idx, V.end());
  return V[Idx];
}

/// Mean of the middle half of \p V: robust to a heavy tail like the
/// median, smoother than it on values that come in a few discrete steps.
double interquartileMean(std::vector<double> V) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t Lo = V.size() / 4, Hi = V.size() - V.size() / 4;
  double Sum = 0;
  for (size_t I = Lo; I != Hi; ++I)
    Sum += V[I];
  return Sum / (Hi - Lo);
}

double mean(const std::vector<double> &V) {
  double Sum = 0;
  for (double X : V)
    Sum += X;
  return V.empty() ? 0 : Sum / V.size();
}

/// Forwards every Subject call to the real subject and times each
/// instrumented run. A prefix-resumption restore re-enters a suspended
/// run's frames and returns through the frame of the original run()
/// call, so the first return of a call is its cold run and every later
/// return is a resumed run; only cold runs are timed (a resumed return
/// sees the original call's start time). Safe for concurrent shards.
/// It also stamps the first call, which ends set-up.
class TimingSubject final : public Subject {
public:
  TimingSubject(const Subject &Inner, uint64_t MaxCalls)
      : Inner(Inner), MaxCalls(MaxCalls),
        Returned(new std::atomic<uint8_t>[MaxCalls]()),
        ColdNanos(new uint64_t[MaxCalls]()) {}

  std::string_view name() const override { return Inner.name(); }
  uint32_t numBranchSites() const override { return Inner.numBranchSites(); }
  bool resumeSafe() const override { return Inner.resumeSafe(); }

  int run(ExecutionContext &Ctx) const override {
    uint64_t Call = NextCall.fetch_add(1, std::memory_order_relaxed);
    if (Call == 0)
      FirstCallNs.store(monotonicNs(), std::memory_order_relaxed);
    Clock::time_point Start = Clock::now();
    int ExitCode = Inner.run(Ctx);
    Clock::time_point End = Clock::now();
    if (Call >= MaxCalls) {
      Overflow.fetch_add(1, std::memory_order_relaxed);
    } else if (Returned[Call].exchange(1, std::memory_order_relaxed) == 0) {
      ColdNanos[Call] = static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(End - Start)
              .count());
    } else {
      Resumed.fetch_add(1, std::memory_order_relaxed);
    }
    return ExitCode;
  }

  /// CLOCK_MONOTONIC nanoseconds.
  static uint64_t monotonicNs() {
    timespec Ts;
    clock_gettime(CLOCK_MONOTONIC, &Ts);
    return static_cast<uint64_t>(Ts.tv_sec) * 1000000000ull +
           static_cast<uint64_t>(Ts.tv_nsec);
  }

  uint64_t firstCallNs() const { return FirstCallNs.load(); }
  uint64_t calls() const { return NextCall.load(); }
  uint64_t resumedRuns() const { return Resumed.load(); }
  uint64_t overflow() const { return Overflow.load(); }

  /// Cold-run durations in microseconds; call after the campaign ended.
  std::vector<double> coldRunMicros() const {
    std::vector<double> Us;
    uint64_t N = std::min(calls(), MaxCalls);
    Us.reserve(N);
    for (uint64_t I = 0; I != N; ++I)
      if (Returned[I].load())
        Us.push_back(static_cast<double>(ColdNanos[I]) / 1e3);
    return Us;
  }

private:
  const Subject &Inner;
  const uint64_t MaxCalls;
  std::unique_ptr<std::atomic<uint8_t>[]> Returned;
  std::unique_ptr<uint64_t[]> ColdNanos;
  mutable std::atomic<uint64_t> NextCall{0};
  mutable std::atomic<uint64_t> FirstCallNs{0};
  mutable std::atomic<uint64_t> Resumed{0};
  mutable std::atomic<uint64_t> Overflow{0};
};

/// One per-layer number of a traced repetition (see README.md).
struct LayerMetric {
  std::string Name;
  double Value;
  const char *Unit;
};

/// Everything one campaign repetition produced and measured.
struct Rep {
  /// Which campaign: a full one or one of the panel, and its seed index.
  bool Panel = false;
  unsigned SeedIdx = 0;
  bool Traced = false;
  double WallS = 0;
  /// Scales this run's wall times to the reference machine speed (see
  /// ReferenceCalibS).
  double SpeedScale = 1;
  /// Peak resident memory while Fuzzer::run ran, in MiB.
  double PeakRssMb = 0;
  uint64_t Executions = 0;
  uint64_t Digest = 0;
  size_t NumValidInputs = 0;
  double BranchCov = 0;
  size_t Tokens = 0;
  /// Seconds from the start of Fuzzer::run to the first emitted input
  /// whose cumulative coverage reaches the target; < 0 if never.
  double TimeToCovS = -1;
  std::string Failure;
  std::vector<LayerMetric> Layers;
};

struct Args {
  const Workload *W = nullptr;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  bool SetupOnly = false;
};

ToolOptions toolsFor(const Workload &W) {
  // The shipped defaults (pfuzz_cli, runCampaign): run cache and resume
  // cache on, speculation and locality off.
  ToolOptions Tools;
  Tools.PFuzzerShards = W.Shards;
  return Tools;
}

/// Replays the emitted inputs cold and checks them; computes the
/// coverage-over-wall-time crossing from the first-seen stamps.
void checkOutputs(const Workload &W, const Subject &S, const FuzzReport &R,
                  const std::unordered_map<uint64_t, double> &FirstSeen,
                  Rep &Out) {
  std::vector<std::pair<double, size_t>> Order;
  Order.reserve(R.ValidInputs.size());
  std::vector<std::vector<uint32_t>> Covered(R.ValidInputs.size());
  BranchCoverageMap Union;
  for (size_t I = 0; I != R.ValidInputs.size(); ++I) {
    const std::string &In = R.ValidInputs[I];
    RunResult RR = S.execute(In);
    if (RR.ExitCode != 0) {
      Out.Failure = "emitted input exits " + std::to_string(RR.ExitCode);
      return;
    }
    RR.coveredBranches(Covered[I]);
    Union.insert(Covered[I].begin(), Covered[I].end());
    auto It = FirstSeen.find(fnv1a(In));
    if (It == FirstSeen.end()) {
      Out.Failure = "emitted input never passed OnValidInput";
      return;
    }
    Order.emplace_back(It->second, I);
  }
  if (Union.values() != R.ValidBranches.values()) {
    Out.Failure = "replayed coverage differs from ValidBranches";
    return;
  }
  // Coverage(t): the emitted inputs in the order they were first seen.
  std::stable_sort(Order.begin(), Order.end());
  uint64_t Target = static_cast<uint64_t>(
      std::ceil(W.CoverageTarget * 2.0 * S.numBranchSites()));
  BranchCoverageMap Cum;
  for (const auto &[Stamp, I] : Order) {
    Cum.insert(Covered[I].begin(), Covered[I].end());
    if (Cum.size() >= Target) {
      Out.TimeToCovS = Stamp;
      break;
    }
  }
  if (Out.TimeToCovS < 0)
    Out.Failure = "coverage target never reached";
}

/// Derives the per-layer metrics of a traced repetition and checks that
/// the trace closes.
void traceLayers(const Workload &W, const FuzzReport &R,
                 const TelemetrySnapshot &T, const RegistrySnapshot &D,
                 const TimingSubject &Proxy, double AddInputS,
                 uint64_t ValidExecs, Rep &Out) {
  auto SpanS = [&D](const char *Name) {
    const HistogramData *H = D.histogram(Name);
    return H ? static_cast<double>(H->Sum) / 1e9 : 0.0;
  };
  auto SpanN = [&D](const char *Name) {
    const HistogramData *H = D.histogram(Name);
    return H ? H->Count : 0;
  };
  auto Ratio = [](double Num, double Den) { return Den > 0 ? Num / Den : 0; };
  // Shard loops run concurrently; their spans add up to thread time, so
  // the closure basis is wall time per shard thread.
  double Basis = Out.WallS * W.Shards;
  double Run = SpanS("span.run");
  double Restore = SpanS("span.resume_restore");
  double Rescore = SpanS("span.rescore");
  double Trim = SpanS("span.trim");
  double Sync = SpanS("span.shard_sync");
  double Unattributed = Basis - Run - Rescore - Sync;
  std::vector<double> ColdUs = Proxy.coldRunMicros();
  double ColdS = 0;
  for (double Us : ColdUs)
    ColdS += Us / 1e6;
  uint64_t ColdRuns = ColdUs.size();
  uint64_t Resumed = Proxy.resumedRuns();

  // Closure and cross-layer consistency: the phases fill the basis and
  // none is negative; nested children fit in their parents; span counts
  // and the proxy's run counts match the engine's own counters.
  auto Fail = [&Out](std::string Why) {
    if (Out.Failure.empty())
      Out.Failure = "trace: " + Why;
  };
  if (Unattributed < 0)
    Fail("phases exceed traced wall time");
  if (Trim > Rescore)
    Fail("trim exceeds enclosing rescore");
  if (Restore + ColdS + AddInputS > Run)
    Fail("nested run phases exceed span.run");
  if (SpanN("span.run") != R.Executions || T.Executions != R.Executions)
    Fail("span.run count differs from executions");
  if (SpanN("span.rescore") != T.Queue.Rescores ||
      SpanN("span.trim") != T.Queue.Trims)
    Fail("span counts differ from queue counters");
  if (Proxy.overflow() != 0 ||
      ColdRuns != R.Executions - T.RunCacheHits - T.Resume.Hits ||
      Resumed != T.Resume.Hits)
    Fail("proxy run counts differ from engine counters");

  double RescoreSelf = Rescore - Trim;
  auto Count = [](uint64_t N) { return static_cast<double>(N); };
  Out.Layers = {
      {"core.rescore_s", RescoreSelf, "s"},
      {"core.rescore_share", Ratio(RescoreSelf, Basis), "fraction"},
      {"core.rescores", Count(T.Queue.Rescores), "count"},
      {"core.trim_s", Trim, "s"},
      {"core.trim_drop_ratio",
       Ratio(Count(T.Queue.TrimmedCandidates), Count(T.Queue.Pushes)),
       "fraction"},
      {"core.pushes_per_exec",
       Ratio(Count(T.Queue.Pushes), Count(R.Executions)), "count/exec"},
      {"core.queue_bytes_peak", Count(T.Queue.PeakBytes), "bytes"},
      {"core.unattributed_s", Unattributed, "s"},
      {"core.run_cache_hit_rate", T.runCacheHitRate(), "fraction"},
      {"core.run_cache_lookups", Count(T.RunCacheLookups), "count"},
      {"core.shard_sync_s", Sync, "s"},
      {"core.shard_migration_accept_ratio",
       Ratio(Count(T.Sharding.MigrationsAccepted),
             Count(T.Sharding.MigrationsOffered)),
       "fraction"},
      {"core.shard_frontier_lag_max", Count(T.Sharding.MaxFrontierLag),
       "epochs"},
      {"runtime.run_s", Run - Restore, "s"},
      {"runtime.resume_restore_s", Restore, "s"},
      {"runtime.resume_hit_rate", T.Resume.hitRate(), "fraction"},
      {"runtime.resume_bytes_skipped", Count(T.Resume.BytesSkipped), "bytes"},
      {"subjects.cold_runs", Count(ColdRuns), "count"},
      {"subjects.resumed_runs", Count(Resumed), "count"},
      {"subjects.cold_run_s", ColdS, "s"},
      {"subjects.cold_run_us_p50", percentile(ColdUs, 50), "us"},
      {"subjects.cold_run_us_p99", percentile(ColdUs, 99), "us"},
      {"subjects.valid_ratio", Ratio(Count(ValidExecs), Count(R.Executions)),
       "fraction"},
      {"tokens.add_input_s", AddInputS, "s"},
      {"tokens.valid_execs", Count(ValidExecs), "count"},
      {"trace.wall_s", Out.WallS, "s"},
      {"trace.basis_s", Basis, "s"},
  };
}

/// Starts a fresh resident-memory peak: returns freed heap pages to the
/// kernel, then resets the process's high-water mark (Linux clear_refs).
void resetPeakRss() {
  malloc_trim(0);
  if (std::FILE *F = std::fopen("/proc/self/clear_refs", "w")) {
    std::fputs("5", F);
    std::fclose(F);
  }
}

/// The process's resident-memory high-water mark (VmHWM) in MiB.
double peakRssMb() {
  double Mb = 0;
  if (std::FILE *F = std::fopen("/proc/self/status", "r")) {
    char Line[256];
    unsigned long long Kb = 0;
    while (std::fgets(Line, sizeof(Line), F))
      if (std::sscanf(Line, "VmHWM: %llu kB", &Kb) == 1)
        Mb = Kb / 1024.0;
    std::fclose(F);
  }
  return Mb;
}

/// Runs one campaign repetition and checks it.
Rep runRep(const Workload &W, const Subject &S, bool Panel, unsigned SeedIdx,
           uint64_t CampaignSeed, bool Traced) {
  Rep Out;
  Out.Panel = Panel;
  Out.SeedIdx = SeedIdx;
  Out.Traced = Traced;
  uint64_t Budget = Panel ? W.PanelExecutions : W.Executions;
  ToolOptions Tools = toolsFor(W);
  TelemetrySnapshot Telemetry;
  std::unique_ptr<TimingSubject> Proxy;
  if (Traced) {
    Tools.PFuzzerTelemetryOut = &Telemetry;
    // Cold runs never exceed executions; resumed returns reuse a slot.
    Proxy = std::make_unique<TimingSubject>(S, Budget + 1);
  }
  std::unique_ptr<Fuzzer> Tool = makeFuzzer(ToolKind::PFuzzer, Tools);
  TokenCoverage Tokens(S.name());
  std::unordered_map<uint64_t, double> FirstSeen;
  double AddInputS = 0;
  uint64_t ValidExecs = 0;
  Clock::time_point Start;
  FuzzerOptions Opts;
  Opts.Seed = CampaignSeed;
  Opts.MaxExecutions = Budget;
  // Sharded campaigns serialize this callback, so plain state suffices.
  Opts.OnValidInput = [&](std::string_view Input) {
    Clock::time_point Now = Clock::now();
    FirstSeen.emplace(fnv1a(Input), seconds(Now - Start));
    if (Traced) {
      ++ValidExecs;
      Tokens.addInput(Input);
      AddInputS += seconds(Clock::now() - Now);
    } else {
      Tokens.addInput(Input);
    }
  };
  RegistrySnapshot Before;
  if (Traced)
    Before = TelemetryRegistry::global().snapshot();
  const Subject &Target = Traced ? static_cast<const Subject &>(*Proxy) : S;
  resetPeakRss();
  Start = Clock::now();
  FuzzReport R = Tool->run(Target, Opts);
  Out.WallS = seconds(Clock::now() - Start);
  Out.PeakRssMb = peakRssMb();

  Out.Executions = R.Executions;
  Out.Digest = digestInputs(R.ValidInputs);
  Out.NumValidInputs = R.ValidInputs.size();
  Out.BranchCov = R.coverageRatio(S);
  Out.Tokens = Tokens.found().size();
  if (R.Executions != Budget)
    Out.Failure = "executions differ from the budget";
  else
    checkOutputs(W, S, R, FirstSeen, Out);
  if (Traced) {
    RegistrySnapshot Delta =
        TelemetryRegistry::global().snapshot().minus(Before);
    traceLayers(W, R, Telemetry, Delta, *Proxy, AddInputS, ValidExecs, Out);
  }
  return Out;
}

bool parseArgs(int Argc, char **Argv, Args &A) {
  for (int I = 1; I < Argc; ++I) {
    std::string_view Flag = Argv[I];
    if (Flag == "--setup-only") {
      A.SetupOnly = true;
      continue;
    }
    if (I + 1 >= Argc)
      return false;
    const char *Value = Argv[++I];
    char *End = nullptr;
    if (Flag == "--workload") {
      A.W = findWorkload(Value);
      if (!A.W)
        return false;
      continue;
    }
    errno = 0;
    if (Flag == "--seed")
      A.Seed = std::strtoull(Value, &End, 10);
    else if (Flag == "--seconds")
      A.Seconds = std::strtod(Value, &End);
    else if (Flag == "--trace")
      A.Trace = std::strtoul(Value, &End, 10) != 0;
    else
      return false;
    if (errno != 0 || End == Value || *End != '\0')
      return false;
  }
  return A.W != nullptr && A.Seconds > 0;
}

/// Set-up time: from \p MainNs (entry to main) to the first subject
/// execution of a campaign, covering subject statics, interning, the
/// token inventory and fuzzer construction, speed-scaled like the other
/// timings. Process creation and dynamic loading before main are the
/// operating system's work and are left out.
int setupOnly(const Args &A, uint64_t MainNs) {
  const Subject *S = findSubject(A.W->Subject);
  TokenCoverage Tokens(S->name()); // builds the token inventory
  TimingSubject Stamp(*S, A.W->Shards);
  std::unique_ptr<Fuzzer> Tool =
      makeFuzzer(ToolKind::PFuzzer, toolsFor(*A.W));
  FuzzerOptions Opts;
  Opts.Seed = A.Seed;
  Opts.MaxExecutions = A.W->Shards;
  Tool->run(Stamp, Opts);
  uint64_t First = Stamp.firstCallNs();
  if (First < MainNs)
    return 1;
  double Scale = std::pow(ReferenceCalibS / calibrate(1), ProbeExponent);
  std::printf("%.9f\n", static_cast<double>(First - MainNs) / 1e9 * Scale);
  return 0;
}

void printMetric(std::string &Json, const char *Name, double Value,
                 const char *Unit) {
  char Buf[160];
  std::snprintf(Buf, sizeof(Buf),
                "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                Json.empty() ? "" : ", ", Name, Value, Unit);
  Json += Buf;
}

/// One campaign of the run plan.
struct Slot {
  bool Panel;
  unsigned Idx;
  uint64_t Seed;
};

/// Full campaigns traced per pass; per-layer metrics have no bound, so
/// a few campaigns suffice.
constexpr unsigned TracedSeeds = 8;

/// Full campaign I is followed by its share of the panel, so the first
/// slots of every pass cover both kinds. Traced runs use the first
/// TracedSeeds full campaigns only.
std::vector<Slot> planSlots(const Workload &W, uint64_t Seed, bool Trace) {
  uint64_t Base = splitmix64(Seed);
  std::vector<Slot> Plan;
  unsigned NextPanel = 0;
  for (unsigned I = 0; I != W.Seeds; ++I) {
    if (Trace && I == TracedSeeds)
      break;
    Plan.push_back({false, I, splitmix64(Base + 2 * I)});
    if (Trace)
      continue;
    for (unsigned End = (I + 1) * W.PanelSeeds / W.Seeds; NextPanel < End;
         ++NextPanel)
      Plan.push_back({true, NextPanel, splitmix64(Base + 2 * NextPanel + 1)});
  }
  return Plan;
}

/// Per-seed medians of \p Get over the untraced, passing repetitions of
/// one campaign kind.
template <typename Fn>
std::vector<double> perSeed(const std::vector<Rep> &Reps, bool Panel,
                            unsigned Seeds, Fn Get) {
  std::vector<std::vector<double>> BySeed(Seeds);
  for (const Rep &R : Reps)
    if (R.Panel == Panel && !R.Traced && R.Failure.empty())
      BySeed[R.SeedIdx].push_back(Get(R));
  std::vector<double> Medians;
  for (const std::vector<double> &V : BySeed)
    if (!V.empty())
      Medians.push_back(median(V));
  return Medians;
}

double layer(const Rep &R, const std::string &Name) {
  for (const LayerMetric &M : R.Layers)
    if (M.Name == Name)
      return M.Value;
  return 0;
}

/// The phase table of one traced run: disjoint phases in thread-seconds
/// that add up to the basis (wall x shards), plus what nests in span.run.
void printPhaseTable(const Rep &R) {
  double Basis = layer(R, "trace.basis_s");
  std::printf("  phase table (traced run with the median wall time; "
              "thread-seconds, basis = wall x shards = %.4f s):\n",
              Basis);
  const char *Phases[][2] = {
      {"run check (span.run - restore)", "runtime.run_s"},
      {"resume restore", "runtime.resume_restore_s"},
      {"rescore (self, minus trim)", "core.rescore_s"},
      {"trim", "core.trim_s"},
      {"shard sync", "core.shard_sync_s"},
      {"unattributed (loop remainder)", "core.unattributed_s"},
  };
  double Total = 0;
  for (const auto &[Label, Name] : Phases) {
    double V = layer(R, Name);
    Total += V;
    std::printf("    %-34s %10.4f s %6.1f%%\n", Label, V,
                Basis > 0 ? 100 * V / Basis : 0.0);
  }
  std::printf("    %-34s %10.4f s %6.1f%%\n", "total", Total,
              Basis > 0 ? 100 * Total / Basis : 0.0);
  std::printf("    nested in the run check: subjects cold runs %.4f s, "
              "tokens addInput %.4f s\n",
              layer(R, "subjects.cold_run_s"),
              layer(R, "tokens.add_input_s"));
}

/// Prints the end-to-end summary; returns the metrics as JSON members.
std::string reportEndToEnd(const Workload &W, const std::vector<Rep> &Reps) {
  std::vector<double> Rate = perSeed(Reps, false, W.Seeds, [](const Rep &R) {
    return R.Executions / (R.WallS * R.SpeedScale);
  });
  std::vector<double> RawRate = perSeed(
      Reps, false, W.Seeds, [](const Rep &R) { return R.Executions / R.WallS; });
  std::vector<double> Cov = perSeed(Reps, false, W.Seeds,
                                    [](const Rep &R) { return R.BranchCov; });
  std::vector<double> Tok = perSeed(Reps, false, W.Seeds, [](const Rep &R) {
    return static_cast<double>(R.Tokens);
  });
  std::vector<double> Rss = perSeed(Reps, false, W.Seeds,
                                    [](const Rep &R) { return R.PeakRssMb; });
  // Time to coverage over every campaign, full and panel alike.
  auto Scaled = [](const Rep &R) { return R.TimeToCovS * R.SpeedScale; };
  auto Raw = [](const Rep &R) { return R.TimeToCovS; };
  std::vector<double> Ttc = perSeed(Reps, false, W.Seeds, Scaled);
  std::vector<double> RawTtc = perSeed(Reps, false, W.Seeds, Raw);
  for (double T : perSeed(Reps, true, W.PanelSeeds, Scaled))
    Ttc.push_back(T);
  for (double T : perSeed(Reps, true, W.PanelSeeds, Raw))
    RawTtc.push_back(T);
  std::vector<double> Scale;
  for (const Rep &R : Reps)
    Scale.push_back(R.SpeedScale);
  std::printf("  execs_per_s over %zu full seeds: min %.0f p50 %.0f max "
              "%.0f\n",
              Rate.size(), percentile(Rate, 1), median(Rate),
              percentile(Rate, 100));
  std::printf("  time_to_cov_s over %zu campaign seeds: p25 %.6f p50 %.6f "
              "p75 %.6f max %.6f\n",
              Ttc.size(), percentile(Ttc, 25), median(Ttc),
              percentile(Ttc, 75), percentile(Ttc, 100));
  std::printf("  unscaled: execs_per_s %.0f, time_to_cov_s %.6f; speed "
              "scale p5 %.3f p50 %.3f p95 %.3f\n",
              mean(RawRate), interquartileMean(RawTtc), percentile(Scale, 5),
              median(Scale), percentile(Scale, 95));
  std::string Metrics;
  printMetric(Metrics, "execs_per_s", mean(Rate), "exec/s");
  printMetric(Metrics, "time_to_cov_s", interquartileMean(Ttc), "s");
  printMetric(Metrics, "branch_cov", mean(Cov), "fraction");
  printMetric(Metrics, "tokens_found", mean(Tok), "count");
  printMetric(Metrics, "peak_rss_mb", mean(Rss), "MiB");
  return Metrics;
}

/// Prints the phase table and the per-layer medians over the traced
/// runs; returns the metrics as JSON members. The tracing overhead
/// compares each traced run with the untraced run of the same campaign
/// just before it.
std::string reportLayers(const std::vector<Rep> &Reps) {
  std::vector<LayerMetric> Order;
  std::map<std::string, std::vector<double>> Values;
  std::vector<const Rep *> Traced;
  for (size_t I = 1; I < Reps.size(); I += 2) {
    const Rep &R = Reps[I];
    if (!R.Failure.empty() || !Reps[I - 1].Failure.empty())
      continue;
    Traced.push_back(&R);
    for (const LayerMetric &M : R.Layers) {
      if (!Values.count(M.Name))
        Order.push_back(M);
      Values[M.Name].push_back(M.Value);
    }
    Values["trace.overhead"].push_back(R.WallS / Reps[I - 1].WallS - 1);
  }
  Order.push_back({"trace.overhead", 0, "fraction"});
  if (!Traced.empty()) {
    std::sort(Traced.begin(), Traced.end(),
              [](const Rep *L, const Rep *R) { return L->WallS < R->WallS; });
    printPhaseTable(*Traced[Traced.size() / 2]);
  }
  std::printf("  per-layer metrics (median of %zu traced runs):\n",
              Traced.size());
  std::string Metrics;
  for (const LayerMetric &M : Order) {
    double Value = median(Values[M.Name]);
    std::printf("    %-36s %14.6g %s\n", M.Name.c_str(), Value, M.Unit);
    printMetric(Metrics, M.Name.c_str(), Value, M.Unit);
  }
  return Metrics;
}

} // namespace

int main(int Argc, char **Argv) {
  uint64_t MainNs = TimingSubject::monotonicNs();
  Args A;
  if (!parseArgs(Argc, Argv, A)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--setup-only]\nworkloads:");
    for (const Workload &W : Workloads)
      std::fprintf(stderr, " %s", W.Name);
    std::fprintf(stderr, "\n");
    return 2;
  }
  if (A.SetupOnly)
    return setupOnly(A, MainNs);

  const Workload &W = *A.W;
  const Subject &S = *findSubject(W.Subject);
  // Sequential campaigns stay on one core, so the calibration before and
  // after each campaign probes the core it ran on (the cores of a shared
  // host slow down independently of each other).
  if (W.Shards == 1) {
    cpu_set_t Cpus;
    CPU_ZERO(&Cpus);
    CPU_SET(sched_getcpu(), &Cpus);
    sched_setaffinity(0, sizeof(Cpus), &Cpus);
  }
  std::vector<Slot> Plan = planSlots(W, A.Seed, A.Trace);

  // One pass over the plan, then more until the window closes; untraced
  // runs repeat the first two slots (a full campaign and the panel or
  // full campaign after it) at least, so every run checks determinism.
  // Traced runs pair each traced repetition with an untraced one just
  // before it. A calibration probe runs between consecutive campaigns.
  std::vector<Rep> Reps;
  Clock::time_point Deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(A.Seconds));
  size_t MinSlots = A.Trace ? Plan.size() : Plan.size() + 2;
  double CalibBefore = calibrate(W.Shards);
  for (size_t N = 0; N < MinSlots || Clock::now() < Deadline; ++N) {
    const Slot &Sl = Plan[N % Plan.size()];
    for (bool Traced : {false, true}) {
      if (Traced && !A.Trace)
        break;
      Reps.push_back(runRep(W, S, Sl.Panel, Sl.Idx, Sl.Seed, Traced));
      double CalibAfter = calibrate(W.Shards);
      Reps.back().SpeedScale = std::pow(
          2 * ReferenceCalibS / (CalibBefore + CalibAfter), ProbeExponent);
      CalibBefore = CalibAfter;
    }
  }

  // Determinism: every repetition of a campaign matches its first, and
  // a traced report matches the untraced one.
  std::map<std::pair<bool, unsigned>, const Rep *> FirstOf;
  for (Rep &R : Reps) {
    auto [It, New] = FirstOf.emplace(std::make_pair(R.Panel, R.SeedIdx), &R);
    const Rep &F = *It->second;
    if (New || !R.Failure.empty())
      continue;
    if (R.Digest != F.Digest || R.BranchCov != F.BranchCov ||
        R.Tokens != F.Tokens)
      R.Failure = R.Traced ? "traced report differs from untraced"
                           : "nondeterministic report";
  }

  uint64_t Failed = 0;
  for (const Rep &R : Reps)
    if (!R.Failure.empty()) {
      ++Failed;
      std::printf("FAILED %s seed %u%s: %s\n", R.Panel ? "panel" : "full",
                  R.SeedIdx, R.Traced ? " (traced)" : "", R.Failure.c_str());
    }

  std::printf("workload %s: %s, %u shard(s); %u full campaigns of %llu "
              "execs, %u panel campaigns of %llu execs; coverage target "
              "%.3f; --seed %llu\n",
              W.Name, W.Subject, W.Shards, W.Seeds,
              static_cast<unsigned long long>(W.Executions), W.PanelSeeds,
              static_cast<unsigned long long>(W.PanelExecutions),
              W.CoverageTarget, static_cast<unsigned long long>(A.Seed));
  for (const auto &[Key, F] : FirstOf)
    if (!Key.first)
      std::printf("  full seed %u: branch_cov %.4f  tokens %zu  "
                  "valid_inputs %zu  digest %016llx\n",
                  Key.second, F->BranchCov, F->Tokens, F->NumValidInputs,
                  static_cast<unsigned long long>(F->Digest));
  std::printf("  fail_frac %.4f (%llu of %zu runs)\n",
              static_cast<double>(Failed) / Reps.size(),
              static_cast<unsigned long long>(Failed), Reps.size());
  std::string Metrics =
      A.Trace ? reportLayers(Reps) : reportEndToEnd(W, Reps);
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              Failed == 0 ? "true" : "false", Reps.size(),
              static_cast<unsigned long long>(Failed), Metrics.c_str());
  return Failed == 0 ? 0 : 1;
}
