//===- tests/golden/GoldenReportTest.cpp - Absolute report digests --------===//
//
// Part of the pfuzz project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Pins campaign reports absolutely. Every other identity test compares
/// feature-on with feature-off in the same build, so a change that moves
/// both sides at once passes them; this one compares against digests
/// checked in beside it (report_digests.txt). Each cell is one campaign
/// with the shipped tool defaults, digested as FNV-1a over ValidInputs,
/// CoverageTimeline, ValidBranches and the found token set.
///
/// Cells: the five evaluation subjects x seeds 1-3 x {sequential,
/// 2 shards, 4 shards} for pFuzzer, plus AFL and KLEE at seed 1. On any
/// mismatch the test prints the complete replacement table; a change
/// that is *meant* to alter reports pastes it over the file.
///
//===----------------------------------------------------------------------===//

#include "eval/Campaign.h"
#include "subjects/Subject.h"
#include "tokens/TokenCoverage.h"

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <map>
#include <mutex>
#include <sstream>
#include <string>
#include <vector>

using namespace pfuzz;

namespace {

constexpr uint64_t FnvBasis = 0xCBF29CE484222325ULL;

uint64_t fnv1a(const void *Data, size_t Size, uint64_t H) {
  const unsigned char *P = static_cast<const unsigned char *>(Data);
  for (size_t I = 0; I != Size; ++I) {
    H ^= P[I];
    H *= 0x100000001B3ULL;
  }
  return H;
}

template <typename T> uint64_t fnvValue(T V, uint64_t H) {
  return fnv1a(&V, sizeof(V), H);
}

/// Length-prefixed strings, in iteration order.
template <typename Range> uint64_t digestStrings(const Range &Strings) {
  uint64_t H = FnvBasis;
  for (const std::string &S : Strings) {
    H = fnvValue<uint64_t>(S.size(), H);
    H = fnv1a(S.data(), S.size(), H);
  }
  return H;
}

struct Cell {
  ToolKind Tool;
  const Subject *S;
  uint64_t Seed;
  uint32_t Shards;

  std::string key() const {
    const char *ToolName = Tool == ToolKind::PFuzzer ? "pfuzzer"
                           : Tool == ToolKind::Afl   ? "afl"
                                                     : "klee";
    std::ostringstream OS;
    OS << ToolName << ' ' << S->name() << ' ' << Seed << ' '
       << (Shards == 1 ? std::string("seq")
                       : "shards" + std::to_string(Shards));
    return OS.str();
  }
};

/// Execution budget per subject: at most 3k, less on the two
/// interpreters so the suite stays quick under the sanitizer jobs.
uint64_t budgetFor(const Subject &S) {
  return S.name() == "tinyc" || S.name() == "mjs" ? 1500 : 3000;
}

/// Runs \p C and returns its digest line: the key followed by the four
/// report digests in hex.
std::string runCell(const Cell &C) {
  ToolOptions Tools;
  Tools.PFuzzerShards = C.Shards;
  std::unique_ptr<Fuzzer> Tool = makeFuzzer(C.Tool, Tools);
  TokenCoverage Tokens(C.S->name());
  std::mutex TokensMutex; // shard loops report valid inputs concurrently
  FuzzerOptions Opts;
  Opts.Seed = C.Seed;
  Opts.MaxExecutions = budgetFor(*C.S);
  Opts.OnValidInput = [&](std::string_view Input) {
    std::lock_guard<std::mutex> Lock(TokensMutex);
    Tokens.addInput(Input);
  };
  FuzzReport R = Tool->run(*C.S, Opts);
  EXPECT_EQ(R.Executions, Opts.MaxExecutions) << C.key();

  uint64_t Timeline = FnvBasis;
  for (const auto &[Execs, Branches] : R.CoverageTimeline) {
    Timeline = fnvValue<uint64_t>(Execs, Timeline);
    Timeline = fnvValue<uint64_t>(Branches, Timeline);
  }
  uint64_t Branches = FnvBasis;
  for (uint32_t B : R.ValidBranches.values())
    Branches = fnvValue(B, Branches);

  char Buf[160];
  std::snprintf(Buf, sizeof(Buf),
                " %016" PRIx64 " %016" PRIx64 " %016" PRIx64 " %016" PRIx64,
                digestStrings(R.ValidInputs), Timeline, Branches,
                digestStrings(Tokens.found()));
  return C.key() + Buf;
}

std::vector<Cell> goldenCells() {
  std::vector<Cell> Cells;
  for (const Subject *S : evaluationSubjects()) {
    for (uint32_t Shards : {1u, 2u, 4u})
      for (uint64_t Seed : {1u, 2u, 3u})
        Cells.push_back({ToolKind::PFuzzer, S, Seed, Shards});
    Cells.push_back({ToolKind::Afl, S, 1, 1});
    Cells.push_back({ToolKind::Klee, S, 1, 1});
  }
  return Cells;
}

/// The checked-in table: key -> full line. Comment and blank lines are
/// skipped; the key is everything before the first digest column.
std::map<std::string, std::string> loadGolden(const char *Path) {
  std::map<std::string, std::string> Golden;
  std::ifstream In(Path);
  EXPECT_TRUE(In.good()) << "cannot read " << Path;
  std::string Line;
  while (std::getline(In, Line)) {
    if (Line.empty() || Line[0] == '#')
      continue;
    size_t Cut = Line.size();
    for (int Digests = 0; Digests != 4 && Cut != std::string::npos;
         ++Digests)
      Cut = Line.rfind(' ', Cut - 1);
    if (Cut != std::string::npos)
      Golden[Line.substr(0, Cut)] = Line;
  }
  return Golden;
}

} // namespace

TEST(GoldenReportTest, ReportsMatchCheckedInDigests) {
  std::map<std::string, std::string> Golden =
      loadGolden(PFUZZ_GOLDEN_DIGESTS);
  std::vector<std::string> Lines;
  size_t Mismatches = 0;
  for (const Cell &C : goldenCells()) {
    Lines.push_back(runCell(C));
    auto It = Golden.find(C.key());
    if (It == Golden.end()) {
      ADD_FAILURE() << "no golden digest for " << C.key();
      ++Mismatches;
    } else if (It->second != Lines.back()) {
      ADD_FAILURE() << "report digest changed:\n  golden " << It->second
                    << "\n  now    " << Lines.back();
      ++Mismatches;
    }
  }
  EXPECT_EQ(Golden.size(), Lines.size()) << "stale rows in the golden file";
  if (Mismatches == 0 && Golden.size() == Lines.size())
    return;
  std::string Table;
  for (const std::string &L : Lines)
    Table += L + "\n";
  ADD_FAILURE() << Mismatches
                << " cell(s) differ. If the change is meant to alter "
                   "reports, replace the data rows of "
                << PFUZZ_GOLDEN_DIGESTS << " with:\n"
                << Table;
}
