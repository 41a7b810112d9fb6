//===- tests/support/ParallelForTest.cpp - parallelFor contract -----------===//
//
// Part of the pfuzz project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// parallelFor and hardwareThreads took over the loop contract that the
// former Scheduler and ThreadPool classes each offered, and their tests
// keep those suites' names. ThreadPoolTest drives the default cap (0,
// i.e. hardwareThreads()), as a default-sized pool did; SchedulerTest
// drives explicit caps, as a sized scheduler did.
//
//===----------------------------------------------------------------------===//

#include "support/Parallel.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

using namespace pfuzz;

namespace {

/// Raises \p Max to \p Now unless it already is at least that high.
template <typename T> void raiseMax(std::atomic<T> &Max, T Now) {
  T Seen = Max.load();
  while (Now > Seen && !Max.compare_exchange_weak(Seen, Now)) {
  }
}

/// Runs parallelFor(0, 8) with iterations 3 and 5 throwing and checks
/// that all 8 ran and iteration 3's exception surfaced.
void expectAllRunThenThirdRethrown(size_t Cap) {
  std::vector<std::atomic<int>> Ran(8);
  try {
    parallelFor(
        0, 8,
        [&](size_t I) {
          Ran[I].fetch_add(1);
          // Iteration 5 throws first in time more often than not; the
          // rethrown exception must still be iteration 3's.
          if (I == 3) {
            std::this_thread::sleep_for(std::chrono::milliseconds(10));
            throw std::runtime_error("iteration 3");
          }
          if (I == 5)
            throw std::runtime_error("iteration 5");
        },
        Cap);
    FAIL() << "parallelFor swallowed the exceptions";
  } catch (const std::runtime_error &E) {
    EXPECT_STREQ(E.what(), "iteration 3");
  }
  for (size_t I = 0; I != Ran.size(); ++I)
    EXPECT_EQ(Ran[I].load(), 1) << "index " << I;
}

} // namespace

TEST(ThreadPoolTest, HardwareThreadsAtLeastOne) {
  EXPECT_GE(hardwareThreads(), 1u);
}

TEST(ThreadPoolTest, DefaultSizeMatchesHardware) {
  unsigned HW = hardwareThreads();
  // HW iterations that each wait until all HW are in flight at once: a
  // cap below HW could never get them all running together (the wait
  // times out instead), and no cap may exceed HW.
  std::atomic<unsigned> InFlight{0};
  std::atomic<unsigned> MaxInFlight{0};
  parallelFor(
      0, HW,
      [&](size_t) {
        raiseMax(MaxInFlight, InFlight.fetch_add(1) + 1);
        auto Deadline =
            std::chrono::steady_clock::now() + std::chrono::seconds(10);
        while (MaxInFlight.load() < HW &&
               std::chrono::steady_clock::now() < Deadline)
          std::this_thread::yield();
      },
      /*MaxConcurrency=*/0);
  EXPECT_EQ(MaxInFlight.load(), HW);
}

TEST(ThreadPoolTest, ParallelForCoversEveryIndexExactlyOnce) {
  std::vector<std::atomic<int>> Hits(100);
  parallelFor(0, Hits.size(), [&](size_t I) { Hits[I].fetch_add(1); });
  for (size_t I = 0; I != Hits.size(); ++I)
    EXPECT_EQ(Hits[I].load(), 1) << "index " << I;
}

TEST(ThreadPoolTest, ParallelForEmptyRangeIsANoOp) {
  int Calls = 0;
  parallelFor(0, 0, [&](size_t) { ++Calls; });
  parallelFor(7, 7, [&](size_t) { ++Calls; });
  parallelFor(9, 3, [&](size_t) { ++Calls; });
  EXPECT_EQ(Calls, 0);
}

TEST(ThreadPoolTest, ParallelForRethrowsFirstExceptionInIndexOrder) {
  expectAllRunThenThirdRethrown(/*Cap=*/0);
}

TEST(SchedulerTest, HardwareThreadsAtLeastOne) {
  // The floor of 1 applies only where the standard reports 0.
  unsigned Reported = std::thread::hardware_concurrency();
  EXPECT_EQ(hardwareThreads(), Reported == 0 ? 1u : Reported);
}

TEST(SchedulerTest, DefaultSizeMatchesHardware) {
  // With far more iterations than threads, cap 0 still never runs more
  // than hardwareThreads() of them at once.
  unsigned HW = hardwareThreads();
  std::atomic<unsigned> InFlight{0};
  std::atomic<unsigned> MaxInFlight{0};
  parallelFor(
      0, 4 * HW,
      [&](size_t) {
        raiseMax(MaxInFlight, InFlight.fetch_add(1) + 1);
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        InFlight.fetch_sub(1);
      },
      /*MaxConcurrency=*/0);
  EXPECT_GE(MaxInFlight.load(), 1u);
  EXPECT_LE(MaxInFlight.load(), HW);
}

TEST(SchedulerTest, ParallelForCoversEveryIndexExactlyOnce) {
  for (size_t Cap : {1u, 3u, 64u}) {
    SCOPED_TRACE("cap " + std::to_string(Cap));
    std::vector<std::atomic<int>> Hits(100);
    parallelFor(
        5, 95, [&](size_t I) { Hits[I].fetch_add(1); }, Cap);
    for (size_t I = 0; I != Hits.size(); ++I)
      EXPECT_EQ(Hits[I].load(), I >= 5 && I < 95 ? 1 : 0) << "index " << I;
  }
}

TEST(SchedulerTest, ParallelForEmptyRangeIsANoOp) {
  for (size_t Cap : {1u, 2u}) {
    SCOPED_TRACE("cap " + std::to_string(Cap));
    int Calls = 0;
    parallelFor(
        5, 5, [&](size_t) { ++Calls; }, Cap);
    parallelFor(
        9, 3, [&](size_t) { ++Calls; }, Cap);
    EXPECT_EQ(Calls, 0);
  }
}

TEST(SchedulerTest, ParallelForRethrowsFirstExceptionInIndexOrder) {
  // Cap 1 runs inline on the caller; cap 4 spreads over threads.
  for (size_t Cap : {1u, 4u}) {
    SCOPED_TRACE("cap " + std::to_string(Cap));
    expectAllRunThenThirdRethrown(Cap);
  }
}

TEST(ParallelForTest, HonorsConcurrencyCap) {
  std::atomic<int> InFlight{0};
  std::atomic<int> MaxInFlight{0};
  parallelFor(
      0, 8,
      [&](size_t) {
        raiseMax(MaxInFlight, InFlight.fetch_add(1) + 1);
        // Overlap the iterations long enough that an uncapped loop
        // would be caught.
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
        InFlight.fetch_sub(1);
      },
      /*MaxConcurrency=*/2);
  EXPECT_GE(MaxInFlight.load(), 1);
  EXPECT_LE(MaxInFlight.load(), 2);
}
