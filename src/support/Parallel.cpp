//===- support/Parallel.cpp - Index-parallel loop -------------------------===//
//
// Part of the pfuzz project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/Parallel.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <system_error>
#include <thread>
#include <vector>

using namespace pfuzz;

unsigned pfuzz::hardwareThreads() {
  unsigned N = std::thread::hardware_concurrency();
  return N == 0 ? 1 : N;
}

void pfuzz::parallelFor(size_t Begin, size_t End,
                        const std::function<void(size_t)> &Fn,
                        size_t MaxConcurrency) {
  if (Begin >= End)
    return;
  size_t N = End - Begin;
  size_t Cap = MaxConcurrency == 0 ? hardwareThreads() : MaxConcurrency;
  size_t NumThreads = std::min(Cap, N);
  std::atomic<size_t> Next{Begin};
  std::vector<std::exception_ptr> Errors(N);
  auto Drain = [&] {
    for (;;) {
      size_t Idx = Next.fetch_add(1, std::memory_order_relaxed);
      if (Idx >= End)
        return;
      try {
        Fn(Idx);
      } catch (...) {
        Errors[Idx - Begin] = std::current_exception();
      }
    }
  };
  std::vector<std::thread> Threads;
  Threads.reserve(NumThreads - 1);
  try {
    for (size_t T = 1; T < NumThreads; ++T)
      Threads.emplace_back(Drain);
  } catch (const std::system_error &) {
    // Out of threads: the ones already running plus this thread still
    // drain every index, just with less concurrency.
  }
  Drain();
  for (std::thread &T : Threads)
    T.join();
  for (std::exception_ptr &E : Errors)
    if (E)
      std::rethrow_exception(E);
}
