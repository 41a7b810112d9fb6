//===- support/Parallel.h - Index-parallel loop ------------------*- C++ -*-==//
//
// Part of the pfuzz project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one concurrency primitive of the seed-level Jobs layer: run a
/// loop body over an index range on a few plain threads. Whole seed
/// campaigns are long, independent and mandatory, so they need no task
/// queue, priorities, stealing or cancellation — threads simply take the
/// next index from a shared counter until the range is exhausted.
///
/// Determinism: parallelFor decides only *where* an iteration runs.
/// Callers that need results identical to a sequential loop write each
/// iteration's output into its own slot and reduce in index order (see
/// eval/Campaign.cpp).
///
//===----------------------------------------------------------------------===//

#ifndef PFUZZ_SUPPORT_PARALLEL_H
#define PFUZZ_SUPPORT_PARALLEL_H

#include <cstddef>
#include <functional>

namespace pfuzz {

/// std::thread::hardware_concurrency with a floor of 1 (the standard
/// allows it to report 0).
unsigned hardwareThreads();

/// Runs Fn(I) for every I in [Begin, End) and returns when all calls
/// finished. At most \p MaxConcurrency calls run at once (0 means
/// hardwareThreads()); the calling thread takes part, so a cap of 1 runs
/// the loop inline. Every iteration runs even when some throw; the
/// exception of the lowest throwing index is then rethrown.
void parallelFor(size_t Begin, size_t End,
                 const std::function<void(size_t)> &Fn,
                 size_t MaxConcurrency = 0);

} // namespace pfuzz

#endif // PFUZZ_SUPPORT_PARALLEL_H
