//===- support/ThreadPool.cpp - Fixed-size worker pool --------------------===//
//
// Part of the pfuzz project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/ThreadPool.h"

#include <algorithm>

using namespace pfuzz;

unsigned ThreadPool::hardwareThreads() {
  unsigned N = std::thread::hardware_concurrency();
  return N == 0 ? 1 : N;
}

ThreadPool::ThreadPool(unsigned Threads) {
  if (Threads == 0)
    Threads = hardwareThreads();
  Workers.reserve(Threads);
  for (unsigned I = 0; I != Threads; ++I)
    Workers.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    Stopping = true;
  }
  WorkAvailable.notify_all();
  for (std::thread &W : Workers)
    W.join();
}

void ThreadPool::workerLoop() {
  for (;;) {
    std::packaged_task<void()> Task;
    {
      std::unique_lock<std::mutex> Lock(Mutex);
      WorkAvailable.wait(Lock,
                         [this] { return Stopping || QueueHead < Queue.size(); });
      if (QueueHead == Queue.size()) {
        // Stopping and the queue is drained: exit. (Stopping with tasks
        // still queued keeps draining — destruction never drops work.)
        return;
      }
      Task = std::move(Queue[QueueHead]);
      ++QueueHead;
      // Compact occasionally so a long-lived pool does not accumulate
      // moved-out task shells.
      if (QueueHead == Queue.size()) {
        Queue.clear();
        QueueHead = 0;
      } else if (QueueHead > 1024 && QueueHead * 2 > Queue.size()) {
        Queue.erase(Queue.begin(), Queue.begin() + QueueHead);
        QueueHead = 0;
      }
    }
    Task();
  }
}

std::future<void> ThreadPool::submit(std::function<void()> Task) {
  std::packaged_task<void()> Packaged(std::move(Task));
  std::future<void> Future = Packaged.get_future();
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    Queue.push_back(std::move(Packaged));
  }
  WorkAvailable.notify_one();
  return Future;
}

bool CancellableTask::cancel() {
  if (!State)
    return false;
  int Expected = Pending;
  return State->Phase.compare_exchange_strong(Expected, Cancelled);
}

void CancellableTask::wait() {
  if (State)
    State->Future.wait();
}

bool CancellableTask::ran() const {
  return State && State->Phase.load(std::memory_order_acquire) == Done;
}

CancellableTask ThreadPool::submitCancellable(std::function<void()> Task) {
  CancellableTask Handle;
  Handle.State = std::make_shared<CancellableTask::Shared>();
  // Weak: the handle's state owns this closure's future, so a strong
  // capture would be a reference cycle leaking both.
  std::weak_ptr<CancellableTask::Shared> WeakState = Handle.State;
  Handle.State->Future =
      submit([WeakState, Task = std::move(Task)] {
        std::shared_ptr<CancellableTask::Shared> State = WeakState.lock();
        if (!State) {
          Task(); // every handle is gone, so nothing can cancel it
          return;
        }
        // Claim the task; a concurrent cancel() that won the race turns
        // this queue slot into a no-op.
        int Expected = CancellableTask::Pending;
        if (!State->Phase.compare_exchange_strong(Expected,
                                                  CancellableTask::Running))
          return;
        Task();
        State->Phase.store(CancellableTask::Done, std::memory_order_release);
      });
  return Handle;
}

void ThreadPool::parallelFor(size_t Begin, size_t End,
                             const std::function<void(size_t)> &Fn) {
  if (Begin >= End)
    return;
  std::vector<std::future<void>> Futures;
  Futures.reserve(End - Begin);
  for (size_t I = Begin; I != End; ++I)
    Futures.push_back(submit([&Fn, I] { Fn(I); }));
  // Wait for everything first so all iterations complete even when an
  // early one threw; then surface the first exception in index order.
  for (std::future<void> &F : Futures)
    F.wait();
  for (std::future<void> &F : Futures)
    F.get();
}
