//===- support/Fiber.cpp - Stackful execution contexts --------------------===//
//
// Part of the pfuzz project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/Fiber.h"

#include <cassert>
#include <cstring>

#if defined(PFUZZ_ASAN)
#include <sanitizer/asan_interface.h>
#include <sanitizer/common_interface_defs.h>
#endif

using namespace pfuzz;

#if PFUZZ_FIBERS_AVAILABLE

namespace {
/// The fiber whose stack the calling thread is currently executing on,
/// or null when on the thread's own stack. Set around every switch; lets
/// the static on-fiber entry points (yield, checkpoint, trampoline) find
/// their Fiber without threading a pointer through makecontext's int
/// argument splitting.
thread_local Fiber *ActiveFiber = nullptr;
} // namespace

Fiber::Fiber(size_t StackSize)
    : StackMem(new char[StackSize]), StackBase(StackMem.get()),
      Size(StackSize) {}

Fiber::~Fiber() = default;

bool Fiber::available() {
#if defined(PFUZZ_ASAN)
  // With detect_stack_use_after_return the locals of instrumented frames
  // live on a heap-side fake stack that a stack-byte checkpoint cannot
  // capture; refuse rather than restore half a frame.
  if (__asan_get_current_fake_stack() != nullptr)
    return false;
#endif
  return true;
}

void Fiber::trampoline() {
  Fiber *F = ActiveFiber;
  F->finishArrivalOnFiber();
  F->Entry(F->Arg);
  F->Finished = true;
  F->switchOutOfFiber(&F->FiberUc);
  assert(false && "finished fiber resumed");
}

void Fiber::run(void (*Fn)(void *), void *A) {
  assert(ActiveFiber == nullptr && "nested fiber runs are not supported");
  Entry = Fn;
  Arg = A;
  Finished = false;
  getcontext(&FiberUc);
  FiberUc.uc_stack.ss_sp = StackBase;
  FiberUc.uc_stack.ss_size = Size;
  FiberUc.uc_link = &MainUc;
  makecontext(&FiberUc, &Fiber::trampoline, 0);
  switchIntoFiber(&MainUc, &FiberUc);
}

void Fiber::resume() {
  assert(!Finished && "resume of a finished fiber");
  assert(ActiveFiber == nullptr && "resume from on-fiber code");
  switchIntoFiber(&MainUc, &FiberUc);
}

void Fiber::yield() {
  Fiber *F = ActiveFiber;
  assert(F && "yield outside a fiber");
  F->switchOutOfFiber(&F->FiberUc);
  // Resumed: back on the fiber.
  F->finishArrivalOnFiber();
}

bool Fiber::checkpoint(FiberCheckpoint &Out) {
  Fiber *F = ActiveFiber;
  assert(F && "checkpoint outside a fiber");
  // Resumed lives in this frame, inside the captured region: the saved
  // copy carries `true`, so re-entering the saved context lands in the
  // branch below. Volatile — the flag changes across a context jump the
  // compiler cannot see.
  volatile bool Resumed = false;
  char FrameLocal;
  getcontext(&Out.At);
  if (Resumed) {
    // A resumeAt() jumped here with the stack restored.
    F->finishArrivalOnFiber();
    return true;
  }
  Resumed = true;
  F->captureStack(Out, &FrameLocal);
  Out.Captured = true;
  return false;
}

/// The stack pointer saved in \p At: everything at or above it is live.
/// Falls back to a margin below a frame local of the capturing function
/// on targets where the mcontext layout is not known here.
static char *savedStackPointer(const ucontext_t &At, char *FrameHint) {
#if defined(__x86_64__)
  return reinterpret_cast<char *>(At.uc_mcontext.gregs[REG_RSP]);
#elif defined(__aarch64__)
  return reinterpret_cast<char *>(At.uc_mcontext.sp);
#else
  return FrameHint - 1024;
#endif
}

#if defined(PFUZZ_ASAN)
/// Copies live fiber stack bytes without ASan checks. The region spans
/// the redzones of every frame on it, which an intercepted memcpy reports
/// as a stack-buffer-underflow; the volatile accesses keep the compiler
/// from lowering the loop back into that memcpy.
__attribute__((no_sanitize("address"))) static void
copyStackBytes(char *Dst, const char *Src, size_t Size) {
  volatile char *D = Dst;
  const volatile char *S = Src;
  for (size_t I = 0; I != Size; ++I)
    D[I] = S[I];
}
#endif

void Fiber::captureStack(FiberCheckpoint &Out, char *FrameHint) {
  char *Sp = savedStackPointer(Out.At, FrameHint);
  if (Sp < StackBase)
    Sp = StackBase;
  char *Top = StackBase + Size;
  assert(Sp <= Top && "capture point outside the fiber stack");
  Out.Offset = static_cast<size_t>(Sp - StackBase);
#if defined(PFUZZ_ASAN)
  Out.Stack.resize(static_cast<size_t>(Top - Sp));
  copyStackBytes(Out.Stack.data(), Sp, Out.Stack.size());
#else
  Out.Stack.assign(Sp, Top);
#endif
}

void Fiber::resumeAt(const FiberCheckpoint &Cp) {
  assert(Cp.Captured && "resumeAt of an empty checkpoint");
  assert(ActiveFiber == nullptr && "resumeAt from on-fiber code");
  assert(Cp.Offset + Cp.Stack.size() == Size && "checkpoint from another fiber");
#if defined(PFUZZ_ASAN)
  // The previous run's frames poisoned redzones that do not line up with
  // the restored frames; clear the whole stack's shadow — before the
  // copy, which would otherwise write into stale redzones. Costs some
  // overflow precision inside resumed frames, never correctness.
  __asan_unpoison_memory_region(StackBase, Size);
#endif
  std::memcpy(StackBase + Cp.Offset, Cp.Stack.data(), Cp.Stack.size());
  Finished = false;
  // setcontext reads the target without modifying it, so the pinned
  // checkpoint context is passed directly (a copy would break glibc's
  // interior fpregs pointer). Nothing may touch Cp after the switch: the
  // resumed run is free to evict the very checkpoint that seeded it.
  switchIntoFiber(&MainUc, &Cp.At);
}

void Fiber::switchIntoFiber(ucontext_t *SaveTo, const ucontext_t *Target) {
  ActiveFiber = this;
#if defined(PFUZZ_ASAN)
  __sanitizer_start_switch_fiber(&MainFakeStack, StackBase, Size);
#endif
  swapcontext(SaveTo, Target);
  // Back on the main stack: the fiber finished or yielded.
  ActiveFiber = nullptr;
#if defined(PFUZZ_ASAN)
  __sanitizer_finish_switch_fiber(MainFakeStack, nullptr, nullptr);
#endif
}

void Fiber::switchOutOfFiber(ucontext_t *SaveTo) {
#if defined(PFUZZ_ASAN)
  __sanitizer_start_switch_fiber(Finished ? nullptr : &FiberFakeStack,
                                 MainStackBottom, MainStackSize);
#endif
  swapcontext(SaveTo, &MainUc);
}

void Fiber::finishArrivalOnFiber() {
#if defined(PFUZZ_ASAN)
  __sanitizer_finish_switch_fiber(FiberFakeStack, &MainStackBottom,
                                  &MainStackSize);
  FiberFakeStack = nullptr;
#endif
}

#else // !PFUZZ_FIBERS_AVAILABLE

// Fallback stubs: the class compiles, available() reports false, and the
// switching entry points must not be reached (callers gate on
// available()). Keeps every call site free of #ifdefs.

Fiber::Fiber(size_t StackSize) : Size(StackSize) {}
Fiber::~Fiber() = default;

bool Fiber::available() { return false; }

void Fiber::run(void (*)(void *), void *) {
  assert(false && "Fiber::run without fiber support");
}

void Fiber::resume() { assert(false && "Fiber::resume without fiber support"); }

void Fiber::yield() { assert(false && "Fiber::yield without fiber support"); }

bool Fiber::checkpoint(FiberCheckpoint &) {
  assert(false && "Fiber::checkpoint without fiber support");
  return false;
}

void Fiber::resumeAt(const FiberCheckpoint &) {
  assert(false && "Fiber::resumeAt without fiber support");
}

#endif // PFUZZ_FIBERS_AVAILABLE
