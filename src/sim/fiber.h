// Fibers for the simulator: all virtual threads are multiplexed on the single
// host thread, switching only at instrumented points, so no host
// synchronization is required.
//
// Two interchangeable context-switch backends sit behind ExecContext:
//
//  * PTO_FAST_FIBER (x86-64, CMake option, default on): a hand-rolled
//    callee-saved-register switch — ~15 instructions, no syscalls. glibc's
//    swapcontext makes a sigprocmask syscall per switch, which dominates the
//    simulator's yield cost; the simulator never changes signal masks, so the
//    fast path simply doesn't touch them.
//  * ucontext fallback (portable, and required under ASan, whose fake-stack
//    bookkeeping only understands the intercepted ucontext API).
//
// Yielding fibers switch directly to their successor (scheduler.cpp picks
// it); the host context is entered only at run() start and teardown.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>

#if !PTO_FAST_FIBER
#include <ucontext.h>
#endif

#if defined(__SANITIZE_ADDRESS__)
#define PTO_ASAN_FIBERS 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define PTO_ASAN_FIBERS 1
#endif
#endif
#if PTO_ASAN_FIBERS
#include <sanitizer/asan_interface.h>
#endif

namespace pto::sim {

#if PTO_FAST_FIBER

/// Saved execution state: just the stack pointer — everything else lives on
/// the owning stack (callee-saved registers, mxcsr, x87 control word).
struct ExecContext {
  void* sp = nullptr;
};

extern "C" void pto_ctx_switch(void** save_sp, void* resume_sp);

/// Suspend the current context into `save` and resume `resume`.
inline void ctx_switch(ExecContext& save, ExecContext& resume) {
  pto_ctx_switch(&save.sp, resume.sp);
}

#else  // ucontext fallback

struct ExecContext {
  ucontext_t uc{};
};

inline void ctx_switch(ExecContext& save, ExecContext& resume) {
  swapcontext(&save.uc, &resume.uc);
}

#endif

/// Patterned bytes allocated below every fiber stack, beyond its requested
/// size. A stack that grows past its bottom damages the pattern; the
/// simulator checks it when the fiber finishes and before freeing it.
inline constexpr std::size_t kRedZone = 4096;

class Fiber {
 public:
  /// Creates a fiber that will execute `fn` when first switched to. `fn` must
  /// never return: a finishing virtual thread hands control to the scheduler
  /// (Runtime::on_fiber_done), which switches away forever.
  Fiber(std::size_t stack_bytes, std::function<void()> fn);
  Fiber(const Fiber&) = delete;
  Fiber& operator=(const Fiber&) = delete;

  ExecContext& context() { return ctx_; }

  /// Erase ASan shadow poison over the whole fiber stack. Call before a
  /// longjmp taken while running on this fiber: ASan's no-return handler
  /// unpoisons the *host* thread stack (it cannot know execution is on a
  /// heap-allocated stack), so the redzones of the frames the jump abandons
  /// would otherwise linger here as stale poison and fault later, unrelated
  /// frames — including the sanitizer runtime's own uninstrumented ones.
  /// No-op outside ASan builds.
  void unpoison_stack() {
#if PTO_ASAN_FIBERS
    __asan_unpoison_memory_region(mem_.get(), kRedZone + stack_bytes_);
#endif
  }

  /// Aborts with a message naming vthread `tid` when this fiber's stack has
  /// overflowed into its red zone.
  void check_red_zone(unsigned tid) const;

 private:
#if PTO_FAST_FIBER
  static void entry(void* self);
#else
  static void trampoline(unsigned hi, unsigned lo);
#endif

  char* stack() const { return mem_.get() + kRedZone; }

  ExecContext ctx_{};
  std::unique_ptr<char[]> mem_;  ///< kRedZone red-zone bytes, then the stack
  std::size_t stack_bytes_ = 0;
  std::function<void()> fn_;
};

}  // namespace pto::sim
