// The Prefix Transaction combinator — the paper's Definition 1 as a library.
//
//   prefix<P>(policy, fast, slow)
//
// attempts to run `fast` inside a hardware transaction up to policy.attempts
// times, then runs `slow` (the unmodified lock-free code) outside any
// transaction. Both callables must return the same type. `fast` runs under
// transactional semantics: it may call P::tx_abort<code>() to bail out (the
// paper's §2.4 "avoid helping" pattern), must not allocate host resources
// that need unwinding (aborts longjmp / hardware-rollback past it), and its
// shared accesses go through P::atomic.
//
// Progress (paper Theorems 2 & 3): attempts are finite and the fallback is
// the original algorithm, so the composition preserves lock-/wait-freedom.
//
// Composition (paper §2.5): nest by making `slow` itself call prefix —
// e.g. BST PTO1+PTO2 is prefix(2, wholeOp, [&]{ return insertPTO2(...); }).
//
// Telemetry: the optional last argument names the call site
// (PTO_TELEMETRY_SITE("name"), telemetry/registry.h). Every attempt, commit,
// abort and fallback passes telemetry::emit (telemetry/taps.h) — one relaxed
// load and one branch while no subscriber is armed.
#pragma once

#include <csetjmp>
#include <cstdint>
#include <functional>
#include <type_traits>

#include "htm/txcode.h"
#include "platform/platform.h"
#include "telemetry/taps.h"

namespace pto {

/// Per-call-site statistics: the value telemetry::Site::snapshot() returns.
struct PrefixStats {
  std::uint64_t attempts = 0;
  std::uint64_t commits = 0;
  std::uint64_t fallbacks = 0;
  std::uint64_t aborts[kTxCodeCount] = {};

  std::uint64_t total_aborts() const {
    std::uint64_t n = 0;
    for (auto a : aborts) n += a;
    return n;
  }
  /// Field-wise f(mine, theirs), e.g. a delta against an earlier sample.
  template <class F>
  PrefixStats zip(const PrefixStats& o, F f) const {
    PrefixStats r;
    r.attempts = f(attempts, o.attempts);
    r.commits = f(commits, o.commits);
    r.fallbacks = f(fallbacks, o.fallbacks);
    for (unsigned i = 0; i < kTxCodeCount; ++i) {
      r.aborts[i] = f(aborts[i], o.aborts[i]);
    }
    return r;
  }
  void accumulate(const PrefixStats& o) { *this = zip(o, std::plus<>()); }
};

struct PrefixPolicy {
  int attempts = 1;
  /// Explicit aborts signal "this situation wants the fallback" (§2.4);
  /// retrying them is usually wasted work.
  bool retry_on_explicit = false;
  /// Capacity/duration aborts will recur; retry only if asked.
  bool retry_on_capacity = false;

  constexpr PrefixPolicy() = default;
  constexpr explicit PrefixPolicy(int n) : attempts(n) {}
};

template <class P, class Fast, class Slow>
auto prefix(PrefixPolicy pol, Fast&& fast, Slow&& slow,
            telemetry::Site* site = nullptr) -> std::invoke_result_t<Slow&> {
  using telemetry::emit;
  using R = std::invoke_result_t<Slow&>;
  static_assert(std::is_same_v<R, std::invoke_result_t<Fast&>>,
                "fast and slow paths must return the same type");
  // volatile: locals modified between setjmp and longjmp are otherwise
  // indeterminate after an abort returns through the checkpoint.
  volatile int vi = 0;
  for (;;) {
    const int i = vi;
    if (i >= pol.attempts) break;
    vi = i + 1;
    emit(site, telemetry::kEventAttempt);
    unsigned s;
    if (!P::in_tx()) {
      // Software backends abort via longjmp; arm the checkpoint in THIS
      // frame, which stays live for the whole transaction. RTM ignores it.
      int j = setjmp(P::tx_checkpoint());
      s = (j == 0) ? P::tx_begin() : static_cast<unsigned>(j);
    } else {
      s = P::tx_begin();  // flat-nested inside an enclosing transaction
    }
    if (s == TX_STARTED) {
      if constexpr (std::is_void_v<R>) {
        fast();
        P::tx_end();
        emit(site, telemetry::kEventCommit);
        return;
      } else {
        R r = fast();
        P::tx_end();
        emit(site, telemetry::kEventCommit);
        return r;
      }
    }
    // Normalize first: a backend may surface a status outside our enum (an
    // unmapped RTM bit pattern, a stray longjmp payload); those land in the
    // OTHER bucket and are retried like transient aborts. Gating on the
    // normalized cause keeps the retry policy identical across backends —
    // DURATION is budget-gated exactly like CAPACITY whether it arrives from
    // the simulator's quantum check or from a software backend's longjmp.
    const unsigned cause = (s >= 1 && s < kTxCodeCount) ? s : TX_ABORT_OTHER;
    emit(site, telemetry::kEventAbort, cause);
    if (cause == TX_ABORT_EXPLICIT && !pol.retry_on_explicit) break;
    if ((cause == TX_ABORT_CAPACITY || cause == TX_ABORT_DURATION) &&
        !pol.retry_on_capacity) {
      break;
    }
  }
  emit(site, telemetry::kEventFallback);
  if constexpr (std::is_void_v<R>) {
    slow();
    emit(site, telemetry::kEventFallbackEnd);
    return;
  } else {
    R r = slow();
    emit(site, telemetry::kEventFallbackEnd);
    return r;
  }
}

/// Convenience overload: attempts only.
template <class P, class Fast, class Slow>
auto prefix(int attempts, Fast&& fast, Slow&& slow,
            telemetry::Site* site = nullptr) -> std::invoke_result_t<Slow&> {
  return prefix<P>(PrefixPolicy(attempts), static_cast<Fast&&>(fast),
                   static_cast<Slow&&>(slow), site);
}

}  // namespace pto
