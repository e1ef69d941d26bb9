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
// Its two pieces alone decide what an attempt and a fallback are: the
// attempt loop, prefix<P>(policy, fast, kCallerFallback), and FallbackScope,
// one run of the original algorithm. A site that searches again before each
// attempt calls the loop per search, then falls back under a FallbackScope.
//
// Progress (paper Theorems 2 & 3): attempts are finite and the fallback is
// the original algorithm, so the composition preserves lock-/wait-freedom.
//
// Composition (paper §2.5): nest by making `slow` itself call prefix —
// e.g. BST PTO1+PTO2 is prefix(2, wholeOp, [&]{ return insertPTO2(...); }).
//
// Telemetry: the optional last argument names the call site
// (PTO_TELEMETRY_SITE("name"), telemetry/registry.h). Every event passes
// telemetry::emit (telemetry/taps.h) — one relaxed load and one branch while
// no subscriber is armed.
#pragma once

#include <csetjmp>
#include <cstdint>
#include <functional>
#include <optional>
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
  /// The share of finished operations (commits + fallbacks) that fell back.
  double fallback_rate() const {
    const std::uint64_t done = commits + fallbacks;
    return done == 0 ? 0.0 : static_cast<double>(fallbacks) / done;
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

/// Selects the attempt loop alone: its caller runs the fallback.
struct CallerFallback {};
inline constexpr CallerFallback kCallerFallback{};

/// The committed attempt's result, or empty once the budget is spent (for a
/// void fast path, whether an attempt committed).
template <class R>
using Attempted =
    std::conditional_t<std::is_void_v<R>, bool, std::optional<R>>;

/// The only emitter of the fallback events: every layer behind the event
/// gate sees one fallback per operation that ran the original algorithm.
class FallbackScope {
 public:
  explicit FallbackScope(telemetry::Site* site) : site_(site) {
    telemetry::emit(site_, telemetry::kEventFallback);
  }
  ~FallbackScope() { telemetry::emit(site_, telemetry::kEventFallbackEnd); }
  FallbackScope(const FallbackScope&) = delete;
  FallbackScope& operator=(const FallbackScope&) = delete;

 private:
  telemetry::Site* site_;
};

namespace detail {

/// The attempt loop: up to pol.attempts transactions of `fast`, fewer when
/// the policy gives up on an explicit or capacity abort.
template <class P, class Fast>
auto attempt_loop(PrefixPolicy pol, Fast& fast, telemetry::Site* site)
    -> Attempted<std::invoke_result_t<Fast&>> {
  using telemetry::emit;
  using R = std::invoke_result_t<Fast&>;
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
        return true;
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
  return {};
}

}  // namespace detail

/// The attempt loop alone. A spent budget ends the call (kEventSpent): the
/// caller searches again or runs the fallback under a FallbackScope.
template <class P, class Fast>
auto prefix(PrefixPolicy pol, Fast&& fast, CallerFallback,
            telemetry::Site* site = nullptr)
    -> Attempted<std::invoke_result_t<Fast&>> {
  auto r = detail::attempt_loop<P>(pol, fast, site);
  if (!r) telemetry::emit(site, telemetry::kEventSpent);
  return r;
}

/// The combinator: the attempt loop, then `slow` under a FallbackScope.
template <class P, class Fast, class Slow>
auto prefix(PrefixPolicy pol, Fast&& fast, Slow&& slow,
            telemetry::Site* site = nullptr) -> std::invoke_result_t<Slow&> {
  using R = std::invoke_result_t<Slow&>;
  static_assert(std::is_same_v<R, std::invoke_result_t<Fast&>>,
                "fast and slow paths must return the same type");
  if (auto r = detail::attempt_loop<P>(pol, fast, site)) {
    if constexpr (!std::is_void_v<R>) return *std::move(r);
    else return;
  }
  FallbackScope fb(site);
  return slow();
}

/// Convenience overload: attempts only (either form).
template <class P, class Fast, class Slow>
decltype(auto) prefix(int attempts, Fast&& fast, Slow&& slow,
                      telemetry::Site* site = nullptr) {
  return prefix<P>(PrefixPolicy(attempts), static_cast<Fast&&>(fast),
                   static_cast<Slow&&>(slow), site);
}

}  // namespace pto
