// Native HTM facade: dispatches to Intel RTM when the CPU supports it and a
// probe transaction commits, otherwise to SoftHTM (htm/softhtm.h).
//
// Selection contract. The backend lives in one word, 0 until the first
// backend() call in the process probes (forced by the environment variable
// PTO_HTM=rtm|soft) and publishes it; the word is never written again. The
// first call may come from any thread at any time: racing first callers wait
// for the one probe. Once a thread has read the published word, it and every
// thread that happens after it read nothing else (coherence of one atomic
// word). So the facade branches on the word without a call:
//   - backend(), strongly_atomic() and tx_begin() treat 0 as "probe now";
//   - in_tx(), tx_end(), tx_abort() and last_user_code() read 0 as SoftHTM,
//     which is exact: a thread that reads 0 has begun no transaction;
//   - NativePlatform's atomics publish the word when constructed, so their
//     accessors, which run after construction, never read 0.
#pragma once

#include <atomic>
#include <csetjmp>
#include <cstdint>

#include "common/defs.h"
#include "htm/rtm_status.h"
#include "htm/softhtm.h"
#include "htm/txcode.h"
#include "telemetry/taps.h"

#if defined(PTO_HAVE_RTM)
#include <immintrin.h>

// rtm_status.h mirrors the ISA-defined bit layout so the decoder is testable
// without TSX; pin the mirror to the intrinsic header's definitions.
static_assert(pto::htm::kRtmExplicit == _XABORT_EXPLICIT);
static_assert(pto::htm::kRtmRetry == _XABORT_RETRY);
static_assert(pto::htm::kRtmConflict == _XABORT_CONFLICT);
static_assert(pto::htm::kRtmCapacity == _XABORT_CAPACITY);
static_assert(pto::htm::kRtmDebug == _XABORT_DEBUG);
static_assert(pto::htm::kRtmNested == _XABORT_NESTED);
#endif

namespace pto::htm {

/// Nonzero, so the backend word can hold 0 until the first probe.
enum class Backend : std::uint8_t { kRTM = 1, kSoft = 2 };

namespace detail {

/// The backend word. It sits alone on its cache line: every access inside an
/// RTM transaction reads it, so a write to a neighbour would abort every
/// running transaction.
struct alignas(kCacheLine) BackendWord {
  std::atomic<std::uint8_t> value{0};
};
static_assert(sizeof(BackendWord) == kCacheLine &&
                  alignof(BackendWord) == kCacheLine,
              "the backend word must fill its cache line alone");
extern constinit BackendWord g_backend;

/// First use: probes once through probe_backend() and publishes the word.
[[gnu::cold]] PTO_NOINLINE Backend publish_backend();

/// True when this thread reads RTM published (see the contract above).
inline bool rtm() {
  return g_backend.value.load(std::memory_order_relaxed) ==
         static_cast<std::uint8_t>(Backend::kRTM);
}

}  // namespace detail

/// The active backend (probed once; sticky for the process lifetime).
inline Backend backend() {
  const std::uint8_t w =
      detail::g_backend.value.load(std::memory_order_relaxed);
  if (PTO_LIKELY(w != 0)) return static_cast<Backend>(w);
  return detail::publish_backend();
}

/// True when transactions are strongly atomic with respect to plain
/// non-transactional accesses (RTM: yes; SoftHTM: only for atomics, via its
/// nt_* wrappers, so epoch elision is unsafe there — see reclaim/epoch.h).
inline bool strongly_atomic() { return backend() == Backend::kRTM; }

/// Checkpoint for software aborts; pto::prefix() arms it with setjmp before
/// calling tx_begin(). Unused (but harmless) under RTM.
inline std::jmp_buf& checkpoint() { return softhtm::tls_tx().env; }

namespace detail {
Backend probe_backend();

/// Telemetry site for the native facade ("htm.rtm" / "htm.soft"), so native
/// runs report commits and aborts-by-cause through the same registry schema
/// as the simulator. Commits are recorded after tx_end and aborts on the
/// abort return path — never inside a running transaction, where the shard
/// write would join the write set and be rolled back. RTM aborts surface
/// here via tx_begin's status; SoftHTM aborts are recorded by
/// softhtm::abort_tx (the longjmp bypasses tx_begin's return).
telemetry::Site* native_site();

/// Report one facade event through the telemetry gate (telemetry/taps.h).
inline void report(unsigned event, unsigned cause = 0) {
  if (PTO_UNLIKELY(telemetry::taps() != 0)) {
    telemetry::on_event(native_site(), event, cause);
  }
}

#if defined(PTO_HAVE_RTM)
extern thread_local unsigned char tls_rtm_user_code;
#endif
}  // namespace detail

inline unsigned tx_begin() {
#if defined(PTO_HAVE_RTM)
  if (backend() == Backend::kRTM) {
    unsigned s = _xbegin();
    if (s == _XBEGIN_STARTED) return TX_STARTED;
    if (s & kRtmExplicit) detail::tls_rtm_user_code = rtm_abort_code(s);
    unsigned code = decode_rtm_status(s);
    detail::report(telemetry::kEventAbort, code);
    return code;
  }
#endif
  return softhtm::begin();
}

inline void tx_end() {
#if defined(PTO_HAVE_RTM)
  if (detail::rtm()) {
    _xend();
    // _xtest guards the flat-nested case: only the outermost commit leaves
    // the transaction, and the shard write must stay non-transactional.
    if (_xtest() == 0) detail::report(telemetry::kEventCommit);
    return;
  }
#endif
  softhtm::commit();
  if (!softhtm::in_tx()) detail::report(telemetry::kEventCommit);
}

/// Explicitly abort the running transaction with user payload C.
/// RTM requires the abort code to be an immediate, hence the template.
template <unsigned char C>
[[noreturn]] inline void tx_abort() {
#if defined(PTO_HAVE_RTM)
  if (detail::rtm()) {
    _xabort(C);
    __builtin_unreachable();
  }
#endif
  softhtm::abort_tx(TX_ABORT_EXPLICIT, C);
}

inline bool in_tx() {
#if defined(PTO_HAVE_RTM)
  if (detail::rtm()) return _xtest() != 0;
#endif
  return softhtm::in_tx();
}

/// User payload of this thread's last explicit abort.
inline unsigned char last_user_code() {
#if defined(PTO_HAVE_RTM)
  if (detail::rtm()) return detail::tls_rtm_user_code;
#endif
  return softhtm::last_user_code();
}

}  // namespace pto::htm
