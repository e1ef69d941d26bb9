// pto::warn_once — one rate-limited diagnostic channel for the whole runtime.
//
// Every subsystem used to hand-roll the same "static bool warned" fprintf
// pattern; this consolidates them. A *key* names a warning class
// ("env.PTO_SIM_STACK_KB", "registry.slot_overflow", ...): the first call
// with a given key formats and prints "[pto] warning: <msg>\n" to stderr,
// later calls with the same key are dropped (the drop count is kept so the
// process-exit line can say how noisy a suppressed class was).
//
// When pto::metrics is armed the message is additionally forwarded — once,
// like the stderr line — to the metrics NDJSON stream as a structured
// {"type":"warning"} event via the registered sink, so warnings land in the
// same time-ordered record stream operators are already watching; warnings
// printed before the sink was set (static-init env parsing) are forwarded
// when it is. The sink indirection keeps common/ free of any dependency on
// metrics/.
//
// Callable from any thread (host or fiber); never allocates on the fast
// (already-warned) path beyond the key lookup, never charges virtual cycles.
#pragma once

#include <cstdint>

namespace pto {

#if defined(__GNUC__) || defined(__clang__)
#define PTO_PRINTF_ATTR(fmt_idx, arg_idx) \
  __attribute__((format(printf, fmt_idx, arg_idx)))
#else
#define PTO_PRINTF_ATTR(fmt_idx, arg_idx)
#endif

/// Print `fmt` (printf-style) to stderr, at most once per `key` for the
/// process lifetime. Returns true when this call actually printed.
bool warn_once(const char* key, const char* fmt, ...) PTO_PRINTF_ATTR(2, 3);

/// Times warn_once(key, ...) was called (including suppressed calls);
/// 0 if never. Tests and the metrics watchdog read this.
std::uint64_t warn_count(const char* key);

/// Structured-event sink: receives (key, formatted message) for each warning
/// that actually printed, including those printed before it was set. Set by
/// pto::metrics at arm time; nullptr disables. Call without holding any lock
/// the sink takes.
using WarnSink = void (*)(const char* key, const char* msg);
void set_warn_sink(WarnSink sink);

}  // namespace pto
