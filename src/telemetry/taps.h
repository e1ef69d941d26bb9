// pto::telemetry taps — the one gate every prefix event passes.
//
// A *tap* is one subscriber's bit in a single constant-initialized word:
// the registry's site counters, the latency histograms' fallback note, the
// flight recorder, the profiler and the checker. Each subsystem's gate
// (telemetry::enabled, obs::hist_on, obs::flight_on, prof::on, check::on)
// reads its own bit, and each setter or env initializer sets or clears only
// its own bit — so static-init order across translation units can never
// drop an env-armed tap.
//
// pto::prefix() and the native HTM facade test the whole word with one
// relaxed load: with every tap off an event costs one branch; with any tap
// on, one out-of-line on_event() (telemetry/registry.cpp) dispatches it to
// the armed taps. While the profiler or the checker tap is armed, on_event
// also keeps the one span stack both read (telemetry/span.h).
#pragma once

#include <atomic>

#include "common/defs.h"

namespace pto::telemetry {

class Site;

enum Tap : unsigned {
  kTapCounters = 1u << 0,  ///< site counters (PTO_STATS/METRICS/...)
  kTapHist = 1u << 1,      ///< latency histograms (PTO_OBS)
  kTapFlight = 1u << 2,    ///< flight recorder (PTO_FLIGHT)
  kTapProf = 1u << 3,      ///< profiler (PTO_PROF)
  kTapCheck = 1u << 4,     ///< checker (PTO_CHECK)
};

/// Prefix events. Codes 1-4 double as flight-recorder event codes
/// (obs/flight.h, the PTOFLT01 dump format).
enum Event : unsigned {
  kEventAttempt = 1,      ///< prefix attempt / tx begin
  kEventCommit = 2,       ///< fast-path commit
  kEventAbort = 3,        ///< tx abort; cause = TxAbort code
  kEventFallback = 4,     ///< fallback path entered
  kEventFallbackEnd = 5,  ///< fallback returned: closes the fallback span
                          ///< (telemetry/span.h), counts nothing
};

namespace detail {
extern std::atomic<unsigned> g_taps;  ///< constant-initialized to 0
}  // namespace detail

inline unsigned taps() {
  return detail::g_taps.load(std::memory_order_relaxed);
}
inline bool tap_on(unsigned tap) { return (taps() & tap) != 0; }
void set_tap(unsigned tap, bool on);

/// Dispatch one event to every armed tap; a null site is ignored.
void on_event(Site* site, unsigned event, unsigned cause = 0);

/// The gate: one relaxed load and one branch while every tap is off.
inline void emit(Site* site, unsigned event, unsigned cause = 0) {
  if (PTO_UNLIKELY(taps() != 0)) on_event(site, event, cause);
}

}  // namespace pto::telemetry
