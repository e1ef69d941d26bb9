// pto::obs — low-overhead observability for NATIVE (non-simx) runs: per-site
// op-latency histograms, the flight recorder (obs/flight.h), and optional
// hardware perf counters (obs/perf_counters.h). Simulated runs ignore every
// knob here: simx latencies are virtual cycles and already exactly observable
// through PTO_PROF/PTO_TRACE.
//
//   PTO_OBS=1          arm per-op latency histograms (native bench runners)
//   PTO_OBS_SAMPLE=<k> time 1 in k ops (rounded to a power of two; default 1
//                      = every op). Percentiles over a uniform subsample are
//                      unbiased for a stationary workload; use k=8..64 when
//                      the two RDTSCs per timed op would be material against
//                      sub-microsecond ops.
//   PTO_FLIGHT=<n>     arm the per-thread flight recorder, ring of n events
//   PTO_PERF=1         sample hardware perf counters around bench points
//
// Recording model: latency is recorded under a telemetry::Site named for the
// op class ("native_set.insert", "svc.get"). The shard a thread's slot holds
// in that site (telemetry/registry.h) carries two private log-linear
// histograms — one for ops whose prefix attempts all committed on the fast
// path, one for ops that took at least one fallback — so the hot path is a
// single-writer bucket increment with no sharing, and slots recycled at
// thread exit bound the storage by live threads. Merging happens at
// emission, after worker threads have quiesced (bench runners join before
// reading), by bucket-wise summation across slots.
//
// Overhead budget (the native-obs CI job enforces <= 5% end to end): two
// RDTSCs + one branch + one increment per op with PTO_OBS=1, a 16-byte ring
// store per transaction event with PTO_FLIGHT set, nothing at all when off
// (one relaxed load of the tap word behind PTO_UNLIKELY).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/defs.h"
#include "obs/histogram.h"
#include "obs/tsc.h"
#include "telemetry/registry.h"
#include "telemetry/taps.h"

namespace pto::obs {

using telemetry::Site;

namespace detail {
/// PTO_OBS_SAMPLE - 1 (power of two): an op is timed when
/// (++tls_op_seq & g_sample_mask) == 0. 0 = time every op.
extern std::uint64_t g_sample_mask;
extern thread_local std::uint64_t tls_op_seq;
/// Ops classified fallback when this thread-local moved during the op
/// (bumped by the histograms' tap on every prefix fallback event).
extern thread_local std::uint64_t tls_fallbacks;
}  // namespace detail

/// True when PTO_OBS armed latency histograms (the histograms' tap).
inline bool hist_on() { return telemetry::tap_on(telemetry::kTapHist); }

/// Test hook: force histograms on/off (call at quiescence).
inline void set_hist_on(bool on) {
  telemetry::set_tap(telemetry::kTapHist, on);
}

inline void note_fallback() { ++detail::tls_fallbacks; }

/// This thread's fallback count so far. Callers that can't scope an OpTimer
/// around an op (e.g. open-loop requests timed from their scheduled arrival)
/// sample this before/after to classify the op fast vs fallback.
inline std::uint64_t fallbacks_now() { return detail::tls_fallbacks; }

/// Latency summaries in nanoseconds, split by path taken.
struct LatencySiteSummary {
  std::string site;
  HistSummary fast;      ///< ops fully served by committed prefix attempts
  HistSummary fallback;  ///< ops that executed at least one fallback
};

/// Record one op's latency (ticks) under `site`; single producer per thread.
inline void record_latency(Site* site, bool fallback, std::uint64_t ticks) {
  if (hist_on()) site->record_latency(fallback, ticks);
}

/// Zero every site's histograms. Call at quiescence (between bench
/// points) so each emitted summary covers exactly one measurement window.
void reset_latency();

/// Summarize a histogram of raw ticks in nanoseconds.
HistSummary to_ns(const Histogram& h);

/// Merge across threads and convert to nanoseconds. `out_sites` (optional)
/// receives the per-site split; the return value aggregates every site.
/// Call at quiescence.
struct MergedLatency {
  HistSummary all;
  HistSummary fast;
  HistSummary fallback;
};
MergedLatency merged_latency(std::vector<LatencySiteSummary>* out_sites);

/// Scoped per-op timer: reads the tsc on entry, records on done()/destruction
/// and classifies fast vs fallback by whether tls_fallbacks moved. All no-ops
/// unless hist_on().
class OpTimer {
 public:
  explicit OpTimer(Site* site) : site_(site) {
    if (PTO_UNLIKELY(hist_on()) &&
        (++detail::tls_op_seq & detail::g_sample_mask) == 0) {
      fb0_ = detail::tls_fallbacks;
      t0_ = now_ticks();
      armed_ = true;
    }
  }
  OpTimer(const OpTimer&) = delete;
  OpTimer& operator=(const OpTimer&) = delete;
  ~OpTimer() { done(); }

  void done() {
    if (!armed_) return;
    armed_ = false;
    const std::uint64_t t1 = now_ticks();
    record_latency(site_, detail::tls_fallbacks != fb0_,
                   t1 > t0_ ? t1 - t0_ : 0);
  }

 private:
  Site* site_;
  std::uint64_t t0_ = 0;
  std::uint64_t fb0_ = 0;
  bool armed_ = false;
};

}  // namespace pto::obs
