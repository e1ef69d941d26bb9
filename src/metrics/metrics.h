// pto::metrics — time-resolved metrics streaming, watchdogs, and the data
// feed behind tools/pto_top.py.
//
// Every other observability surface (telemetry registry sites with their
// counters and latency histograms, PTO_PROF cycle ledgers) reports
// end-of-run aggregates. This layer samples those same sources
// *periodically* into time-bucketed deltas and streams them as NDJSON, so
// warm-up, steady state, and contention storms are visible as they happen:
//
//   PTO_METRICS=<ms>       arm interval snapshots every <ms> milliseconds —
//                          wall-clock ms on native runs (a background
//                          sampler thread bracketed by the bench point),
//                          *virtual* ms on simx (1 ms = 3.4e6 virtual
//                          cycles, the paper's 3.4 GHz clock), ticked from
//                          the dispatcher at zero virtual cost: simulated
//                          cycles are byte-identical with metrics on or off.
//   PTO_METRICS_OUT=path   NDJSON destination (default pto_metrics.ndjson;
//                          "-" = stderr)
//   PTO_METRICS_PROM=path  also maintain a Prometheus text-exposition file,
//                          atomically rewritten (tmp + rename) every tick
//   PTO_WATCH=rules        watchdog rule list, e.g.
//                          "fallback_rate>0.5,abort_storm,reclaim_backlog";
//                          firings emit {"type":"watch"} events in-stream
//                          and a rate-limited stderr line
//   PTO_WATCH_STRICT=1     exit nonzero at process end if any rule fired
//                          (CI gate mode)
//
// Delta semantics under thread churn: every sampled source is a monotone
// counter whose storage survives thread exit (a registry site's shards —
// counters and latency histograms — pass to the next thread leasing the
// slot, and prof ledgers are never freed), so interval deltas telescope —
// the sum of all interval deltas equals the end-of-run aggregate exactly,
// regardless of threads registering or exiting mid-interval. A source that
// shrinks (an explicit reset() between bench points) re-baselines: the delta
// clamps at zero instead of underflowing. tests/test_metrics.cpp pins both
// properties.
//
// Record stream (one JSON object per line; validated by
// tools/check_metrics.py):
//   metrics_meta      once at arm: interval, paths, provenance
//   metrics_interval  one per tick: label + per-source deltas
//   watch             one per watchdog firing
//   warning           pto::warn_once events while armed
//   metrics_flush     once at exit: totals, violation count
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>

namespace pto::metrics {

/// 1 virtual millisecond in simulated cycles (the paper's 3.4 GHz i7-4770;
/// keep in sync with RunResult::ops_per_msec()).
inline constexpr std::uint64_t kCyclesPerVirtualMs = 3'400'000;

struct Config {
  std::uint64_t interval_ms = 0;  ///< 0 = off
  std::string out_path;           ///< NDJSON; "-" = stderr; "" = default file
  std::string prom_path;          ///< Prometheus text file; "" = off
  std::string watch;              ///< watchdog rule spec; "" = none
  bool strict = false;            ///< nonzero exit if any rule fired
};

/// True when interval snapshots are armed (PTO_METRICS or configure()).
bool armed();

/// Programmatic arm/re-arm (tests). Call at quiescence: resets sequence
/// numbers, baselines, and violation counts. interval_ms == 0 disarms.
void configure(const Config& cfg);

/// Redirect the NDJSON stream (tests); nullptr restores the configured file.
void set_stream(std::ostream* os);

/// Total metrics_interval records emitted so far (monotone).
std::uint64_t intervals_emitted();

/// Watchdog rule firings so far.
unsigned watch_violations();

// ---------------------------------------------------------------------------
// Bench points. The bench-point bracket (benchutil/runner.h) opens and closes
// every measured point with this pair. Opening labels subsequent interval
// records with the point; a wall-clock point also re-baselines latency (the
// bracket resets it just before) and starts the sampler thread. Closing a
// wall-clock point stops the sampler and emits the trailing partial
// interval, so the point's deltas telescope to its aggregate; simx points
// tick on virtual time inside sim::run() instead.
// ---------------------------------------------------------------------------
void point_begin(const char* bench, const char* series, unsigned threads,
                 bool wall_clock);
/// Returns the metrics_interval records emitted within the point (0 when
/// metrics is off).
std::uint64_t point_end();

/// Synchronous wall-mode tick (tests: no sleeping on the sampler cadence).
void force_tick();

/// Flush buffered records and rewrite the Prometheus file now. Called from
/// the process-exit hook; safe to call manually.
void flush();

// ---------------------------------------------------------------------------
// simx virtual-time ticker. sim::run() brackets each simulation;
// Runtime::advance() — the dispatcher's only clock-advancing edge — makes
// sim_maybe_tick's check with the running thread's clock. The running thread is a
// clock minimum over runnable threads (scheduler invariant), so its clock
// *is* virtual now. Everything a tick does happens in host memory: no
// virtual cycles are charged, no simulated allocation occurs, and the
// schedule is untouched.
// ---------------------------------------------------------------------------
void sim_run_begin(unsigned nthreads);
void sim_run_end(std::uint64_t final_vt);

namespace detail {
/// Next virtual-cycle tick boundary; ~0 whenever metrics is off or no
/// simulation is running, so the advance()-side gate is one compare that
/// never fires.
extern std::uint64_t g_sim_next_tick;
void sim_tick(std::uint64_t vnow);
}  // namespace detail

inline void sim_maybe_tick(std::uint64_t vnow) {
  if (vnow >= detail::g_sim_next_tick) detail::sim_tick(vnow);
}

}  // namespace pto::metrics
