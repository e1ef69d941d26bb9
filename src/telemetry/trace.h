// simx event tracing: a bounded ring-buffer recorder for simulator events
// (transaction commit/abort with cause and cycle timestamps, coherence
// misses, fiber scheduling), exported as Chrome trace_event JSON so a run can
// be opened in chrome://tracing or https://ui.perfetto.dev.
//
//   PTO_TRACE=out.json     enable; the file is (re)written at the end of
//                          every sim::run() and holds all events recorded
//                          since the process started (bounded by the ring)
//   PTO_TRACE_CAP=N        ring capacity in events (default 262144); when
//                          full the oldest events are dropped and the drop
//                          count is reported in the file's otherData
//   PTO_TRACE_SCHED=1      also record fiber dispatch switches (high volume)
//
// Timestamps are virtual cycles converted to microseconds at the paper's
// 3.4 GHz, so trace timelines share units with the figures. Each sim::run()
// gets its own trace pid; virtual threads map to tids. A coherence miss
// names its line by the line's order of first miss in the run (args.line
// 0, 1, ...), so two runs of one workload write the same file.
//
// The recorder is intentionally simulator-only and therefore single-host-
// threaded (sim::run is not reentrant); recording charges no virtual cycles,
// so tracing never perturbs a simulated result.
#pragma once

#include <atomic>
#include <cstdint>

namespace pto::telemetry {

namespace trace_detail {
extern std::atomic<bool> g_on;
extern std::atomic<bool> g_sched_on;
}  // namespace trace_detail

/// Cheap gate for instrumentation points.
inline bool trace_on() {
  return trace_detail::g_on.load(std::memory_order_relaxed);
}
inline bool trace_sched_on() {
  return trace_detail::g_sched_on.load(std::memory_order_relaxed);
}

/// Programmatic control (tests). Path nullptr or "" disables tracing and
/// clears the buffer; a non-empty path enables it.
void trace_set_path(const char* path);
void trace_set_sched(bool on);
void trace_set_capacity(std::uint64_t events);

// Recording hooks, called by the simulator (guard with trace_on()).
void trace_run_begin(unsigned nthreads, std::uint64_t seed);
void trace_tx_commit(unsigned tid, std::uint64_t start_cycle,
                     std::uint64_t end_cycle);
void trace_tx_abort(unsigned tid, std::uint64_t start_cycle,
                    std::uint64_t end_cycle, unsigned cause);
/// `line` is the host line index (address / kCacheLine).
void trace_miss(unsigned tid, std::uint64_t cycle, std::uint64_t line);
void trace_sched(unsigned tid, std::uint64_t cycle);
/// Counter-track sample ("ph":"C"): cumulative `value` on the counter named
/// by `counter_id` (0 = conflict_aborts, 1 = doomed_cycles). Fed by the
/// profiler (telemetry/prof.h) when both PTO_TRACE and PTO_PROF are on.
void trace_counter(std::uint64_t cycle, unsigned counter_id,
                   std::uint64_t value);

/// Write the Chrome trace JSON file (truncates and rewrites). Called
/// automatically at the end of each sim::run() while tracing is on.
void trace_flush();

}  // namespace pto::telemetry
